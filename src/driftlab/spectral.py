"""Eigenvalue analysis of drift matrices.

Classifies the qualitative regime of the linearized dynamics, reports the
convergence rate rho = -Re(lambda_max), and bridges continuous-time
stability (Re(lambda) < 0) to the one-step discrete criterion
(|1 + lambda * dt| < 1). The discrete eigenvalues are always derived by
the exact affine map 1 + lambda * dt, never by re-decomposing I + A dt.
"""

from __future__ import annotations

import numpy as np

from .core import NonFinite, NonSquare, Regime, SpectrumReport, check_finite_positive

DEFAULT_ZERO_TOL = 1e-2


def eigen_spectrum(A: np.ndarray) -> list[complex]:
    """Eigenvalues of a real square matrix, sorted by descending real part.

    Ties on the real part break by descending imaginary part, so conjugate
    pairs appear as (a+bi, a-bi) and element 0 is always lambda_max.
    """
    M = np.asarray(A, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix has non-finite entries")
    vals = np.linalg.eigvals(M)
    return sorted((complex(v) for v in vals), key=lambda z: (-z.real, -z.imag))


def classify_regime(
    spectrum: list[complex],
    dt: float = 1.0,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> SpectrumReport:
    """Full report for a continuous-time spectrum.

    Regime precedence: Unstable (any real part above zero_tol), then
    Boundary (any real part within zero_tol of zero), then Oscillatory
    (any imaginary part above zero_tol), else Exponential. A discrete
    eigenvalue is 1 + lambda * dt, that of an Euler step of dt with the
    generator whose spectrum is given. `fit_drift` fits a per-step drift,
    whatever dt the data was simulated at, so dt = 1 reads a fitted
    spectrum's one-step map. zero_tol and dt must each be finite and > 0,
    and every eigenvalue finite.
    """
    check_finite_positive("zero_tol", zero_tol)
    check_finite_positive("dt", dt)
    lams = list(spectrum)
    if not lams:
        raise ValueError("empty spectrum")
    if not np.isfinite(lams).all():
        raise NonFinite("spectrum has non-finite eigenvalues")
    if any(lam.real > zero_tol for lam in lams):
        regime = Regime.UNSTABLE
    elif any(abs(lam.real) <= zero_tol for lam in lams):
        regime = Regime.BOUNDARY
    elif any(abs(lam.imag) > zero_tol for lam in lams):
        regime = Regime.OSCILLATORY
    else:
        regime = Regime.EXPONENTIAL
    disc = [1.0 + lam * dt for lam in lams]  # the one-step map's eigenvalues
    return SpectrumReport(
        eigenvalues=tuple(lams),
        discrete_eigenvalues=tuple(disc),
        convergence_rate=-max(lam.real for lam in lams),
        regime=regime,
        discrete_stable=all(abs(z) < 1.0 for z in disc),
    )
