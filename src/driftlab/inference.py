"""Estimation of local dynamics from trajectory data.

Fits the affine one-step model delta ~ A x + b by pooled least squares
(bias column appended to the state design matrix), estimates residual
covariance, computes the interference matrix of cross-objective
step-change correlations, and scores one-step predictive R-squared.

Steps are pooled across every session and iteration of a strategy, in
session order; all reductions run in a fixed order so results do not
depend on scheduling.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DegenerateVariance,
    DriftModel,
    InsufficientData,
    InterferenceMatrix,
    NonFinite,
    PredictionReport,
    RankDeficientDesign,
    SessionSet,
    pooled_step_matrix,
)


def fit_affine(
    states: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Least-squares fit of deltas on [states | 1], with one decomposition.

    Returns (A, b, residual covariance, sample count). Raises
    InsufficientData when there are fewer than n+1 samples, NonFinite when
    either input holds a NaN or an infinity, and RankDeficientDesign when
    the design matrix loses column rank. A state column that is constant
    across the samples is an exact multiple of the bias column, so it is
    rejected before any decomposition; otherwise the rank is the one
    `lstsq` reports, whose cut-off (eps * max(N, n+1) * largest singular
    value) is the one `np.linalg.matrix_rank` uses. The two compute the
    singular values with different LAPACK routines, so on a design within
    a few percent of the cut-off they can decide differently.
    """
    X = np.asarray(states, dtype=np.float64)
    D = np.asarray(deltas, dtype=np.float64)
    if X.ndim != 2 or X.shape != D.shape:
        raise ValueError(f"states {X.shape} and deltas {D.shape} must match (N, n)")
    count, n = X.shape
    if count < n + 1:
        raise InsufficientData(f"{count} step(s) < n+1 = {n + 1} required for the fit")
    if not (np.isfinite(X).all() and np.isfinite(D).all()):
        raise NonFinite("states and deltas must be finite for the fit")
    if (X == X[0]).all(axis=0).any():
        raise RankDeficientDesign(
            f"design matrix rank < {n + 1}; a state column is constant"
        )
    Z = np.empty((count, n + 1))
    Z[:, :n] = X
    Z[:, n] = 1.0
    theta, _res, rank, _s = np.linalg.lstsq(Z, D, rcond=None)
    if rank < n + 1:
        raise RankDeficientDesign(
            f"design matrix rank < {n + 1}; states do not span the space"
        )
    A = theta[:n].T
    b = theta[n]
    resid = D - Z @ theta
    dof = max(1, count - (n + 1))
    sigma = (resid.T @ resid) / dof
    sigma = (sigma + sigma.T) / 2.0
    return A, b, sigma, count


def fit_drift(data: SessionSet) -> DriftModel:
    """Pooled affine drift estimate for all sessions of one strategy."""
    X, D = pooled_step_matrix(data)
    A, b, sigma, count = fit_affine(X, D)
    return DriftModel(A_hat=A, b_hat=b, sigma_hat=sigma, sample_count=count)


def correlation_of_deltas(deltas: np.ndarray) -> InterferenceMatrix:
    """Interference matrix from an already-pooled (N, n) delta matrix."""
    D = np.asarray(deltas, dtype=np.float64)
    count, n = D.shape
    if count < 2:
        raise InsufficientData(f"{count} step(s) < 2 required for correlations")
    centered = D - D.mean(axis=0)
    cov = centered.T @ centered
    var = np.diag(cov)
    for i in range(n):
        if var[i] == 0.0:
            raise DegenerateVariance(
                f"dimension {i} has zero step-change variance", dimension=i
            )
    denom = np.sqrt(np.outer(var, var))
    entries = np.clip(cov / denom, -1.0, 1.0)
    entries = (entries + entries.T) / 2.0
    np.fill_diagonal(entries, 0.0)
    return InterferenceMatrix(entries)


def interference_matrix(data: SessionSet) -> InterferenceMatrix:
    """Pearson correlations of pooled step changes; diagonal forced to zero."""
    _, D = pooled_step_matrix(data)
    return correlation_of_deltas(D)


def predictive_r2(data: SessionSet, model: DriftModel) -> PredictionReport:
    """One-step predictive R-squared of a drift model on a session set.

    Pooled value: 1 - SS_res / SS_tot summed over every component and
    step, with SS_tot taken around per-dimension target means (so a model
    that predicts exactly the mean delta scores 0). Per-dimension values
    are computed the same way, one component at a time.
    """
    X, D = pooled_step_matrix(data)
    if X.shape[0] < 2:
        raise InsufficientData(f"{X.shape[0]} step(s) < 2 required for R-squared")
    pred = model.predict(X)
    resid = D - pred
    ss_res = np.sum(resid**2, axis=0)
    centered = D - D.mean(axis=0)
    ss_tot = np.sum(centered**2, axis=0)
    for i, tot in enumerate(ss_tot):
        if tot == 0.0:
            raise DegenerateVariance(
                f"dimension {i} has zero target variance", dimension=i
            )
    per_dim = tuple(float(1.0 - r / t) for r, t in zip(ss_res, ss_tot))
    pooled = float(1.0 - np.sum(ss_res) / np.sum(ss_tot))
    return PredictionReport(
        r_squared=pooled,
        per_dimension_r_squared=per_dim,
        step_count=X.shape[0],
    )
