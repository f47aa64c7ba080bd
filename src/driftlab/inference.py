"""Estimation of local dynamics from trajectory data.

Fits the affine one-step model delta ~ A x + b by pooled least squares
(bias column appended to the state design matrix), estimates residual
covariance, computes the interference matrix of cross-objective
step-change correlations, and scores one-step predictive R-squared.
`fit_windows` is `fit_affine` over every trailing window of one
trajectory, with its checks run on all windows at once and its
decompositions in one stacked call of the gufunc under `np.linalg.lstsq`.

Steps are pooled across every session and iteration of a strategy, in
session order; all reductions run in a fixed order so results do not
depend on scheduling.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.linalg import _umath_linalg  # the gufuncs under np.linalg

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


_NON_FINITE = "states and deltas must be finite for the fit"


def _design(X: np.ndarray) -> np.ndarray:
    """The design matrix [X | 1]."""
    Z = np.empty((len(X), X.shape[1] + 1))
    Z[:, :-1] = X
    Z[:, -1] = 1.0
    return Z


def _solve(Z: np.ndarray, D: np.ndarray) -> np.ndarray | None:
    """The least-squares theta of Z theta ~ D, or None when the rank that
    `lstsq` reports is below Z's column count."""
    theta, _res, rank, _s = np.linalg.lstsq(Z, D, rcond=None)
    return theta if rank == Z.shape[1] else None


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _solve_stack(Z: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta and rank of Z[k] theta ~ D[k] for every k of a (K, N, n+1)
    stack, in one call of the gufunc that `np.linalg.lstsq` calls once per
    problem, with the signature, rcond=None cut-off and error handling of
    `lstsq`. Raises LinAlgError when the SVD of any problem does not
    converge, and AttributeError when numpy has no such gufunc."""
    rcond = np.finfo(np.float64).eps * max(Z.shape[-2:])
    with np.errstate(call=_raise_lstsq, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        theta, _res, rank, _s = _umath_linalg.lstsq(Z, D, rcond, signature="ddd->ddid")
    return theta, rank


def fit_affine(
    states: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Least-squares fit of deltas on [states | 1], with one decomposition.

    Returns (A, b, residual covariance, sample count). Raises
    InsufficientData when there are fewer than n+1 samples, NonFinite when
    either input holds a NaN or an infinity or when A, b or the residual
    covariance overflows to one, and RankDeficientDesign when the design
    matrix loses column rank. A state column that is constant
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
        raise NonFinite(_NON_FINITE)
    if (X == X[0]).all(axis=0).any():
        raise RankDeficientDesign(
            f"design matrix rank < {n + 1}; a state column is constant"
        )
    Z = _design(X)
    theta = _solve(Z, D)
    if theta is None:
        raise RankDeficientDesign(
            f"design matrix rank < {n + 1}; states do not span the space"
        )
    A = theta[:n].T
    b = theta[n]
    with np.errstate(all="ignore"):  # an overflow shows in the finiteness check
        resid = D - Z @ theta
        dof = max(1, count - (n + 1))
        sigma = (resid.T @ resid) / dof
        sigma = (sigma + sigma.T) / 2.0
    if not (np.isfinite(theta).all() and np.isfinite(sigma).all()):
        raise NonFinite("the fit overflowed: A, b or the residual covariance is not finite")
    return A, b, sigma, count


class WindowFits(NamedTuple):
    """`fit_affine` over the windows of one trajectory, in order.

    full[k] says whether window k has a full-rank fit, and A stacks the
    (n, n) drift matrices of those windows. When error is not None, the
    fit of window len(full) raises it, and later windows are left out.
    """
    full: np.ndarray
    A: np.ndarray
    error: Exception | None


def fit_windows(rows: np.ndarray, window: int) -> WindowFits:
    """`fit_affine(w[:-1], np.diff(w, axis=0))` on every window
    w = rows[k:k + window + 1] of a (T+1, n) matrix, k = 0 .. T - window.

    A window that raises InsufficientData or RankDeficientDesign has no
    fit. The finiteness check and `fit_affine`'s constant-column test run
    on all windows at once. The windows left are solved by one
    `_solve_stack` call (one per controller segment) on the values of
    `fit_affine`'s `lstsq` call, so each has the same bits and the same
    rank decision. When that call raises LinAlgError, or numpy lacks or
    rejects the gufunc, the windows are solved one `_solve` call each, so
    the first window whose SVD fails ends the scan with `fit_affine`'s
    exception. Only A is computed, so a window whose b or residual
    covariance overflows, where `fit_affine` raises NonFinite, keeps its
    fit here.
    """
    m = np.asarray(rows, dtype=np.float64)
    n = m.shape[1]
    X = m[:-1]
    with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects what overflows
        D = np.diff(m, axis=0)
    count = max(0, len(X) - window + 1)
    if window < n + 1 or count == 0:
        return WindowFits(np.zeros(count, dtype=bool), np.empty((0, n, n)), None)
    error = None
    bad = np.flatnonzero(~(np.isfinite(X).all(axis=1) & np.isfinite(D).all(axis=1)))
    # the first window that holds a non-finite step
    cut = max(0, int(bad[0]) - window + 1) if len(bad) else count
    if cut < count:
        count, error = cut, NonFinite(_NON_FINITE)
    Xw = sliding_window_view(X, (window, n))[:count, 0]
    flat = (Xw == Xw[:, :1]).all(axis=1).any(axis=1)
    Zw = sliding_window_view(_design(X), (window, n + 1))[:, 0]
    Dw = sliding_window_view(D, (window, n))[:, 0]
    full = np.zeros(count, dtype=bool)
    ks = np.flatnonzero(~flat)
    try:
        theta, rank = _solve_stack(Zw[ks], Dw[ks])
    except (AttributeError, TypeError, ValueError, np.linalg.LinAlgError):
        # numpy lacks or rejects the gufunc, or some window's SVD failed
        A = []
        for k in ks.tolist():
            try:
                theta = _solve(Zw[k], Dw[k])
            except np.linalg.LinAlgError as exc:
                full, error = full[:k], exc
                break
            if theta is not None:
                full[k] = True
                A.append(theta[:n].T)
        return WindowFits(full, np.array(A).reshape(-1, n, n), error)
    ok = rank == n + 1
    full[ks[ok]] = True
    return WindowFits(full, theta[ok, :n].swapaxes(1, 2).copy(), error)


def fit_drift(data: SessionSet) -> DriftModel:
    """Pooled affine drift estimate for all sessions of one strategy."""
    X, D = pooled_step_matrix(data)
    A, b, sigma, count = fit_affine(X, D)
    return DriftModel(A_hat=A, b_hat=b, sigma_hat=sigma, sample_count=count)


def interference_matrix(data: SessionSet) -> InterferenceMatrix:
    """Pearson correlations of pooled step changes; diagonal forced to zero.
    Where var_i * var_j falls below the normal range, sqrt(var_i) * sqrt(var_j)
    divides instead, so tiny step changes keep their correlations."""
    _, D = pooled_step_matrix(data)
    count, n = D.shape
    if count < 2:
        raise InsufficientData(f"{count} step(s) < 2 required for correlations")
    if not np.isfinite(D).all():
        raise NonFinite("deltas must be finite for the correlations")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects what overflows
        centered = D - D.mean(axis=0)
        cov = centered.T @ centered
        var = np.diag(cov)
        product = np.outer(var, var)
        denom = np.where(product < np.finfo(np.float64).tiny,
                         np.outer(np.sqrt(var), np.sqrt(var)), np.sqrt(product))
    if not (np.isfinite(cov).all() and np.isfinite(denom).all()):
        raise NonFinite("the correlations overflowed: the step-change covariance "
                        "or a product of two variances is not finite")
    for i in range(n):
        if var[i] == 0.0:
            raise DegenerateVariance(
                f"dimension {i} has zero step-change variance", dimension=i
            )
    entries = np.clip(cov / denom, -1.0, 1.0)
    entries = (entries + entries.T) / 2.0
    np.fill_diagonal(entries, 0.0)
    return InterferenceMatrix(entries)


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
    if not np.isfinite(D).all():
        raise NonFinite("deltas must be finite for R-squared")
    with np.errstate(all="ignore"):  # the checks below reject a zero variance and an overflow
        resid = D - model.predict(X)
        ss_res = np.sum(resid**2, axis=0)
        centered = D - D.mean(axis=0)
        ss_tot = np.sum(centered**2, axis=0)
        per_dim = tuple(float(1.0 - r / t) for r, t in zip(ss_res, ss_tot))
        pooled = float(1.0 - np.sum(ss_res) / np.sum(ss_tot))
    for i, tot in enumerate(ss_tot):
        if tot == 0.0:
            raise DegenerateVariance(
                f"dimension {i} has zero target variance", dimension=i
            )
    if not np.isfinite([*ss_res, *ss_tot, *per_dim, pooled]).all():
        raise NonFinite("R-squared overflowed: a sum of squares or a ratio of two is not finite")
    return PredictionReport(
        r_squared=pooled,
        per_dimension_r_squared=per_dim,
        step_count=X.shape[0],
    )
