import numpy as np
import pytest

from driftlab import spectral
from driftlab.core import NonFinite, NonSquare, Regime

from oracles import charpoly_eigenvalues, match_multisets


# ---------------------------------------------------------------------------
# eigen_spectrum
# ---------------------------------------------------------------------------

def test_diagonal_matrix_sorted_descending():
    got = spectral.eigen_spectrum(np.diag([-0.33, -0.2, -0.1]))
    assert got == [complex(-0.1), complex(-0.2), complex(-0.33)]


def test_rotation_generator_pure_imaginary():
    got = spectral.eigen_spectrum(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert match_multisets(got, [1j, -1j], 1e-12)
    assert got[0].imag > 0  # conjugate ordering: +i first


def test_companion_of_quadratic():
    # z^2 + z + 1 = 0 -> (-1 +/- i sqrt(3)) / 2
    C = np.array([[0.0, -1.0], [1.0, -1.0]])
    want = [complex(-0.5, np.sqrt(3) / 2), complex(-0.5, -np.sqrt(3) / 2)]
    assert match_multisets(spectral.eigen_spectrum(C), want, 1e-9)


def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(NonSquare):
        spectral.eigen_spectrum(np.zeros((2, 3)))
    with pytest.raises(NonFinite):
        spectral.eigen_spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_matches_charpoly_roots_small_n():
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.integers(2, 4))
        A = rng.normal(0, 2.0, (n, n))
        assert match_multisets(
            spectral.eigen_spectrum(A), charpoly_eigenvalues(A), 1e-9
        )


def test_trace_and_determinant_identities():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        A = rng.normal(0, 1.5, (n, n))
        lams = spectral.eigen_spectrum(A)
        tr, det = np.trace(A), np.linalg.det(A)
        assert abs(sum(lams) - tr) <= 1e-9 * max(1.0, abs(tr))
        assert abs(np.prod(lams) - det) <= 1e-9 * max(1.0, abs(det))


def test_conjugate_pairs_exact():
    rng = np.random.default_rng(43)
    for _ in range(50):
        A = rng.normal(0, 1.0, (3, 3))
        lams = spectral.eigen_spectrum(A)
        complexes = [z for z in lams if z.imag != 0.0]
        for z in complexes:
            assert z.conjugate() in complexes


# ---------------------------------------------------------------------------
# classify_regime
# ---------------------------------------------------------------------------

def test_exponential_regime_with_published_rate():
    rep = spectral.classify_regime([-0.33, -0.5, -0.9], dt=1.0)
    assert rep.regime is Regime.EXPONENTIAL
    assert rep.convergence_rate == pytest.approx(0.33, abs=1e-15)
    assert abs(rep.discrete_eigenvalues[0]) == pytest.approx(0.67, abs=1e-15)
    assert rep.discrete_stable


def test_boundary_regime_on_zero_eigenvalue():
    rep = spectral.classify_regime([0.0, -0.5, -0.5], zero_tol=1e-3)
    assert rep.regime is Regime.BOUNDARY


def test_oscillatory_regime_modulus():
    spec = [complex(-0.5, 0.8), complex(-0.5, -0.8), complex(-1.0, 0.0)]
    rep = spectral.classify_regime(spec, dt=1.0)
    assert rep.regime is Regime.OSCILLATORY
    assert abs(rep.discrete_eigenvalues[0]) == pytest.approx(np.sqrt(0.25 + 0.64), abs=1e-12)
    assert rep.discrete_stable


def test_classify_regime_rejects_an_empty_spectrum():
    with pytest.raises(ValueError, match="empty spectrum"):
        spectral.classify_regime([])


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), complex(float("nan"), 0.0), complex(-1.0, float("nan")),
    complex(float("inf"), 1.0), complex(float("-inf"), 0.0),
    complex(-1.0, float("inf")), complex(-1.0, float("-inf")),
])
def test_classify_regime_rejects_a_non_finite_eigenvalue(bad):
    # NaN once read as Exponential with rate nan, and inf as Unstable with rate -inf
    with pytest.raises(NonFinite, match="^spectrum has non-finite eigenvalues$"):
        spectral.classify_regime([bad, complex(-1.0)])


def test_unstable_regime_takes_precedence():
    rep = spectral.classify_regime([0.16, -0.5, 0.0])
    assert rep.regime is Regime.UNSTABLE


def test_discrete_eigenvalues_are_exact_affine_map():
    rng = np.random.default_rng(44)
    for _ in range(100):
        A = rng.normal(0, 1.0, (3, 3))
        dt = float(rng.uniform(0.1, 2.0))
        lams = spectral.eigen_spectrum(A)
        rep = spectral.classify_regime(lams, dt=dt)
        for lam, disc in zip(rep.eigenvalues, rep.discrete_eigenvalues):
            assert disc == 1.0 + lam * dt  # exact, no re-decomposition


def test_regime_scale_consistency():
    # positive scaling preserves the exponential/oscillatory distinction
    rng = np.random.default_rng(45)
    specs = [
        [complex(-0.5), complex(-0.9), complex(-1.5)],
        [complex(-0.5, 0.8), complex(-0.5, -0.8), complex(-1.0)],
    ]
    for spec in specs:
        base = spectral.classify_regime(spec).regime
        for _ in range(20):
            c = float(rng.uniform(0.5, 50.0))
            scaled = [c * z for z in spec]
            assert spectral.classify_regime(scaled).regime is base


def test_rate_is_negative_max_real_part():
    rng = np.random.default_rng(46)
    for _ in range(50):
        A = rng.normal(0, 1.0, (3, 3))
        lams = spectral.eigen_spectrum(A)
        rep = spectral.classify_regime(lams)
        assert rep.convergence_rate == -max(z.real for z in lams)
        assert rep.convergence_rate == -lams[0].real  # sorted: lambda_max first


# ---------------------------------------------------------------------------
# continuous-to-discrete stability bridge, 1 + lambda * dt
# ---------------------------------------------------------------------------

def test_bridge_published_stable_pair():
    rep = spectral.classify_regime([complex(-0.15)], 1.0)
    assert rep.discrete_eigenvalues == (complex(0.85),)
    assert rep.convergence_rate > 0 and rep.discrete_stable


def test_bridge_marginal_zero():
    rep = spectral.classify_regime([complex(0.0)], 1.0)
    assert rep.discrete_eigenvalues == (complex(1.0),)
    assert rep.convergence_rate == 0 and not rep.discrete_stable


def test_bridge_criteria_can_disagree():
    # stable in continuous time, but -3 maps to -2, outside the unit circle
    rep = spectral.classify_regime([complex(-3.0)], 1.0)
    assert rep.discrete_eigenvalues == (complex(-2.0),)
    assert rep.convergence_rate > 0 and not rep.discrete_stable


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
def test_bridge_needs_a_positive_step(dt):
    # an infinite dt would report the discrete eigenvalue -inf+nanj
    with pytest.raises(ValueError, match="^dt must be finite and > 0"):
        spectral.classify_regime([complex(-0.5)], dt)


@pytest.mark.parametrize("zero_tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_zero_tol_must_be_finite_and_positive(zero_tol):
    # a NaN tolerance would read an unstable spectrum as Exponential, and an
    # infinite one would read every spectrum as Boundary
    with pytest.raises(ValueError, match="^zero_tol must be finite and > 0"):
        spectral.classify_regime([complex(0.5), complex(-1, 2), complex(-1, -2)], 1.0, zero_tol)
