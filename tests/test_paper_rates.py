"""The paper's convergence rates, recovered end to end.

The paper reports strategy-dependent convergence rates from 0.33 to 1.29;
c04 checks only the arithmetic of that rate table. Here each rate rho of
c04's table is a strategy file with drift -rho I, intercept rho x* (x* = 7
on every axis) and diffusion 0.5 I, run through `driftlab simulate
--strategy FILE` and `driftlab analyze`. Its spectrum.json must give a
`convergence_rate` within RATE_BOUND of rho and the Exponential regime.

The bound comes from the estimator's spread, measured over seeds 1-30 at
these sizes (800 sessions x 50 iterations): the recovered rate was
never more than 0.011 from rho (standard deviation 0.002-0.004 per rate,
and a slight low bias, as the largest of three noisy eigenvalues is
taken), and the regime was Exponential on all 120 runs. The seed is
pinned, as c02's is.

With drift -rho I every eigenvalue is near -rho, so the rate alone cannot
tell the slowest mode from the fastest. Each report must also give the
rate of its own slowest eigenvalue, and one strategy mixes three of the
rates on its axes, where only the slowest, 0.15, may be reported.

The same strategies, run at 400 sessions x 10 iterations from the box
centre, must give a prediction.json `r_squared` near the closed form of
the chain without the box (`oracles.expected_pooled_r2`).
"""

import json

import numpy as np
import pytest

from driftlab import cli
from driftlab.core import StrategySpec
from oracles import expected_pooled_r2

SEED = 19
SESSIONS, ITERATIONS = 800, 50
RATE_BOUND = 0.025
EQUILIBRIUM = 7.0

# The sampling SD of r_squared at 400 x 10 per rate, over seeds 1-100, and
# the bound in SDs, chosen there (SEED is one of them). On seeds 101-300
# no run was more than 3.46 SDs from the closed form.
R2_SD = {0.33: 0.0040, 1.08: 0.0023, 1.29: 0.0017}
R2_K = 4.0


def strategy_file(path, rates):
    rates = np.asarray(rates, dtype=float)
    path.write_text(json.dumps({
        "id": "P",
        "drift_matrix": (-np.diag(rates)).tolist(),
        "drift_intercept": (rates * EQUILIBRIUM).tolist(),
        "diffusion": (0.5 * np.eye(3)).tolist(),
    }))
    return path


def recovered_spectrum(tmp_path, monkeypatch, rates):
    monkeypatch.chdir(tmp_path)
    strategy_file(tmp_path / "p.json", rates)
    assert cli.main(["simulate", "--strategy", "p.json", "--sessions", str(SESSIONS),
                     "--iterations", str(ITERATIONS), "--seed", str(SEED),
                     "--out", "p.jsonl"]) == 0
    assert cli.main(["analyze", "--in", "p.jsonl", "--out", "an", "--only", "spectrum"]) == 0
    return json.loads((tmp_path / "an" / "spectrum.json").read_text("utf-8"))["strategies"]["P"]


@pytest.mark.parametrize("rho", [0.15, 0.33, 1.08, 1.29])
def test_simulate_then_analyze_recovers_the_paper_rate(tmp_path, monkeypatch, capsys, rho):
    report = recovered_spectrum(tmp_path, monkeypatch, [rho] * 3)
    assert abs(report["convergence_rate"] - rho) <= RATE_BOUND, report["convergence_rate"]
    assert report["regime"] == "Exponential"
    assert report["convergence_rate"] == -max(re for re, _im in report["eigenvalues"])


def test_the_slowest_mode_sets_the_rate(tmp_path, monkeypatch, capsys):
    report = recovered_spectrum(tmp_path, monkeypatch, [1.08, 0.15, 1.29])
    assert abs(report["convergence_rate"] - 0.15) <= RATE_BOUND, report["convergence_rate"]
    assert report["regime"] == "Exponential"


@pytest.mark.parametrize("rho", sorted(R2_SD))
def test_prediction_r_squared_is_the_closed_form_within_its_sampling_spread(
        tmp_path, monkeypatch, capsys, rho):
    monkeypatch.chdir(tmp_path)
    strategy_file(tmp_path / "p.json", [rho] * 3)
    assert cli.main(["simulate", "--strategy", "p.json", "--sessions", "400",
                     "--iterations", "10", "--seed", str(SEED), "--out", "p.jsonl"]) == 0
    assert cli.main(["analyze", "--in", "p.jsonl", "--out", "an", "--only", "prediction"]) == 0
    got = json.loads((tmp_path / "an" / "prediction.json").read_text("utf-8"))
    spec = StrategySpec("P", -rho * np.eye(3), [rho * EQUILIBRIUM] * 3, 0.5 * np.eye(3))
    want = expected_pooled_r2(spec, 10, [5.0] * 3)
    assert abs(got["strategies"]["P"]["r_squared"] - want) <= R2_K * R2_SD[rho], (rho, want)
