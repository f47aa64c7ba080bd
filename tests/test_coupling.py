"""A known coupling between objectives, recovered end to end.

The strategy couples the objectives one way each: efficiency pulls
security down (A[0][1] = -0.3) and pushes functionality up
(A[2][1] = +0.25), with -0.6 on the diagonal, an intercept that puts the
equilibrium at (6, 7, 6.5) and diffusion 0.5 I. It is run through
`driftlab simulate --strategy FILE` and `driftlab analyze`; drift.json's
A_hat must give both couplings their sign and size, within
COUPLING_BOUND of every entry of A.

The bound comes from the estimator's spread, measured over seeds 1-30 at
these sizes (400 sessions x 10 iterations): no entry of A_hat was more
than 0.029 from A's. A_hat[0][1] read -0.329 to -0.293 and A_hat[2][1]
+0.237 to +0.273; seed 3, pinned here, read -0.310 and +0.266.

interference.json is not the coupling: it is the correlation of pooled
one-step changes, the co-movement of the objectives. On the same run its
security-efficiency entry reads +0.339, the opposite sign to A[0][1]
(+0.313 to +0.354 over seeds 1-30), as every axis rises together from the
box centre in the first steps.
"""

import json

import numpy as np

from driftlab import cli

SEED = 3
SESSIONS, ITERATIONS = 400, 10
COUPLING_BOUND = 0.05
A = np.array([[-0.6, -0.3, 0.0], [0.0, -0.6, 0.0], [0.0, 0.25, -0.6]])
EQUILIBRIUM = np.array([6.0, 7.0, 6.5])


def analyzed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({
        "id": "C",
        "drift_matrix": A.tolist(),
        "drift_intercept": (-A @ EQUILIBRIUM).tolist(),
        "diffusion": (0.5 * np.eye(3)).tolist(),
    }))
    assert cli.main(["simulate", "--strategy", "c.json", "--sessions", str(SESSIONS),
                     "--iterations", str(ITERATIONS), "--seed", str(SEED),
                     "--out", "c.jsonl"]) == 0
    assert cli.main(["analyze", "--in", "c.jsonl", "--out", "an",
                     "--only", "drift,interference"]) == 0
    return {name: json.loads((tmp_path / "an" / f"{name}.json").read_text("utf-8"))
            ["strategies"]["C"] for name in ("drift", "interference")}


def test_drift_json_recovers_the_coupling(tmp_path, monkeypatch, capsys):
    reports = analyzed(tmp_path, monkeypatch)
    A_hat = np.array(reports["drift"]["A_hat"])
    assert A_hat[0, 1] < 0 < A_hat[2, 1], A_hat
    assert np.abs(A_hat - A).max() <= COUPLING_BOUND, A_hat
    # the co-movement of step changes reads the other sign
    assert reports["interference"]["entries"][0][1] > 0
