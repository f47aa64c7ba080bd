"""The output bytes are the product. Each benchmark workload, run at its
pinned seed and full size through `driftlab.cli.main`, must write files
whose SHA-256 digests equal those recorded in `perfbench/digests.json`.
The benchmark's warm-up pass reads the same file, so there is one truth to
re-pin. The analysis floats come through LAPACK, so a failure names the
numpy version beside the files that moved."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from driftlab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED = json.loads((PERFBENCH / "digests.json").read_text("utf-8"))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_outputs_match_the_pinned_digests(workload, tmp_path, monkeypatch, capsys):
    seed, pinned = PINNED["seed"], PINNED["workloads"][workload]
    workloads.prepare(workload, tmp_path, "full", seed)
    monkeypatch.chdir(tmp_path)  # the commands name paths relative to the workdir
    for label, argv in workloads.commands(workload, "full", seed):
        assert cli.main(argv) == 0, f"{label}: {capsys.readouterr().err}"
    got = workloads.digest_outputs(workload, tmp_path)
    moved = sorted(rel for rel, digest in got["files"].items()
                   if pinned["files"].get(rel) != digest)
    assert got["digest"] == pinned["digest"], (
        f"numpy {np.__version__}: {workload} outputs at seed {seed} differ from "
        f"perfbench/digests.json in {moved}")
