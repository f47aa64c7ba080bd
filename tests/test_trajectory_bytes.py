"""Trajectory bytes do not depend on the OpenBLAS kernel or the CPU count.

Each run is a child process: `simulate` of a set large enough for the JSONL
writer and reader to split across CPUs, and of one session, the set read
back and written again, and `control`. The runs differ in
`OPENBLAS_CORETYPE`, for each kernel whose instructions /proc/cpuinfo
lists, and in one run pinned to a single CPU by `os.sched_setaffinity` in
that child alone, which therefore forks nothing. Every run must write the
same trajectory bytes. (Analysis reports and `control` event values do
depend on the kernel; README's reproducibility section says which bytes
hold where.)"""

import json
import os
import subprocess
import sys

import pytest

# kernel -> the /proc/cpuinfo flags its instructions need
_KERNELS = {"Prescott": {"pni"}, "Haswell": {"avx2", "fma"},
            "SkylakeX": {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"}}

_RUN = """
import json, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks, fork = [], os.fork
def counted():
    forks.append(1)
    return fork()
os.fork = counted
from driftlab import cli, core
for argv in (["simulate", "--strategy", "SF", "--sessions", "500", "--iterations", "20",
              "--seed", "41", "--out", "set.jsonl"],
             ["simulate", "--strategy", "AI", "--sessions", "1", "--iterations", "3000",
              "--seed", "41", "--out", "one.jsonl"],
             ["control", "--schedule", "none", "--strategy", "AI", "--sigma", "2.0",
              "--iterations", "300", "--seed", "41", "--out", "ctl"]):
    assert cli.main(argv) == 0, argv
with open("reread.jsonl", "w", encoding="utf-8", newline="") as f:
    f.write(core.dumps_trajectories(core.read_trajectories("set.jsonl")))
print(json.dumps({"forks": len(forks), "cpus": len(os.sched_getaffinity(0))}))
"""
_FILES = ("set.jsonl", "one.jsonl", "reread.jsonl", "ctl.jsonl")


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            return {flag for line in f if line.startswith("flags")
                    for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


def _run(workdir, pinned: bool, kernel: str | None) -> tuple[dict, dict]:
    workdir.mkdir()
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run([sys.executable, "-c", _RUN, "pinned" if pinned else "free"],
                          cwd=workdir, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return (json.loads(done.stdout.splitlines()[-1]),
            {name: (workdir / name).read_bytes() for name in _FILES})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_trajectory_bytes_hold_on_every_kernel_and_cpu_count(tmp_path):
    flags = _cpu_flags()
    kernels = [kernel for kernel, needs in _KERNELS.items() if needs <= flags] or [None]
    pinned, want = _run(tmp_path / "pinned", True, None)
    assert pinned == {"forks": 0, "cpus": 1}
    assert want["reread.jsonl"] == want["set.jsonl"]
    for kernel in kernels:
        run, got = _run(tmp_path / f"free-{kernel}", False, kernel)
        assert got == want, kernel
        # the set is written, read and written again in one share per CPU;
        # one session, as `control` writes, is never split
        assert run["forks"] == 3 * (run["cpus"] - 1), kernel
