"""Host-speed probe: a fixed reference kernel, timed while the program runs.

On a shared host the speed of one vCPU is not steady. On the 2-vCPU Xeon
virtual machine where this benchmark was defined, the same Python code runs
up to 1.7 times slower for a few seconds at a time, on each vCPU on its
own, and process CPU time slows with it. A run that happens to fall in slow
periods reads slow, whatever the program does.

So every time the benchmark gates on is corrected for the host's speed at
the moment it was measured. While a command runs, a timer interrupts it
every `PERIOD_S` and runs `tick()`, a small fixed kernel of pure
interpreter work: line scanning with string methods and regexes, a dict
and an integer loop. Six kernels were tried on every workload (this one's
two halves, JSON, Philox draws, small `linalg` calls and a numpy broadcast,
alone and summed); this one left the least spread in pass times corrected
by it, and any numpy in it made the scorer's worse. The command's time
excludes the ticks, and

    corrected seconds = measured seconds * REFERENCE_TICK_S / mean tick seconds

that is, the time the command would take on a host where `tick()` takes
`REFERENCE_TICK_S`. The kernel is part of the benchmark, not of the
program, so no change to driftlab moves it; a program that gets twice as
fast reads half the corrected time.

Set-up time is an import, which slows with the host's file and loader
work more than with its interpreter speed, and ticks tracked it poorly. Its
reference is a fresh interpreter importing numpy, driftlab's one
third-party dependency, timed right after each set-up sample: over 150 s
the import of `driftlab.cli` swung 2.2x while its ratio to the numpy
import moved 1.27x.
"""

from __future__ import annotations

import re
import signal
import time

PERIOD_S = 0.025
# Mean in-command time of `tick()` on an uncontended vCPU of the host where
# the benchmark was defined (Intel Xeon, 2 vCPUs, Python 3.11).
REFERENCE_TICK_S = 0.0005

# A fresh interpreter's `import numpy` on that host, quiet.
REFERENCE_MODULE = "numpy"
REFERENCE_IMPORT_S = 0.085

_ROWS = tuple(f"    row_{i} = load(value={i * 7 % 13}, name='alpha_{i}')  # note {i}"
              if i % 3 else f"    for key in isinstance(x, int) and eval(y{i}):"
              for i in range(80))
_PATTERNS = (re.compile(r"(?<![\w.])(?:eval|exec)\s*\("), re.compile(r"shell\s*=\s*True\b"),
             re.compile(r"(?<![\w.])isinstance\s*\("))


def tick() -> int:
    """One fixed unit of interpreter work; about half a millisecond."""
    table: dict[str, int] = {}
    s = 0
    for row in _ROWS:
        stripped = row.strip()
        head, _, rest = stripped.partition("=")
        s += len(row) - len(row.lstrip(" ")) + len(rest.split(","))
        s += stripped.startswith("row_1") + ("#" in rest)
        table[head] = s
        for pattern in _PATTERNS:
            s += pattern.search(stripped) is not None
    for i in range(1500):
        s = (s * 31 + i) & 0xFFFF
    return s


def timed_tick() -> float:
    start = time.perf_counter()
    tick()
    return time.perf_counter() - start


class Probe:
    """Runs `tick()` every `PERIOD_S` of wall time while the block runs.

    `spent` is the time the ticks took, to be taken off the block's time;
    `mean()` is the mean tick, the host's speed over the block.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        took = timed_tick()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean(self) -> float:
        """Mean tick; a block too short for five ticks is topped up right after."""
        samples = self.samples + [timed_tick() for _ in range(5 - len(self.samples))]
        return sum(samples) / len(samples)


def corrected(seconds: float, measured: float, reference: float = REFERENCE_TICK_S) -> float:
    """`seconds` measured while the reference work took `measured`, at the
    speed where it takes `reference`."""
    return seconds * reference / measured
