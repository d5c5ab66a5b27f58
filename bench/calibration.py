"""Host-speed calibration: every latency is reported in reference-host time.

The benchmark shares its host with other tenants. On the reference host
(a 2-vCPU VM) they slow this process by up to 1.9x, in stretches that last
from seconds to many minutes, so two runs of the same code can differ by
far more than any bound a regression check could use. Process CPU time
slows just as much, so it is no way out.

So the runner times fixed work next to the requests and multiplies each
latency by the fixed work's time on an idle reference host over its time
now. The result reads as milliseconds on the reference host with nothing
else running. The fixed work is independent of ontogen and is of the same
kind as the request it calibrates:

- `LoopCalibration`, for library calls: a piece of pure-Python work in
  this process that mixes what the engine spends its time on: dict and
  tuple churn, string building and a regex scan.
- `ProcessCalibration`, for set-up probes and CLI processes: a reference
  process (``child.py reference``) that starts an interpreter, imports the
  standard modules ontogen uses and does some of the same pure-Python work.
  The in-process loop does not track process times: a fresh process is
  slowed by other tenants in its own way, and on the reference host its
  time moved by about 0.7 times as much as the loop's.

A timed call's factor comes from the median of the fixed work's timings on
both sides of it, so the host's drift over seconds is followed while one
noisy timing counts for little. Both hand out a token per timed call and
turn it into a factor once finish() has timed the last ones.
"""

from __future__ import annotations

import re
import statistics

from tracer import perf_ns

MAX_AGE_NS = 200_000_000  # re-time the loop at most every 0.2 s
REPEATS = 3  # best of three, so one preemption does not count

_NAME = re.compile(r"\bK1\d-")


def work() -> int:
    table = {}
    for i in range(3000):
        key = f"K{i % 97}-{i}"
        table[key] = (i, key.lower(), [i, i + 1])
    total = 0
    for _key, (_i, low, pair) in table.items():
        total += len(low) + pair[1]
    return total + len(_NAME.findall(" ".join(table)))


def time_work() -> int:
    start = perf_ns()
    work()
    return perf_ns() - start


class Calibration:
    """Timings of fixed work taken next to the timed calls. A call's factor
    is `reference_ns` (the work's time on the idle reference host) over the
    median of the `half_window` timings before the call and the
    `half_window` after it."""

    reference_ns: float
    half_window: int

    def __init__(self):
        self.samples: list[int] = []  # every timing of the fixed work, in ns

    def _due(self) -> bool:
        raise NotImplementedError

    def _time(self) -> int:
        raise NotImplementedError

    def around(self, run):
        """Call run(); return its result and a token for factor()."""
        if self._due():
            self.samples.append(self._time())
        return run(), len(self.samples)

    def finish(self) -> None:
        """Time the work after the last call."""
        for _ in range(self.half_window):
            self.samples.append(self._time())

    def factor(self, token: int) -> float:
        """The factor that converts a call's time to reference-host time."""
        window = self.samples[max(0, token - self.half_window):token + self.half_window]
        return self.reference_ns / statistics.median(window)


class LoopCalibration(Calibration):
    """The pure-Python loop, best of REPEATS, timed before a call when the
    last timing is older than MAX_AGE_NS."""

    reference_ns = 4.0e6
    half_window = 4

    def __init__(self):
        super().__init__()
        self._at = None

    def _due(self) -> bool:
        return self._at is None or perf_ns() - self._at > MAX_AGE_NS

    def _time(self) -> int:
        best = min(time_work() for _ in range(REPEATS))
        self._at = perf_ns()
        return best


class ProcessCalibration(Calibration):
    """A reference process, spawned and timed by `time_reference`, before
    every `every`-th call. One process's time is noisy, and it does not
    follow the previous one's, but the host drifts over seconds."""

    reference_ns = 110e6
    half_window = 2

    def __init__(self, time_reference, every: int):
        super().__init__()
        self._time_reference = time_reference
        self._every = every
        self._calls = 0

    def _due(self) -> bool:
        self._calls += 1
        return (self._calls - 1) % self._every == 0

    def _time(self) -> int:
        return self._time_reference()
