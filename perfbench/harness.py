"""Timing, failure accounting and set-up helpers shared by the workloads."""

from __future__ import annotations

import importlib
import math
import os
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Tally:
    """Attempted and failed operations of one run.

    An operation fails when it raises, when numpy records a RuntimeWarning
    while it runs, or when one of its correctness checks fails.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def attempt(self, label: str, fn: Callable[[], object], check: Callable[[object], list[str]]):
        """Run ``fn`` once, timed; return ``(result, seconds)``.

        ``check`` receives the result and returns the failed checks as
        messages.  On any failure the result is None.  Only ``fn`` is timed.
        """
        self.attempted += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            start = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # every raised error is a failed operation
                self.fail(f"{label}: raised {exc!r}")
                return None, time.perf_counter() - start
            elapsed = time.perf_counter() - start
        problems = [f"RuntimeWarning: {w.message}" for w in caught if issubclass(w.category, RuntimeWarning)]
        try:
            problems += check(out)
        except Exception as exc:  # a check that cannot run is a failed check
            problems.append(f"check raised {exc!r}")
        if problems:
            self.fail(f"{label}: " + "; ".join(problems))
            return None, elapsed
        return out, elapsed

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def no_check(_out) -> list[str]:
    return []


def median(samples: list[float]) -> float:
    return float(statistics.median(samples))


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return p, float(cuts[p - 1])
    return None


def describe(samples: list[float], ratios: list[float]) -> str:
    """Median, a tail percentile where supported, n, and the reference-speed median."""
    text = f"median={median(samples):.6g}s"
    t = tail(samples)
    if t is not None:
        text += f" p{t[0]}={t[1]:.6g}s"
    return text + f" (n={len(samples)}), {median(ratios) * CALIBRATION_REF_S:.6g}s at reference speed"


# The calibration kernel's time on the reference machine (a shared 2-core
# x86-64 box, quiet state).  On such a box the speed of identical work flips
# between states up to 2x apart for seconds at a time, so raw medians vary
# by tens of percent from run to run.  Each timed operation is bracketed by
# two runs of the kernel, and end-to-end times are reported as
# time / kernel time * CALIBRATION_REF_S: seconds at the reference speed.
CALIBRATION_REF_S = 6e-4


def _kernel() -> float:
    f = lambda x, y: x * y + math.sin(x)  # noqa: E731
    acc = 0.0
    for i in range(5000):
        acc += f(i * 1e-4, 0.5)
    return acc


def calibration_s() -> float:
    """Fastest of three runs of a fixed kernel with the call and float mix of
    the density loops (closure calls, multiplies, ``math.sin``)."""
    return best_of(3, _kernel)


def best_of(k: int, fn: Callable[[], object]) -> float:
    """Fastest of ``k`` timed calls."""
    best = math.inf
    for _ in range(k):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(measure: Callable[[], float]) -> float:
    """Seconds returned by ``measure``, scaled by calibration kernels timed
    just before and after it to seconds at the reference speed."""
    before = calibration_s()
    seconds = measure()
    after = calibration_s()
    return seconds / (0.5 * (before + after)) * CALIBRATION_REF_S


def fresh_import():
    """Import ``tsvar`` from scratch (numpy stays loaded) and return it."""
    for name in [m for m in sys.modules if m == "tsvar" or m.startswith("tsvar.")]:
        del sys.modules[name]
    return importlib.import_module("tsvar")


def subprocess_env(root) -> dict[str, str]:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def pin_to_current_cpu() -> None:
    """Keep this process, and the subprocesses it starts, on the CPU it runs on.

    A ``cli-mix`` command then runs on the core where the calibration kernel
    around it ran; unpinned, its time varied about twice as much.
    """
    stat = Path("/proc/self/stat").read_text()
    cpu = int(stat.rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def until(seconds: float, min_rounds: int, body: Callable[[], None]) -> int:
    """Call ``body`` until ``seconds`` have passed and ``min_rounds`` ran."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        body()
        rounds += 1
    return rounds
