"""Host-speed calibration: a fixed kernel timed between the benchmark's repeats.

On a shared few-vCPU host the speed the benchmark gets changes by up to
1.8x within seconds, so two runs of the same code can differ by more
than any useful bound.  The kernel below does a fixed amount of the three
kinds of work the program does (many small numpy calls, large-array
numpy draws and arithmetic, plain interpreter arithmetic), is timed once
after every repeat of the workload, and the median over a run gives the
host's speed just then.  A workload that runs on several processes is
calibrated with the kernel running in as many processes at once, since
whether the host runs all of a VM's vCPUs together is what its time
depends on most.  Times are reported at the reference speed, as the median
over a run of each time over the kernel time that follows it:

    reported = median(time_i / kernel_i) * REFERENCE_S

A slower program still reads slower by the same share; only the host's
speed is divided out.  The kernel uses numpy and the standard library,
never the ``rhkljn`` package, so a change to the program cannot move it.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import statistics
import time

import numpy as np

# The kernel's median time on an uncontended core of the 2-vCPU VM the
# benchmark was written on; it only sets the scale of reported times.
REFERENCE_S = 0.030


def kernel_s() -> float:
    """Seconds one pass of the calibration kernel takes now."""
    rng = np.random.default_rng(7)
    nominal = np.array([1.0, 2.0, 3.0, 4.0])
    started = time.perf_counter()
    acc = 0.0
    for _ in range(1500):
        a, b, c, d = (float(r) for r in nominal * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, 4)))
        acc += math.sqrt(a * b) / (c + d)
    for _ in range(3):
        x = rng.standard_normal((200, 10, 20))
        y = rng.standard_normal((200, 10, 20))
        acc += float((0.3 * x + 0.7 * y).mean(axis=2).sum()) + float(rng.integers(0, 2, (200, 10)).sum())
    for i in range(40_000):
        acc += i * 0.5
    elapsed = time.perf_counter() - started
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite result")
    return elapsed


def _helper(conn) -> None:
    """Run one kernel pass per message received, until told to stop."""
    while conn.recv():
        conn.send(kernel_s())
    conn.close()


class Calibrator:
    """The kernel timed in ``processes`` processes at once: this one and forked helpers.

    Use it as a context manager; leaving the block stops and waits for every helper.
    """

    def __init__(self, processes: int = 1):
        ctx = multiprocessing.get_context("fork")
        self._helpers = []
        try:
            for _ in range(processes - 1):
                ours, theirs = ctx.Pipe()
                proc = ctx.Process(target=_helper, args=(theirs,), daemon=True)
                proc.start()
                theirs.close()
                self._helpers.append((proc, ours))
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        """Mean seconds of the concurrent kernel passes."""
        for _, conn in self._helpers:
            conn.send(True)
        return statistics.fmean([kernel_s()] + [conn.recv() for _, conn in self._helpers])

    def close(self) -> None:
        for proc, conn in self._helpers:
            with contextlib.suppress(OSError):
                conn.send(False)
            conn.close()
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._helpers = []

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def at_reference(times: list[float], kernel_times: list[float]) -> float:
    """Median of ``times`` at the reference speed, each divided by the kernel time taken after it."""
    return statistics.median(t / k for t, k in zip(times, kernel_times, strict=True)) * REFERENCE_S


def speed_factor(kernel_times: list[float]) -> float:
    """How much slower than the reference the host ran: median kernel time over REFERENCE_S."""
    return statistics.median(kernel_times) / REFERENCE_S
