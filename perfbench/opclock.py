"""Per-operation CPU times of one round, calibrated against a reference kernel.

Every round of a run performs the same named operations in the same order
(each EM iteration, each CLI command, each batch of images).

Times are the CPU time of the whole process (`time.process_time`: every
thread, user and system), not wall time.  The library is single-threaded
under the benchmark's thread caps, so on an idle machine the two agree;
wall time also counts the moments in which the host runs other work on
our cores.

CPU time alone still moves with the speed of the host: on a shared machine
the same operation takes up to 1.8 times as long for stretches of seconds
to minutes, and in step with it so does any other code (see README,
"Noise").  So after every operation the clock runs a fixed reference kernel
(`reference`) and records its CPU time next to the operation's.  An
operation's *calibrated* time is its CPU time times `REF_SECONDS` over the
mean of the reference times just before and just after it: the time it
would take on a host where the kernel takes `REF_SECONDS`.  The reference
runs outside every operation's interval, so it never counts in a metric.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

# the clock of every operation and span; see the module docstring
now = time.process_time

# CPU time of one `_kernel()` run on the reference machine (2-core Xeon
# guest, numpy 2.4 with OpenBLAS, one thread) in typical conditions of its shared host.
REF_SECONDS = 0.0007

_rng = np.random.default_rng(20010613)
_A = _rng.standard_normal((100, 121))
_IDX = _rng.permutation(121)
_V = _rng.standard_normal(100)


def _kernel() -> float:
    """A fixed kernel shaped like the library's inner loops: gathers, masks,
    squares and mat-vecs on (100, 121) arrays.  Returns its CPU time.

    Of the kernels tried (this one, an interpreter-bound Python loop, small
    BLAS products, and a mix of the three), this one's time followed the
    host's speed most closely for the library's hot paths (TCA likelihoods,
    the THMM forward pass and the M-step statistics): over 200 s their
    times moved 0.9 to 1.15 times as much as its time did, in log terms,
    against 1.16 to 1.49 times for the mix."""
    start = now()
    s = np.zeros(121)
    mask = _IDX < 100
    for _ in range(20):
        s += _V @ np.where(mask, _A[:, _IDX], 0.0) ** 2
    return now() - start


def reference() -> float:
    """CPU time of the reference: the median of three runs of `_kernel`,
    so that a cold cache or an interrupt in one run does not count."""
    return statistics.median(_kernel() for _ in range(3))


class OpClock:
    """Records (phase, name, cpu seconds, reference seconds) per operation.

    With `calibrate=False` no reference runs and the reference time is
    recorded as None (traced rounds, whose spans must hold library work
    only)."""

    def __init__(self, calibrate: bool = True):
        self.phase = None
        self.calibrate = calibrate
        self.records: list[tuple[str, str, float, float | None]] = []
        self._ref = reference() if calibrate else None

    def add(self, name: str, seconds: float, phase: str | None = None) -> None:
        """Record an operation that has just ended, then run the reference."""
        ref = None
        if self.calibrate:
            after = reference()
            ref, self._ref = (self._ref + after) / 2, after
        self.records.append((phase or self.phase, name, seconds, ref))

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = now()
        try:
            yield
        finally:
            self.add(name, now() - start)

    def fit(self, label: str, fit, *args, **kwargs):
        """Run an EM `fit`, one operation per iteration (ended by its
        callback) plus the return after the last one."""
        ops = Sequence(self, label)
        result = fit(*args, callback=lambda _: ops.next(), **kwargs)
        ops.next()
        return result

    def total(self, phase: str) -> float:
        """Uncalibrated CPU time of the phase."""
        return sum(r[2] for r in self.records if r[0] == phase)


class Sequence:
    """Consecutive operations `label.1`, `label.2`, ...: each call of `next`
    ends one and starts the next after the reference has run."""

    def __init__(self, clock: OpClock, label: str):
        self.clock, self.label, self.count = clock, label, 0
        self.start = now()

    def next(self) -> None:
        self.count += 1
        self.clock.add(f"{self.label}.{self.count}", now() - self.start)
        self.start = now()


def calibrated(seconds: float, ref: float) -> float:
    return seconds * REF_SECONDS / ref


def median_sum(records_per_round, phase: str) -> float:
    """Sum over the phase's operations of each one's median calibrated time
    across rounds."""
    per_op: dict[str, list[float]] = {}
    for records in records_per_round:
        for p, name, seconds, ref in records:
            if p == phase:
                per_op.setdefault(name, []).append(calibrated(seconds, ref))
    return sum(statistics.median(v) for v in per_op.values())
