"""Machine-speed calibration of the timed loop.

The benchmark shares its machine with other work.  On the 2-vCPU machine
it was defined on, the same code ran anywhere from as fast to twice as
slow as its best, changing over seconds to minutes, on both vCPUs at once.
A run therefore times, next to its items, a fixed reference computation
that does not touch nevkit, sampled between items for a fixed share of the
timed wall, so that its samples cover the same seconds as the items.

Each reference is the kind of work of the items it calibrates, because
a slow phase slows the interpreter, numpy and process start-up by
different amounts:

- ``interp`` (``product``, ``chain``): big-integer, ``Fraction``, list and
  dict work, as nevkit's exact layers and sympy do;
- ``numpy`` (``oracle``): small Hermitian kernels with their eigenvalues
  and a Python scan over numpy values, as the oracles do;
- ``imports`` (``cli``): a fresh interpreter that imports numpy and sympy,
  which is most of the time of a ``cli`` child.  The ``interp`` reference
  moved by about twice as much as the children did, and an interpreter
  that only starts tracked them less closely.

An item's slowdown is the median of the reference samples nearest to it in
time (``NEAREST`` of them) over ``ref_ms``, the median duration of one
sample in the timed loops of the runs that defined the benchmark.  The
calibrated time of an item is its measured time divided by its slowdown:
its time at the speed of those runs.  A change to nevkit cannot move the
references, so it moves the calibrated times as it moves the measured
ones.  The set-up time is not calibrated.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

NEAREST = 15            # reference samples that calibrate one item
_NS = time.perf_counter_ns


def reference() -> int:
    """A fixed mix of interpreter, allocation and big-number work."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i * 7919 % 1013, i + 3)
        table[i] = [i * j for j in range(8)]
    big = pow(3, 2000, 10 ** 300 + 7)
    rows = sorted(table.items(), key=lambda kv: -kv[0])
    return acc.numerator % 97 + big % 89 + len(rows)


def numpy_reference() -> int:
    """The two kinds of work of the oracles: five 40-point Hermitian kernels
    and their eigenvalues, as one ``negative_squares`` call computes them,
    and a scan for peaks over the numpy values of a boundary-value grid, as
    ``stieltjes_invert`` makes at each level."""
    import numpy as np
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(5):
        z = rng.uniform(-10.0, 10.0, 40) + 1j * 10.0 ** rng.uniform(-3, 0, 40)
        v = (z - 0.5) / (z * z + 2.0)
        g = (v[:, None] - np.conj(v)[None, :]) / (z[:, None]
                                                  - np.conj(z)[None, :])
        found += int(np.sum(np.linalg.eigvalsh((g + g.conj().T) / 2) < 0))
    xs = np.linspace(-1.0, 1.0, 2048)
    g = np.abs(np.imag(1.0 / (xs + 1e-3j - 0.3) + 2.0 / (xs + 1e-3j + 0.6)))
    scale = 20 * float(np.median(g))
    for i in range(1, len(xs) - 1):
        if g[i] >= g[i - 1] and g[i] >= g[i + 1] and g[i] > scale:
            found += 1
    return found + int(np.trapezoid(g, xs))


def import_reference():
    """A fresh interpreter that imports numpy and sympy, as the ``cli``
    children do before nevkit's own work."""
    subprocess.run([sys.executable, "-c", "import numpy, sympy"],
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True, timeout=60)


class Calibrator:
    """Reference samples interleaved with the items of a timed loop."""

    def __init__(self, kind: str):
        self.ref, self.ref_ms, self.share = KINDS[kind]
        self.at_ns = []         # midpoint of each sample
        self.samples_ns = []
        self.ref_ns = 0
        self.t0 = _NS()

    def tick(self):
        """Call after each item: samples the reference while it is behind
        its share of the loop's time."""
        busy = _NS() - self.t0 - self.ref_ns
        while self.ref_ns < self.share * busy:
            self.sample()

    def sample(self):
        # the reference frees what it allocates; with the collector off, the
        # objects the workload keeps alive cannot slow it down
        gc.disable()
        try:
            t0 = _NS()
            self.ref()
            ns = _NS() - t0
        finally:
            gc.enable()
        self.at_ns.append(t0 + ns // 2)
        self.samples_ns.append(ns)
        self.ref_ns += ns

    def slowdown_at(self, t_ns: int) -> float:
        """Median of the samples nearest to time ``t_ns``, over ref_ms."""
        n = len(self.at_ns)
        k = min(NEAREST, n)
        lo = min(max(bisect.bisect_left(self.at_ns, t_ns) - k // 2, 0), n - k)
        hi = lo + k
        # slide the window towards the nearer side
        while lo > 0 and t_ns - self.at_ns[lo - 1] < self.at_ns[hi - 1] - t_ns:
            lo, hi = lo - 1, hi - 1
        while hi < n and self.at_ns[hi] - t_ns < t_ns - self.at_ns[lo]:
            lo, hi = lo + 1, hi + 1
        return statistics.median(self.samples_ns[lo:hi]) / 1e6 / self.ref_ms

    def calibrated_ns(self, t0_ns: int, ns: int) -> float:
        """An item's time at the speed of the defining runs."""
        return ns / self.slowdown_at(t0_ns + ns // 2)

    def slowdown(self) -> float:
        """Median slowdown of all samples."""
        return statistics.median(self.samples_ns) / 1e6 / self.ref_ms


# kind -> (reference, median ms of one sample in the timed loops of the
# runs that defined the benchmark, reference time over item time)
KINDS = {"interp": (reference, 2.3, 0.1),
         "numpy": (numpy_reference, 2.3, 0.1),
         "imports": (import_reference, 720.0, 0.2)}
