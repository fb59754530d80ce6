"""Reference clock: wall time rescaled to the host's uncontended speed.

The benchmark's host is shared.  Its speed for pure-Python work flips
between two levels about 1.9x apart, for seconds to minutes at a time.
A fixed kernel that shares no code with polaris is timed right after
every check call.  A duration measured at some moment is multiplied by
REF_KERNEL_S over the median kernel time of the calls around it.  The
result is in reference seconds: seconds at the speed at which the kernel
takes REF_KERNEL_S.  A slower or faster host scales the call and the
kernel alike and cancels; a change to polaris moves only the call.
"""

from __future__ import annotations

import gc
import statistics
import time

WINDOW = 2   # kernel samples on each side of a call used to scale it
REF_KERNEL_S = 0.0006   # kernel time on a 2-vCPU Intel Xeon host, core not shared


class _Table:
    """GF(4)-sized lookup tables, used the way polaris's Field uses them."""

    __slots__ = ("q", "add", "neg", "exp", "log")

    def __init__(self):
        self.q = 4
        self.add = tuple(a ^ b for a in range(4) for b in range(4))
        self.neg = (0, 1, 2, 3)
        self.exp = (1, 2, 3, 1, 2, 3)
        self.log = (-1, 0, 1, 2)

    def sub(self, a, b):
        return self.add[a * self.q + self.neg[b]]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]


_T = _Table()
_ROW = (1, 2, 3, 0, 1, 2, 3)
_LINES = tuple(sum(1 << ((7 * i + 11 * j) % 61) for j in range(3)) for i in range(60))


def kernel() -> int:
    """Fixed work in the style of polaris's inner loops: row reductions
    through table-lookup methods, and line saturation of an int bitset."""
    acc = 0
    for r in range(50):
        w = [(r + i) & 3 for i in range(7)]
        for _ in range(6):
            c = w[0] or 1
            w = [_T.sub(x, _T.mul(y, c)) for x, y in zip(w, _ROW)]
        acc ^= sum(w)
    for r in range(15):
        bits = (1 << r) | (1 << (r + 17))
        changed = True
        while changed:
            changed = False
            for lb in _LINES:
                inter = lb & bits
                if inter and inter != lb and inter & (inter - 1):
                    bits |= lb
                    changed = True
        acc ^= bits.bit_count()
    return acc


def time_kernel() -> float:
    """Seconds for one kernel run, with the cyclic collector held off so
    that garbage left by the previous call is not charged to the kernel."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def to_ref(seconds, kernel_times, at, window: int = WINDOW) -> list:
    """Each duration in reference seconds.  `at[k]` is the index of the
    kernel sample taken nearest to duration k."""
    n = len(kernel_times)
    out = []
    for value, i in zip(seconds, at):
        local = statistics.median(kernel_times[max(0, i - window):min(n, i + window + 1)])
        out.append(value * REF_KERNEL_S / local)
    return out
