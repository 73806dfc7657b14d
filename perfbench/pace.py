"""The host's pace while a command runs, to scale its wall time by.

On a shared host the cores slow down in stretches of a few seconds, by up
to half, and how much of a minute is slow changes from one minute to the
next.  A command's wall time follows, so runs made minutes apart disagree
by more than a regression bound.

A `Pacer` runs a fixed slice of work every `INTERVAL_S` of wall time while
a command runs, and once before and once after it.  The slice is the
benchmark's own code, never the program's, in three parts of about equal
time, one for each kind of arithmetic towerlim does: a Python integer
convolution (the wide and exact ring multiplies), a small numpy one read
back into Python ints (the numpy-window multiplies), and a vectorized
digit decode of a few thousand field elements (the field codec).  A slow
stretch slows the three kinds by different amounts, so the blend tracks
every workload, if none exactly.  The mean slice time is the pace of the
host over the command.  The command's wall time less the slices, times
`PACE_REF_S` over that pace, is the wall time at the reference pace: a
change to the program moves it, a slow stretch of the host does not.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
# The reference pace: about one slice on a calm 2.1 GHz Xeon vCPU.
PACE_REF_S = 0.002

_MOD = 7**9
_A = [(i * 7919) % _MOD for i in range(24)]
_B = [(i * 104729) % _MOD for i in range(24)]
_V = np.arange(1, 121, dtype=np.int64) % 1000
_WEIGHTS = np.array([7**i for i in range(7)], dtype=np.int64)
_ENCS = (np.arange(4096, dtype=np.int64) * 104729) % 7**7


def work_slice() -> None:
    """A fixed piece of work of about `PACE_REF_S` on a calm host."""
    a = _A
    for _ in range(12):
        buf = [0] * 47
        for i, ai in enumerate(a):
            for j, bj in enumerate(_B):
                buf[i + j] += ai * bj
        a = [x % _MOD for x in buf[:24]]
    for _ in range(17):
        conv = np.convolve(_V, _V)
        [int(x) % 59049 for x in conv[:120]]
    digits = (_ENCS[:, None] // _WEIGHTS[None, :]) % 7
    ((digits + digits) % 7) @ _WEIGHTS


class Pacer:
    """Times work slices around and during one command.

    Between `start` and `stop`, SIGALRM runs a slice every INTERVAL_S;
    `inside_s` is the time those slices took, to take off the command's
    wall time.
    """

    def __init__(self):
        self.slices: list[float] = []
        self.inside_s = 0.0
        self._previous = None

    def _slice(self) -> float:
        t0 = time.perf_counter()
        work_slice()
        took = time.perf_counter() - t0
        self.slices.append(took)
        return took

    def _on_alarm(self, *_) -> None:
        self.inside_s += self._slice()

    def start(self) -> None:
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice()

    def pace_s(self) -> float:
        """Mean seconds per slice."""
        return sum(self.slices) / len(self.slices)


def warm_up() -> None:
    """Run a few slices untimed, so the first timed one is not a cold one."""
    for _ in range(5):
        work_slice()
