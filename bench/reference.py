"""A fixed reference computation that measures the host's own speed.

The shared machine the benchmark was tuned on changes speed by itself, by
up to 60% over minutes and by 25% within a second: the same operation took
0.89 s in one 15-s run and 1.45 s a minute later, though the process
never waited for the processor.  No wall-clock median over a run is
steady under that.

So every timed loop interleaves this computation with its operations.
After each operation it runs reference chunks until they have taken
``share`` of the operation's wall time, so the two sample the same moments
of the machine.  The run's speed factor is the chunks' measured time over
their nominal time, and every time the run reports is divided by it.
Reported times are therefore in reference seconds: what the operation
would take with the machine running the chunk in ``NOMINAL_S``.  A change
to the program moves them in full; a change of the machine's speed
between runs cancels.

The chunk mixes the kinds of work the workloads do: interpreted Python
arithmetic and dictionary stores, numpy calls on 4-vectors, and small
LAPACK calls.  It does not touch the package.
"""

from time import perf_counter

import numpy as np

# Median time of one chunk on the tuning machine (nproc 2, Python 3.11.7,
# numpy 2.4.6) in its fast phases.  It only fixes the unit.
NOMINAL_S = 3.0e-3

_M = np.random.default_rng(0).normal(size=(4, 4))
_EYE = np.eye(4)


def chunk() -> float:
    """Fixed work, 3 ms in the tuning machine's fast phases."""
    s, d = 0.0, {}
    for i in range(3000):
        s += (i * 0.5) % 7.0
        d[i & 63] = s
    a = np.arange(4.0)
    for _ in range(300):
        a = _M @ a * 0.1 + 1e-3
        s += float(np.max(np.abs(a)))
    for i in range(40):
        s += float(np.abs(np.linalg.eigvals(_M + i)).max())
        s += float(np.linalg.solve(_M + i * _EYE, _M)[0, 0])
    return s


class Gauge:
    """Reference chunks run between operations, totalled over a run."""

    def __init__(self, share: float):
        self.share = share
        self.owed = 0.0
        self.seconds = 0.0
        self.chunks = 0

    def pay(self, op_seconds: float) -> None:
        """Run chunks until they have taken ``share`` of ``op_seconds``."""
        self.owed += self.share * op_seconds
        while self.owed > 0.0:
            start = perf_counter()
            chunk()
            took = perf_counter() - start
            self.owed -= took
            self.seconds += took
            self.chunks += 1

    def factor(self) -> float:
        """Measured over nominal time of the chunks run so far."""
        return self.seconds / (self.chunks * NOMINAL_S)
