"""A host-speed probe, so that timings do not move with the host's load.

On a shared host the same code runs up to twice as slow for stretches of
one second to minutes, whatever the code is, and process CPU time stretches
with wall time.  No count of repetitions inside a run's time budget
averages that out.  So while a worker measures, a SIGALRM handler times a
short fixed loop every ``INTERVAL_S`` seconds of real time, on the main
thread, between two bytecodes of the measured code: it sees the core, and
the moment, that the measured code sees.  ``SpeedProbe.scaled`` then gives
how long a stretch of the measured code would have taken at the speed at
which the loop takes ``NOMINAL_S``: each stretch between two samples is
weighted by ``NOMINAL_S`` over the mean of those two samples, and the
probe's own time is left out.

The loop is the benchmark's own code and never calls modcheck, so a change
to the program cannot move it.  Its work is the kind modcheck's hot paths
do: row reduction over F_p on small tuple matrices and hashing canonical
bases into a dict, in pure Python.

    python3 bench/reference.py   # times 40 loops, to re-derive NOMINAL_S
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# A round figure near one loop's time at full speed on the host the baseline
# was measured on (x86_64, 2 vCPUs, Python 3.11.7).  It only sets the scale:
# changing it moves every scaled time by the same factor.
NOMINAL_S = 0.003
INTERVAL_S = 0.1  # one sample per 100 ms costs about 3% of the measured time
STEPS = 80


def _rref(rows, p: int):
    work = [[x % p for x in r] for r in rows]
    work = [r for r in work if any(r)]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(inv * x) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row) for row in work[:r])


def loop(steps: int = STEPS) -> int:
    """One pass of fixed work; returns a checksum so nothing is skipped."""
    rng = random.Random(20061118)
    seen: dict = {}
    for _ in range(steps):
        p = rng.choice((2, 3, 5))
        n = rng.randint(4, 7)
        rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randint(2, 5))]
        basis = _rref(rows, p)
        seen[basis] = seen.get(basis, 0) + len(basis)
    return sum(seen.values()) + len(seen)


class SpeedProbe:
    """Samples the host's speed while the ``with`` block runs.

    ``samples`` holds (start, seconds) of each timed loop, on the
    ``time.perf_counter`` clock.
    """

    def __init__(self):
        self.samples: list = []
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        loop()  # first call pays for lazy set-up inside the interpreter
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scaled(self, start: float, end: float) -> float:
        """Seconds that [start, end) would have taken at nominal speed.

        The probe's own loops inside the interval are left out.  An
        interval with no sample inside takes the nearest sample's speed;
        with no sample at all, one is taken now.
        """
        inside = [(t, d) for t, d in self.samples if start <= t and t + d <= end]
        if not inside:
            if not self.samples:
                self._tick(None, None)
            nearest = min(self.samples, key=lambda s: abs(s[0] - start))
            return (end - start) * NOMINAL_S / nearest[1]
        speed = [NOMINAL_S / d for _, d in inside]
        total = (inside[0][0] - start) * speed[0]
        for i in range(len(inside) - 1):
            gap = inside[i + 1][0] - (inside[i][0] + inside[i][1])
            total += gap * (speed[i] + speed[i + 1]) / 2
        last_t, last_d = inside[-1]
        return total + (end - last_t - last_d) * speed[-1]


if __name__ == "__main__":
    loop()
    times = []
    for _ in range(40):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
        while time.perf_counter() - t0 < INTERVAL_S:  # busy, as under a measured run
            pass
    deciles = statistics.quantiles(times, n=10)
    print(f"loop: lower decile {deciles[0]:.5f} s, median {statistics.median(times):.5f} s, "
          f"NOMINAL_S {NOMINAL_S} s")
