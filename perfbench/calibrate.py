"""A fixed unit of host work, read throughout a pass to track host speed.

On a shared cloud VM the host's speed switches between regimes about 1.6x
apart that last a few seconds, and drifts over minutes, which moves every
wall time by about the same share.
`unit()` is fixed work of the kind the package does, written here and
sharing no code with it: Gauss-Jordan elimination over `Fraction` on a
fixed matrix, and integer dot products over tuples as in the reference
enumeration.  A change to the package cannot make it faster or slower;
only the host can.

`Meter` reads the unit's time every EVERY_S of wall time, from a SIGALRM
handler, so the readings also fall inside long calls into the package.
Each stretch of work between two readings is scaled by REF_UNIT_S over
the mean of those two readings: the sum is the time the work would take
on a host that runs one unit in REF_UNIT_S.
"""

import signal
import time
from fractions import Fraction

# about one unit's median time on a 2-core Xeon VM under Python 3.11.7 in
# its slower regime; it only sets the scale of the reported times
REF_UNIT_S = 0.0135

_N = 9
_MATRIX = [[Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i + j) % 4) for j in range(_N + 1)]
           for i in range(_N)]
_ROWS = [tuple((5 * i + 3 * j) % 7 - 3 for j in range(8)) for i in range(40)]
_POINTS = [tuple(i // 3 ** k % 3 - 1 for k in range(8)) for i in range(0, 3 ** 8, 5)]


def _eliminate():
    m = [row[:] for row in _MATRIX]
    r = 0
    for col in range(_N):
        piv = next((i for i in range(r, _N) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(_N):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return m


def _enumerate():
    hits = 0
    for x in _POINTS:
        if all(sum(a * v for a, v in zip(row, x)) <= row[-1] for row in _ROWS):
            hits += 1
    return hits


def unit():
    _eliminate()
    _eliminate()
    _enumerate()


class Meter:
    """Wall time of a stretch of work, and that time at reference host speed.

    Between start() and stop() a SIGALRM handler takes a reading every
    EVERY_S: the median time of UNITS calibration units.  The handler's
    own time is left out of both totals and added to `held`.  One process,
    no threads.
    """

    EVERY_S = 0.2
    UNITS = 3

    def __init__(self):
        self.units = []  # every reading, in seconds
        self.held = 0.0  # seconds spent in readings, over the meter's life
        self.running = False

    def _read(self):
        times = []
        for _ in range(self.UNITS):
            start = time.perf_counter()
            unit()
            times.append(time.perf_counter() - start)
        times.sort()
        self.units.append(times[len(times) // 2])
        return self.units[-1]

    def _cut(self):
        cut = time.perf_counter()
        work = cut - self._since
        reading = self._read()
        self.wall += work
        self.scaled += work * REF_UNIT_S * 2 / (self._last + reading)
        self._last = reading
        self._since = time.perf_counter()
        self.held += self._since - cut

    def _on_alarm(self, *_):
        if self.running:
            self._cut()
            signal.setitimer(signal.ITIMER_REAL, self.EVERY_S)

    def start(self):
        self.wall = self.scaled = 0.0
        self._last = self._read()
        self.running = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._since = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S)

    def stop(self):
        """(wall seconds, seconds at reference speed) since start()."""
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._cut()
        return self.wall, self.scaled
