"""Machine-speed probes: scale factors that bring wall times to a nominal speed.

The measuring host's speed swings by up to half within a minute, in
stretches of a second or more.  So every time is scaled to a nominal
machine speed.  While work is timed, an interval timer runs a short fixed
probe loop every PROBE_EVERY_S; the work between two marks is scaled by
PROBE_NOMINAL_S over the mean probe time in between.  Over 45 mid-grid
UAV builds in one process (raw times 4.1 to 7.4 s), the coefficient of
variation was 0.13 raw and 0.06 scaled.  The raw times are printed as
well.
"""

import signal
import statistics
import time

PROBE_ITERS = 600
PROBE_EVERY_S = 0.05
PROBE_NOMINAL_S = 0.0003  # the probe loop in a fast stretch of a 2-CPU Xeon KVM guest


def probe_loop() -> float:
    """Fixed interpreter work: tuple keys, dict updates, float arithmetic."""
    acc = 0.0
    table = {}
    for i in range(PROBE_ITERS):
        key = (i & 255, i % 7)
        v = table.get(key, 0.0)
        table[key] = min(v + 1.5, acc) if i & 1 else v + i * 0.5
        acc += len(key)
    return acc


class Speed:
    """Scale factors that bring wall times to the nominal speed.

    From construction to stop(), SIGALRM runs probe_loop every
    PROBE_EVERY_S and records its duration.  An interval with no probe
    (shorter than the period) takes the last interval's mean.
    """

    def __init__(self):
        self.probes = []
        self.first = 0
        self.mean = PROBE_NOMINAL_S
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _probe(self, signum, frame):
        t = time.perf_counter()
        probe_loop()
        self.probes.append(time.perf_counter() - t)

    def probe_now(self, n):
        """Run n probes back to back, as the timer would."""
        for _ in range(n):
            self._probe(signal.SIGALRM, None)

    def mark(self):
        """Start an interval of work to be scaled."""
        self.first = len(self.probes)

    def scale(self) -> float:
        """End the interval; its factor.  The next interval starts here."""
        probes = self.probes[self.first:]
        self.first = len(self.probes)
        if probes:
            self.mean = statistics.fmean(probes)
        return PROBE_NOMINAL_S / self.mean

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
