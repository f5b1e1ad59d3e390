"""A fixed reference workload that tells how fast the host runs right now.

On a host whose cores are shared with other machines, the same command
runs up to 1.8 times slower for seconds to minutes at a time, and the slow
spells can cover whole runs. Probes timed around a command run at about
the pace the command ran at, so the command's time divided by theirs
changes much less with the host's pace than the command's time does. The probe runs no cvgfa code: a change to cvgfa
leaves it alone.

The probe mixes what the commands spend their time on: an interpreter loop
over a dict, a JSON parse into many small Python objects, numpy products
and a sort, a pass over arrays larger than the cache, and freshly allocated
memory. Without the last two, the probe missed the slow phases of the
`fit-wide` fit, whose arrays are tens of MB.
"""

import json
import time

import numpy as np

# The probe's time, in seconds, in a fast spell of the 2-vCPU Xeon host the
# benchmark was written on. A command's time is reported as
# elapsed * REFERENCE_S / probe, that is, in seconds at that pace.
REFERENCE_S = 0.085


class Pace:
    """The probe's fixed inputs, and the probe."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.blob = json.dumps(rng.standard_normal((200, 1000)).tolist())
        self.matrix = rng.standard_normal((1000, 1000))
        self.vector = rng.standard_normal(3_000_000)
        self.out = np.empty_like(self.vector)
        self.probe()  # the first call pays for page faults the others do not

    def probe(self):
        """Runs the probe once; returns its wall time in seconds."""
        start = time.perf_counter()
        counts = {}
        for i in range(60_000):
            counts[i % 977] = counts.get(i % 977, 0.0) + i * 0.5
        json.loads(self.blob)
        self.matrix @ self.matrix[:, :100]
        np.sort(self.vector[:300_000])
        np.multiply(self.vector, 2.0, out=self.out)
        np.add(self.out, self.vector, out=self.out).sum()
        fresh = np.ones(2_000_000)
        fresh += 1.0
        return time.perf_counter() - start
