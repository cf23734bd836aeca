"""Machine speed probe, to take a shared machine's slow spells out of timings.

On a machine shared with other tenants the same computation can take
1.5 times longer for stretches of seconds to minutes, and a whole run of
the benchmark can fall into one.  A fixed probe, timed before the first
task of a round and after every task, slows down with it.  The benchmark
reports each time scaled to the speed at which one probe takes
``REFERENCE_S``::

    reported = measured * REFERENCE_S / median(probes of the same round)

Over five seeds on regime1-cells this took the spread (IQR over median)
of wall_s from 8.3 % to 2.2 % and of setup_s from 10.7 % to 1.9 %; on
cli-fixtures, wall_s from 5.2 % to 1.8 %.

The probe mixes, in about equal shares of time, the numpy kernels of the
element matvec (small matrix products, a batched 6x6 einsum, a
scatter-add) and interpreter work (compiling and running small
functions, dict updates).  A dense Cholesky part was tried and dropped:
it slows down more than any workload does, so scaling by it made
cli-fixtures less steady, not more.  The program does not run it and a change to the program
cannot speed it up, so a gain in the program shows in full.  The
unscaled figures are printed on the comment line before the result.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the 2-core Xeon KVM guest the reference figures come from.
REFERENCE_S = 0.05


class Probe:
    def __init__(self):
        ncells = 2000
        rng = np.random.default_rng(0)
        self.u = rng.standard_normal((ncells, 24))
        self.b = rng.standard_normal((8, 6, 24))
        self.c = rng.standard_normal((ncells, 6, 6))
        self.idx = rng.integers(0, ncells, (ncells, 8))
        self.source = "\n".join(f"def f{i}(x):\n    return [x * k for k in range({i})]"
                                for i in range(40))

    def seconds(self) -> float:
        """Time one probe: element kernels, then interpreter work."""
        t0 = time.perf_counter()
        for _ in range(8):
            y = np.zeros_like(self.u)
            for q in range(8):
                s = np.einsum("cij,cj->ci", self.c, self.u @ self.b[q].T)
                y += s @ self.b[q]
            z = np.zeros((len(self.u), 3))
            np.add.at(z, self.idx, y.reshape(-1, 8, 3))
        for _ in range(12):
            exec(compile(self.source, "<probe>", "exec"), {})
            counts = {}
            for i in range(6000):
                counts[i % 97] = counts.get(i % 97, 0) + i
        return time.perf_counter() - t0
