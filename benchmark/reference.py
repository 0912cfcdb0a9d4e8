"""Fixed reference work, timed between passes to track the machine's speed.

It imports the same third-party libraries as cyclepow and does the same kinds
of work (fraction-free integer elimination, multiprecision cosines, small
numpy draws) on fixed inputs, but uses no cyclepow code, so a change to the
program never changes its cost.  Its run time only follows the machine.
"""

import random

import click  # noqa: F401
import numpy as np
from mpmath import mp

rng = random.Random(20260517)
n = 64
rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
previous = 1
for col in range(n - 1):
    pivot = rows[col][col] or 1
    base = rows[col]
    for r in range(col + 1, n):
        row = rows[r]
        lead = row[col]
        for c in range(col + 1, n):
            row[c] = (pivot * row[c] - lead * base[c]) // previous
        row[col] = 0
    previous = pivot

with mp.workprec(288):
    total = sum(mp.cospi(mp.mpf(2 * m) / 1500) for m in range(1500))

generator = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
draws = int(generator.integers(0, 6, size=4096).sum())
