"""A fixed calibration kernel that measures how fast the host runs right now.

The kernel mixes the kinds of work pivotk does (JSON records with BLAKE2b
sort keys, exact rationals, tuples of floats, numpy convolutions, one random
generator per trial) and never calls pivotk, so no change to pivotk can
change its time.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np

# Sets the scale of normalized times: they are wall times at the host speed at
# which the kernel takes this long.  16 ms is about the kernel's fastest time
# on 2 shared vCPUs with CPython 3.11.7 and numpy 2.4.6; run between rounds
# of ops, with cold caches, it takes longer.
REF_S = 0.016

_A = np.arange(1.0, 2002.0)
_B = np.arange(1.0, 4002.0)


def kernel_time() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    records = [{"slot": i % 7, "lane": i, "owner": "cartel" if i % 5 == 0 else "honest"} for i in range(1500)]
    keys = [
        (r["slot"], r["lane"], hashlib.blake2b(repr((0, r["slot"], r["lane"])).encode(), digest_size=8).digest())
        for r in json.loads(json.dumps(records))
    ]
    keys.sort()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    floats = tuple(x * 0.5 for x in range(20000))
    math.fsum(floats)
    sorted(floats, reverse=True)
    for _ in range(5):
        np.convolve(_A, _B)
    for i in range(300):
        np.random.default_rng([1, i]).hypergeometric(20, 80, 20)
    return time.perf_counter() - start
