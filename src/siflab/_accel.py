"""The pair sweep, the hot loop behind every exhaustive system scan.

A system is a bitmask over an n-trace universe.  Given an n-by-n table of
witness masks, a system passes when it intersects ``table[a, b]`` for
every ordered pair (a, b) of its members.  The sweep decides this for all
2^n systems at once.  The verdicts live in one boolean array viewed with
shape ``(2,) * n``, one axis per trace.  A pair (a, b) whose witness mask
excludes both a and b rules out, in one strided assignment, every system
that holds a and b and avoids the mask.  A mask holding a or b is met by
every system that holds both, so such a pair rules out nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded

BACKEND = "numpy"

# The widest universe whose powerset is swept: 2^24 verdicts take 16 MiB.
MAX_TRACES = 24


def powerset_size(n: int) -> int:
    """The number of systems over ``n`` traces, capped at ``MAX_TRACES``."""
    if n > MAX_TRACES:
        raise CapExceeded(f"{n} traces exceed the {MAX_TRACES}-trace sweep limit", 1 << MAX_TRACES)
    return 1 << n


def sweep_pairs(table, systems, n: int) -> np.ndarray:
    """Boolean verdict for each system mask in ``systems``."""
    ok = np.ones(powerset_size(n), dtype=bool)
    cube = ok.reshape((2,) * n)
    witnesses = np.asarray(table, dtype=np.uint64).reshape(n, n).tolist()
    # bit i of a mask is axis n - 1 - i of the C-ordered cube
    for a in range(n):
        for b in range(n):
            witness = witnesses[a][b]
            if witness >> a & 1 or witness >> b & 1:
                continue
            index = [slice(None)] * n
            for i in range(n):
                if witness >> i & 1:
                    index[n - 1 - i] = 0
            index[n - 1 - a] = index[n - 1 - b] = 1
            cube[tuple(index)] = False
    return ok[systems]
