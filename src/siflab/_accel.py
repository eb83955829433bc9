"""The pair sweep, which decides a pair-quantified property for every
system of a universe at once.

``BitUniverse.property_ok`` runs it once per property; closure under a
type is decided by distinct-view counts instead (``enumeration``).
``families.closed_over_pool`` runs it once per event declaration in
PROP-PSP-SIF, over the first traces of the declaration's pool.

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
        raise CapExceeded(f"{n} traces exceed the {MAX_TRACES}-trace sweep limit")
    return 1 << n


def cube_index(n: int, absent: int, present: int = 0) -> tuple:
    """The index, into the powerset of ``n`` traces viewed as the ``(2,) * n``
    cube, of every system that avoids the traces of mask ``absent`` and
    holds those of mask ``present``.

    Bit i of a system mask is axis n - 1 - i of the C-ordered cube.
    """
    index = [slice(None)] * n
    for i in range(n):
        if absent >> i & 1:
            index[n - 1 - i] = 0
        elif present >> i & 1:
            index[n - 1 - i] = 1
    return tuple(index)


def sweep_pairs(table, systems, n: int) -> np.ndarray:
    """Boolean verdict for each system mask in ``systems``."""
    ok = np.ones(powerset_size(n), dtype=bool)
    cube = ok.reshape((2,) * n)
    witnesses = np.asarray(table, dtype=np.uint64).reshape(n, n).tolist()
    for a in range(n):
        for b in range(n):
            witness = witnesses[a][b]
            if witness >> a & 1 or witness >> b & 1:
                continue
            cube[cube_index(n, witness, 1 << a | 1 << b)] = False
    return ok[systems]
