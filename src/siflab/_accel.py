"""The pair sweep, which decides a pair-quantified property for every
system of a universe at once.

``BitUniverse.property_ok`` runs it once per property; closure under a
type is decided by view classes instead (``enumeration``).
``families.closed_over_pool`` runs it once per event declaration in
PROP-PSP-SIF, over the first traces of the declaration's pool.  The
pinning verifier (``families.verify_zigzag_collection``, THM5) uses
``avoiding`` alone, over the 2^k subfamilies of a k-member collection.

A system is a bitmask over an n-trace universe, and a verdict vector
over the 2^n systems is one int whose bit m is the verdict of system m.
Given an n-by-n table of witness masks, a system passes when it
intersects ``table[a][b]`` for every ordered pair (a, b) of its members.
A pair whose witness mask W excludes both a and b rules out, in a few
big-int operations, every system that holds a and b and avoids W.  A
mask holding a or b is met by every system that holds both, so such a
pair rules out nothing.
"""

from __future__ import annotations

from .errors import CapExceeded

BACKEND = "int"

# The widest universe whose powerset is swept: 2^24 verdict bits take 2 MiB.
MAX_TRACES = 24


def powerset_size(n: int, item: str = "trace") -> int:
    """The number of subsets of ``n`` items, capped at ``MAX_TRACES``;
    ``item`` names them in the message (the systems of a universe's
    traces, or THM5's subfamilies of a collection's members)."""
    if n > MAX_TRACES:
        raise CapExceeded(f"{n} {item}s exceed the {MAX_TRACES}-{item} sweep limit")
    return 1 << n


def avoiding(mask: int, n: int) -> int:
    """The verdict int, over the systems of ``n`` traces, that is set on
    every system sharing no trace with ``mask``.

    It is built trace by trace: the systems over traces 0 .. i that hold
    trace i are those over traces 0 .. i - 1 shifted up by 2^i bits, and
    they are kept only when ``mask`` leaves trace i out.
    """
    x = 1
    for i in range(n):
        if not mask >> i & 1:
            x |= x << (1 << i)
    return x


def sweep_pairs(table, systems: range, n: int) -> int:
    """The verdict int of the systems ``range(count)``: bit m is the
    verdict of system mask m, for m below ``count <= 2^n``."""
    full = (1 << powerset_size(n)) - 1
    held = [full ^ avoiding(1 << i, n) for i in range(n)]
    pairs: dict[int, list[tuple[int, int]]] = {}
    for a, row in enumerate(table):
        for b, witness in enumerate(row):
            if not (witness >> a & 1 or witness >> b & 1):
                pairs.setdefault(witness, []).append((a, b))
    ruled = 0
    # one witness mask's systems at a time: a table may hold n^2 masks
    for witness, members in pairs.items():
        clear = avoiding(witness, n)
        for a, b in members:
            ruled |= clear & held[a] & held[b]
    return ((1 << len(systems)) - 1) & ~ruled
