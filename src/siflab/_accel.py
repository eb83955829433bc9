"""The closure-side sweep kernel: :func:`sweep_rules` alone turns rules
into verdict ints, whose bit m is the verdict of system mask m over an
n-trace universe.  Its callers state rules: :func:`sweep_pairs` (for
``BitUniverse.property_ok`` and ``families.closed_over_pool``),
``BitUniverse.type_ok`` and THM5's ``families._subfamily_verdicts``.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, product

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


def sweep_rules(rules, count: int, n: int, patterns: dict[int, int] | None = None) -> int:
    """The verdict int of the systems ``0 .. count - 1`` of ``n`` traces
    (``count <= 2^n``): a rule ``(needs, avoid)`` rules out each system
    that meets every mask in ``needs`` and shares no trace with ``avoid``.
    A rule with a need inside ``avoid`` rules out nothing and is skipped.
    Rules are taken one ``avoid`` mask at a time: each :func:`avoiding`
    pattern is built once, held only for its rules unless the memo
    ``patterns`` keeps it for later batches."""
    def pattern(mask: int) -> int:
        if patterns is None:
            return avoiding(mask, n)
        if mask not in patterns:
            patterns[mask] = avoiding(mask, n)
        return patterns[mask]

    size = powerset_size(n)
    full = (1 << size) - 1 if patterns is None else pattern(0)  # every system avoids mask 0
    groups: dict[int, list] = {}
    for needs, avoid in rules:
        rest = ~avoid
        for need in needs:
            if not need & rest:
                break
        else:
            groups.setdefault(avoid, []).append(needs)
    meets: dict[int, int] = {}
    ruled = 0
    for avoid, group in groups.items():
        clear = pattern(avoid)
        for needs in group:
            x = clear
            for need in needs:
                held = meets.get(need)
                if held is None:
                    held = meets[need] = full ^ pattern(need)
                x &= held
            ruled |= x
    verdicts = full ^ ruled  # every ruled-out system is one of the 2^n
    return verdicts if count == size else verdicts & ((1 << count) - 1)


@cache
def _pair_needs(n: int) -> tuple[tuple[int, int], ...]:
    """The needs ``(1 << a, 1 << b)`` of an n-by-n table, in row order."""
    return tuple(product([1 << i for i in range(n)], repeat=2))


def sweep_pairs(table, systems: range, n: int) -> int:
    """The verdict int of ``systems = range(count)``: a system passes when
    it meets ``table[a][b]`` for every ordered pair (a, b) of its members."""
    return sweep_rules(zip(_pair_needs(n), chain.from_iterable(table)), len(systems), n)
