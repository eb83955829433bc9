"""Independent reference implementations used to cross-check the library.

Everything here works on raw data.  Lasso traces are handled as
(prefix, cycle) pairs of symbol tuples read off the public attributes;
equality and projection are decided at the word level (bounded
unrolling), never through the library's canonical forms.  Event traces
are plain tuples.  Agreement between these oracles and the package is
therefore meaningful evidence, not a tautology.  Three exceptions:
:func:`swept_type_verdicts` runs the library's sweep kernel (on a
word-level table), :func:`enumerate_async_systems` builds the
library's event systems one by one, for the per-system deciders, and
:func:`projected_view_ids` interns the library's ``project`` views, as
the reference numbering for ``System.view_ids``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import lcm

from siflab._accel import sweep_pairs
from siflab.corpus import enumerate_async_pools
from siflab.traces import COMPONENT_ORDER, project
from siflab.zl import AsyncSystem

# Component indexes inside a synchronous 4-tuple.
HI, LI, HO, LO = 0, 1, 2, 3
L_IDX = (LI, LO)
H_IDX = (HI, HO)

# For each pair-quantified property: components matched against the
# first trace of a pair, and components matched against the second.
PROPERTY_IDX = {
    "sep": (L_IDX, H_IDX),
    "gni": (L_IDX, (HI,)),
    "rgni": (H_IDX, (LI,)),
}


# ------------------------------------------------------------ word algebra


def unroll(prefix, cycle, n):
    """First ``n`` tuples of ``prefix + cycle^w`` (whole word if finite)."""
    prefix = tuple(prefix)
    cycle = tuple(cycle)
    if not cycle:
        return prefix[:n]
    out = list(prefix)
    i = 0
    while len(out) < n:
        out.append(cycle[i % len(cycle)])
        i += 1
    return tuple(out[:n])


def safe_bound(p1, c1, p2, c2):
    """Positions that decide equality of two lasso-denoted words."""
    base = max(len(p1), len(p2))
    if c1 and c2:
        return base + lcm(len(c1), len(c2)) + 1
    return base + len(c1) + len(c2) + 1


def words_equal(p1, c1, p2, c2):
    """Equality of the denoted words (finite or eventually periodic)."""
    finite1, finite2 = not c1, not c2
    if finite1 != finite2:
        return False
    if finite1:
        return tuple(p1) == tuple(p2)
    n = safe_bound(p1, c1, p2, c2)
    return unroll(p1, c1, n) == unroll(p2, c2, n)


def proj_raw(prefix, cycle, idxs):
    """Component-wise projection without any re-canonicalization."""
    take = lambda tup: tuple(tup[i] for i in idxs)
    return tuple(take(t) for t in prefix), tuple(take(t) for t in cycle)


def proj_equal(t1, t2, idxs):
    """Word equality of the ``idxs`` projections of two lasso traces."""
    return _proj_words_equal(t1.prefix, t1.cycle, t2.prefix, t2.cycle, tuple(idxs))


@lru_cache(maxsize=1 << 16)
def _proj_words_equal(p1, c1, p2, c2, idxs):
    """:func:`proj_equal` on raw (prefix, cycle) words, memoized by those words."""
    p1, c1 = proj_raw(p1, c1, idxs)
    p2, c2 = proj_raw(p2, c2, idxs)
    return words_equal(p1, c1, p2, c2)


def lasso_equal(t1, t2):
    return words_equal(t1.prefix, t1.cycle, t2.prefix, t2.cycle)


def projected_view_ids(system):
    """``System.view_ids`` computed one :func:`siflab.traces.project` per
    member and component: column ``i`` numbers the members'
    ``COMPONENT_ORDER[i]`` views by first occurrence in ``members`` order."""
    columns = []
    for comp in COMPONENT_ORDER:
        seen = {}
        columns.append([seen.setdefault(project(t, comp), len(seen)) for t in system.members])
    return tuple(zip(*columns))


def proj_key(traces, idxs):
    """Hashable projection keys valid within the given population.

    Words are compared by a shared unrolling depth that exceeds every
    pairwise safe bound, so equal keys mean equal projected words.
    """
    traces = list(traces)
    depth = 1
    for a in traces:
        for b in traces:
            depth = max(depth, safe_bound(a.prefix, a.cycle, b.prefix, b.cycle))
    out = {}
    for t in traces:
        p, c = proj_raw(t.prefix, t.cycle, idxs)
        out[t] = (not c, unroll(p, c, depth))
    return out


# -------------------------------------------------- trace-set properties


def brute_property(kind, members):
    """Literal transcription of the pair-quantified property."""
    members = list(members)
    if kind == "dgni":
        return brute_property("gni", members) and brute_property("rgni", members)
    first_idx, second_idx = PROPERTY_IDX[kind]
    for t1 in members:
        for t2 in members:
            if not any(
                proj_equal(x, t1, first_idx) and proj_equal(x, t2, second_idx) for x in members
            ):
                return False
    return True


_SLOT_IDX = (HI, LI, HO, LO)  # slot order: in_h, in_l, out_h, out_l


def brute_closed_under_type(members, slots):
    """Literal closure check for a four-slot copy type (0/1/2 per slot)."""
    members = list(members)
    for a in members:
        for b in members:
            found = False
            for x in members:
                ok = True
                for slot, idx in zip(slots, _SLOT_IDX):
                    if slot == 0:
                        continue
                    source = a if slot == 1 else b
                    if not proj_equal(x, source, (idx,)):
                        ok = False
                        break
                if ok:
                    found = True
                    break
            if not found:
                return False
    return True


def type_idx(slots):
    """The component indexes a four-slot copy type takes from its first
    argument (slot 1) and from its second (slot 2)."""
    return tuple(tuple(idx for slot, idx in zip(slots, _SLOT_IDX) if slot == arg) for arg in (1, 2))


def witness_table(traces, first_idx, second_idx):
    """``W[a][b]``: the traces x (bit i for ``traces[i]``) whose
    ``first_idx`` projection equals that of ``traces[a]`` and whose
    ``second_idx`` projection equals that of ``traces[b]``, compared as
    words (:func:`proj_equal`), as a tuple of rows."""
    eq1, eq2 = (
        [sum(1 << i for i, x in enumerate(traces) if proj_equal(x, a, idx)) for a in traces]
        for idx in (first_idx, second_idx)
    )
    return tuple(tuple(x & y for y in eq2) for x in eq1)


def swept_type_verdicts(bu, slots):
    """Closure verdicts under a four-slot copy type for every mask
    0 .. 2^n - 1 of the bit universe ``bu`` (bit m for mask m), by
    sweeping the word-level :func:`witness_table` of ``bu.traces``."""
    table = witness_table(bu.traces, *type_idx(slots))
    return sweep_pairs(table, range(1 << bu.n), bu.n)


def brute_injective(families):
    """Each family owns a trace no other family produces (word-level)."""
    names = list(families)
    for name in names:
        owned = False
        for t in families[name]:
            if not any(
                lasso_equal(t, u) for other in names if other != name for u in families[other]
            ):
                owned = True
                break
        if not owned:
            return False
    return True


def brute_nos(families):
    """Literal NOS: every union member's low view occurs in every family."""
    union = [t for fam in families.values() for t in fam]
    for t in union:
        for fam in families.values():
            if not any(proj_equal(t, u, L_IDX) for u in fam):
                return False
    return True


# ------------------------------------------------------ function families


def _is_member(t, members):
    """Word-level membership for lasso traces; event traces are tuples."""
    if hasattr(t, "cycle"):
        return any(hasattr(m, "cycle") and lasso_equal(t, m) for m in members)
    return any(t == m for m in members)


def brute_closed_under_family(members, functions):
    """Literal closure under a function family.

    For every ordered pair (a, b) of members, some function is defined
    at the pair and its output lands.  A frozenset output is a set of
    traces and lands when it is nonempty and each of its traces is a
    member; any other output is one trace and lands when it is a member.
    """
    members = list(members)
    for a in members:
        for b in members:
            found = False
            for f in functions:
                out = f(a, b)
                if out is None:
                    continue
                if isinstance(out, frozenset):
                    lands = len(out) > 0 and all(_is_member(t, members) for t in out)
                else:
                    lands = _is_member(out, members)
                if lands:
                    found = True
                    break
            if not found:
                return False
    return True


# --------------------------------------------------------- event systems


def low_filter(trace, level):
    return tuple(e for e in trace if level[e] == "L")


def brute_psp(traces, level):
    """Literal decomposition check of the insertion property.

    (1) The low-event subsequence of every member is a member.
    (2) For every member beta+alpha with alpha all-low and every high
        event e with beta+(e,) a member, beta+(e,)+alpha is a member.
    """
    return brute_psp_projection(traces, level) and brute_psp_insertion(traces, level)


def brute_psp_projection(traces, level):
    """Requirement (1) of :func:`brute_psp` alone."""
    trace_list = [tuple(t) for t in traces]
    return all(low_filter(t, level) in trace_list for t in trace_list)


def brute_psp_insertion(traces, level):
    """Requirement (2) of :func:`brute_psp` alone."""
    trace_list = [tuple(t) for t in traces]
    highs = [e for e, lv in level.items() if lv == "H"]
    for t in trace_list:
        for cut in range(len(t) + 1):
            beta, alpha = t[:cut], t[cut:]
            if any(level[e] == "H" for e in alpha):
                continue
            for e in highs:
                if beta + (e,) in trace_list and beta + (e,) + alpha not in trace_list:
                    return False
    return True


def enumerate_async_systems(max_events=3, max_len=3, cap=60000):
    """The capped enumeration of event systems, one ``AsyncSystem`` per
    mask of each ``(decl, pool, count)`` plan of
    ``siflab.corpus.enumerate_async_pools``, for per-system deciders to
    check the pool-wide ones against."""
    for decl, pool, count in enumerate_async_pools(max_events, max_len, cap):
        for mask in range(count):
            yield AsyncSystem(decl, (pool[i] for i in range(mask.bit_length()) if mask >> i & 1))


# -------------------------------------------------------------- pinning


def zigzag_expected(core, target, a, b):
    """Documented pin-function contract, table-driven.

    ``core`` is an ordered sequence, ``target`` a set.  Returns the
    expected output or None.
    """
    if a not in target or b not in target:
        return None
    core = list(core)
    k = len(core)
    in_core_a = a in core
    in_core_b = b in core
    if not in_core_a and not in_core_b:
        return core[0]
    if not in_core_a:
        return b
    if not in_core_b:
        return a
    i = core.index(a) + 1
    j = core.index(b) + 1
    idx = i + 1 if j % 2 == 0 else i - 1
    idx = (idx - 1) % k + 1
    return core[idx - 1]


# -------------------------------------------- low-view-local realizability


def q_search_exists(system_classes, target):
    """All-assignments search for a class predicate realizing ``target``.

    ``system_classes`` maps a hashable system key to the frozenset of its
    member low-view classes (each class itself a frozenset).  ``target``
    is the set of keys the predicate must accept exactly.  Empty systems
    must have been dropped by the caller.
    """
    all_classes = sorted(
        {c for classes in system_classes.values() for c in classes}, key=repr
    )
    for bits in product((False, True), repeat=len(all_classes)):
        accepted = {c for c, keep in zip(all_classes, bits) if keep}
        ok = True
        for key, classes in system_classes.items():
            verdict = all(c in accepted for c in classes)
            if verdict != (key in target):
                ok = False
                break
        if ok:
            return True
    return False


def q_or(q1, q2):
    """The class predicate accepting a set that ``q1`` or ``q2`` accepts."""
    return lambda a: q1(a) or q2(a)
