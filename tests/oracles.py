"""Independent reference implementations used to cross-check the library.

Everything here works on raw data.  Lasso traces are handled as
(prefix, cycle) pairs of symbol tuples read off the public attributes;
equality and projection are decided at the word level (bounded
unrolling), never through the library's canonical forms.  Event traces
are plain tuples.  Agreement between these oracles and the package is
therefore meaningful evidence, not a tautology.
"""

from __future__ import annotations

from itertools import product
from math import lcm

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
    p1, c1 = proj_raw(t1.prefix, t1.cycle, idxs)
    p2, c2 = proj_raw(t2.prefix, t2.cycle, idxs)
    return words_equal(p1, c1, p2, c2)


def lasso_equal(t1, t2):
    return words_equal(t1.prefix, t1.cycle, t2.prefix, t2.cycle)


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
    trace_list = [tuple(t) for t in traces]
    for t in trace_list:
        if low_filter(t, level) not in trace_list:
            return False
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
