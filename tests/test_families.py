"""Partial-function families: tables, membership functions, pinning."""

from __future__ import annotations

import copy
import pickle
import random
from itertools import combinations

import pytest

from oracles import brute_closed_under_family, enumerate_async_systems, zigzag_expected
from siflab import (
    CapExceeded,
    ExtensionalSif,
    InjectivityError,
    InsertionSif,
    SiflabError,
    System,
    binary_space,
    check_nos,
    closed_under_family,
    conj_family,
    family_union,
    nos_family,
    standard_universe,
    strategy_system_from_mapping,
    union_system,
    verify_zigzag_collection,
    zigzag_sif,
)
from siflab import families, properties
from siflab import fixtures as F
from siflab.corpus import disjoint_ten, enumerate_async_pools
from siflab.families import ConjPairGenSif, NosMemberSif, ZigzagSif, _subfamily_verdicts, closed_over_pool
from siflab.traces import _sort_key
from siflab.zl import AndQ, EventDecl, ExtensionalQ

SPACE, UNIVERSE = standard_universe()


def test_extensional_sif_lookup():
    a, b = UNIVERSE[0], UNIVERSE[1]
    f = ExtensionalSif({(a, b): a})
    assert f(a, b) == a
    assert f(b, a) is None


def test_from_mapping_is_canonical_in_insertion_order():
    rng = random.Random(8)
    items = [((a, b), rng.choice(UNIVERSE)) for a in UNIVERSE[:6] for b in UNIVERSE[:6] if rng.random() < 0.7]
    shuffled = items[:]
    rng.shuffle(shuffled)
    f = ExtensionalSif(dict(items))
    g = ExtensionalSif(dict(shuffled))
    assert f == g and hash(f) == hash(g) and f.table == g.table
    pairs = [pair for pair, _ in f.table]
    assert pairs == sorted(pairs, key=lambda p: (_sort_key(p[0]), _sort_key(p[1])))
    assert f != ExtensionalSif(dict(items[1:]))


def test_the_function_classes_compare_hash_and_print_by_their_fields():
    """Two functions built from equal fields are equal, hash alike, print
    alike and answer alike, so ``family_union`` keeps one of them; a
    function's pickled, copied and deep-copied copies are equal, hash
    alike, print alike and answer alike too, since a set field prints in
    the canonical member order.  A changed field, or an object of another
    class, is not equal."""
    a, b = UNIVERSE[0], UNIVERSE[1]
    f, g = ExtensionalSif({(a, b): a}), ExtensionalSif({(a, b): b})
    f_again = ExtensionalSif({(a, b): a})
    assert ExtensionalSif._adopt({(a, b): a}) == f
    ss = F.nos_two_trace()
    target = System(SPACE, UNIVERSE[:3])
    q1, q2 = ExtensionalQ(frozenset({frozenset({a})})), ExtensionalQ(frozenset())
    decl = EventDecl((("l", "L"), ("h", "H")))
    # the arguments each case is asked on
    pairs = [(s, t) for s in target.members for t in target.members]
    nos_pairs = [(s, t) for s in union_system(ss).members for t in union_system(ss).members]
    sets = [(frozenset(),), (frozenset({a}),), (frozenset({a, b}),)]
    events = [(("l",), ("h",)), (("h", "l"), ("h",)), (("l", "h"), ("l",))]
    cases = [
        (ConjPairGenSif(f, g), ConjPairGenSif(f_again, g), ConjPairGenSif(g, f), [(a, b), (b, a)]),
        (nos_family(ss)[0], nos_family(ss)[0], nos_family(ss)[1], nos_pairs),
        (
            zigzag_sif(target),
            ZigzagSif(target.traces, target.members),
            ZigzagSif(target.traces, target.members[::-1]),
            pairs,
        ),
        (q1, ExtensionalQ(frozenset({frozenset({a})})), q2, sets),
        (AndQ(q1, q2), AndQ(ExtensionalQ(q1.accepted), q2), AndQ(q2, q1), sets),
        # 1 and 9 share a slot, so these two sets iterate in opposite orders
        (
            ExtensionalQ(frozenset([frozenset([1, 9]), frozenset([2])])),
            ExtensionalQ(frozenset([frozenset([2]), frozenset([9, 1])])),
            q1,
            [(frozenset({1, 9}),), (frozenset({9}),)],
        ),
        (InsertionSif(decl), InsertionSif(EventDecl(decl.events)), InsertionSif(EventDecl((("l", "L"),))), events),
    ]
    for x, same, other, args in cases:
        assert x is not same and repr(x) == repr(same), x
        answers = [x(*arg) for arg in args]
        for y in (same, pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert x == y and hash(x) == hash(y) and repr(x) == repr(y), x
            assert [y(*arg) for arg in args] == answers, x
        assert x != other and x != repr(x), x
        assert family_union([x], [same]) == (x,), x
    pairing = cases[0][0]
    assert pairing.f is f and pairing.g is g
    assert repr(pairing) == f"ConjPairGenSif(f={f!r}, g={g!r})"


def test_nos_member_sif_semantics():
    ss = F.nos_two_trace()
    fam = nos_family(ss)
    # one function per (family, member) pair
    assert len(fam) == sum(len(f) for _, f in ss.families)
    u = union_system(ss).members
    for f in fam:
        assert isinstance(f, NosMemberSif)
        for a in u:
            for b in u:
                out = f(a, b)
                if out is not None:
                    assert out == f.sigma
                    assert b in f.family_traces


def test_nos_family_requires_injectivity():
    t0, t1 = F.zl_pair_traces()
    shared = strategy_system_from_mapping(binary_space(), {"H0": [t0, t1], "H1": [t0]})
    with pytest.raises(InjectivityError):
        nos_family(shared)


def test_check_nos_then_nos_family_decide_injectivity_once(monkeypatch):
    decided = []
    decide = properties._injective
    monkeypatch.setattr(properties, "_injective", lambda sets: decided.append(sets) or decide(sets))
    ss = F.nos_two_trace()
    assert check_nos(ss) is True
    assert len(nos_family(ss)) == sum(len(fam) for _, fam in ss.families)
    assert len(decided) == 1


def test_nos_closure_equivalence_on_fixtures():
    for ss, expected in ((F.nos_two_trace(), True), (F.nos_false_pair(), False), (F.sep_echo_strategy(), True)):
        closed = closed_under_family(union_system(ss), nos_family(ss))
        assert closed == check_nos(ss) == expected


def test_closed_under_family_literal_behavior():
    s = System(SPACE, UNIVERSE[:2])
    nowhere = ExtensionalSif({})
    assert not closed_under_family(s, [nowhere])
    ident = ExtensionalSif({(a, b): a for a in s.members for b in s.members})
    assert closed_under_family(s, [nowhere, ident])
    escape = ExtensionalSif({(a, b): UNIVERSE[5] for a in s.members for b in s.members})
    assert not closed_under_family(s, [escape])
    assert closed_under_family(System(SPACE, []), [nowhere])


def _random_table(rng, members, set_valued):
    """A table defined on most pairs of ``members``, mostly mapping back
    into them; a set-valued output has 0 to 3 traces."""
    pick = lambda: rng.choice(members) if rng.random() < 0.9 else rng.choice(UNIVERSE[:6])
    table = {}
    for a in members:
        for b in members:
            if rng.random() < 0.85:
                table[(a, b)] = frozenset(pick() for _ in range(rng.randint(0, 3))) if set_valued else pick()
    return ExtensionalSif(table)


def _table_cases(kind, count=300, seed=7):
    rng = random.Random(seed)
    for _ in range(count):
        s = System(SPACE, rng.sample(UNIVERSE[:6], rng.randint(1, 4)))
        family = lambda set_valued: [_random_table(rng, s.members, set_valued) for _ in range(rng.randint(1, 3))]
        if kind == "scalar":
            yield s, family(False)
        elif kind == "set":
            yield s, family(True)
        else:
            yield s, conj_family(family(rng.random() < 0.5), family(rng.random() < 0.5))


def _event_cases(kind):
    for s in enumerate_async_systems(cap=2000):
        f = InsertionSif(s.decl)
        yield s, [f] if kind == "events" else conj_family([f], [f])


@pytest.mark.parametrize("kind", ["scalar", "set", "pairing", "events", "event_pairing"])
def test_closed_under_family_matches_the_oracle(kind):
    cases = _event_cases(kind) if kind.startswith("event") else _table_cases(kind)
    verdicts = set()
    for s, fam in cases:
        closed = closed_under_family(s, fam)
        assert closed == brute_closed_under_family(s.members, fam), (s, fam)
        verdicts.add(closed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("cap", [14, 600, 20000])
def test_pool_sweep_matches_the_closure_of_every_enumerated_system(cap):
    """One sweep per declaration gives ``closed_under_family`` of every
    enumerated system; at cap 14 each pool sweeps width 0 for the empty
    system alone."""
    systems = enumerate_async_systems(cap=cap)
    verdicts = []
    for decl, pool, count in enumerate_async_pools(cap=cap):
        f = InsertionSif(decl)
        swept = closed_over_pool(f, pool, count)
        assert 0 <= swept < 1 << count
        for mask in range(count):
            closed = bool(swept >> mask & 1)
            s = next(systems)
            assert s.decl == decl and closed == closed_under_family(s, (f,)), (decl, mask)
            verdicts.append(closed)
    assert next(systems, None) is None
    if cap == 14:
        assert verdicts == [True] * 14
    else:
        assert set(verdicts) == {True, False}


def test_pairing_identity_on_event_systems():
    for s in enumerate_async_systems(cap=2000):
        f = InsertionSif(s.decl)
        g = lambda a, b, f=f: f(b, a)
        for f1, f2 in (([f], [f]), ([f], [g]), ([f, g], [g])):
            lhs = closed_under_family(s, conj_family(f1, f2))
            assert lhs == (closed_under_family(s, f1) and closed_under_family(s, f2)), s


def test_insertion_pairing_closes_the_insertion_fixture():
    s = F.psp_insert_ok()
    f = InsertionSif(s.decl)
    assert closed_under_family(s, [f])
    assert closed_under_family(s, conj_family([f], [f]))


def test_family_union_preserves_order_and_dedupes():
    f = ExtensionalSif({})
    g = ExtensionalSif({(UNIVERSE[0], UNIVERSE[0]): UNIVERSE[0]})
    assert family_union([f, g], [g, f]) == (f, g)


# ------------------------------------------------------------------ pinning


def test_zigzag_sif_matches_the_documented_contract():
    for k in (1, 2, 3, 5):
        target_traces = UNIVERSE[: k + 2]
        target = System(SPACE, target_traces)
        core = list(target.members[:k])
        f = ZigzagSif(target.traces, tuple(core))
        outside = UNIVERSE[k + 3]
        for a in list(target.members) + [outside]:
            for b in list(target.members) + [outside]:
                assert f(a, b) == zigzag_expected(core, target.traces, a, b), (k, a, b)


def test_zigzag_sif_core_validation():
    target = System(SPACE, UNIVERSE[:3])
    with pytest.raises(SiflabError):
        ZigzagSif(target.traces, ())
    with pytest.raises(SiflabError):
        ZigzagSif(target.traces, (UNIVERSE[0], UNIVERSE[0]))
    with pytest.raises(SiflabError):
        ZigzagSif(target.traces, (UNIVERSE[5],))


def test_zigzag_default_core_pins_the_target_uniquely():
    collection = disjoint_ten()
    for s in collection:
        fam = [zigzag_sif(s)]
        for other in collection:
            assert closed_under_family(other, fam) == (other is s)


def test_mixing_gap_is_detected():
    t1, t2, t3 = UNIVERSE[0], UNIVERSE[1], UNIVERSE[2]
    sp = SPACE
    collection = [
        System(sp, [t1]),
        System(sp, [t2]),
        System(sp, [t1, t2]),
        System(sp, [t1, t2, t3]),
    ]
    report = verify_zigzag_collection(collection)
    assert report.uniqueness_ok
    assert not report.representation_ok
    # the gaps, by closure under each subfamily: (subset mask, member) whose
    # closure verdict differs from membership; none has a singleton subset
    gaps = [
        (subset, member)
        for subset in range(1 << 4)
        for member in range(4)
        if closed_under_family(collection[member], [zigzag_sif(collection[i]) for i in range(4) if subset >> i & 1])
        != bool(subset >> member & 1)
    ]
    assert gaps and all(bin(subset).count("1") != 1 for subset, _ in gaps)


def _random_collections(count, seed):
    """Collections of 2 to 8 distinct members of 1 to 4 traces; about a
    third of the members add a trace to, or drop one from, an earlier
    member, so nested members like those of the mixing gap are common."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(2, 8)
        members: list[System] = []
        while len(members) < k:
            if members and rng.random() < 0.35:
                traces = set(rng.choice(members).members)
                if len(traces) > 1 and rng.random() < 0.5:
                    traces.discard(rng.choice(sorted(traces, key=_sort_key)))
                else:
                    traces.add(rng.choice(UNIVERSE))
            else:
                traces = rng.sample(UNIVERSE, rng.randint(1, 4))
            s = System(SPACE, traces)
            if all(s.traces != m.traces for m in members):
                members.append(s)
        yield members


def test_subfamily_verdicts_match_closure_under_every_subfamily():
    """Every (subfamily, member) bit of the verdict ints, and both report
    fields, against closure under the subfamily's pinning functions."""
    reports = set()
    for members in _random_collections(200, seed=11):
        k = len(members)
        fams = [zigzag_sif(s) for s in members]
        verdicts = _subfamily_verdicts(members, {})
        brute = [
            [closed_under_family(s, [fams[i] for i in range(k) if subset >> i & 1]) for subset in range(1 << k)]
            for s in members
        ]
        for q in range(k):
            assert 0 <= verdicts[q] < 1 << (1 << k)
            assert [bool(verdicts[q] >> subset & 1) for subset in range(1 << k)] == brute[q], (members, q)
        representation_ok = all(brute[q][subset] == bool(subset >> q & 1) for q in range(k) for subset in range(1 << k))
        uniqueness_ok = all(brute[q][1 << m] == (m == q) for q in range(k) for m in range(k))
        report = verify_zigzag_collection(members)
        assert (report.uniqueness_ok, report.representation_ok) == (uniqueness_ok, representation_ok), members
        reports.add(representation_ok)
    assert reports == {True, False}


def test_a_collection_past_the_cap_is_refused_before_any_table(monkeypatch):
    pairs = [System(SPACE, [UNIVERSE[0], t]) for t in UNIVERSE[1:]]
    pairs += [System(SPACE, [UNIVERSE[1], t]) for t in UNIVERSE[2:12]]
    assert len(pairs) == 25 and len({s.traces for s in pairs}) == 25

    def boom(collection):
        raise AssertionError("built a witness table")

    monkeypatch.setattr(families, "_pair_witness_masks", boom)
    with pytest.raises(CapExceeded, match="^25 members exceed the 24-member sweep limit$"):
        verify_zigzag_collection(pairs)
    with pytest.raises(AssertionError):
        verify_zigzag_collection(pairs[:24])


def test_verify_zigzag_collection_input_validation():
    with pytest.raises(SiflabError):
        verify_zigzag_collection([])
    with pytest.raises(SiflabError):
        verify_zigzag_collection([System(SPACE, [])])
    s = System(SPACE, UNIVERSE[:2])
    with pytest.raises(SiflabError):
        verify_zigzag_collection([s, System(SPACE, UNIVERSE[:2])])


def test_the_default_cores_pass_disjoint_collections_but_not_every_overlapping_one():
    """``zigzag_sif``'s cores, the whole target in canonical order: of the
    560 collections of two or three distinct nonempty sets of the first
    four standard traces, every pairwise disjoint one passes and 4
    overlapping ones fail."""
    t = UNIVERSE[:4]
    example = [System(SPACE, [t[i] for i in members]) for members in ((1, 2), (0, 1, 2), (1, 2, 3))]
    report = verify_zigzag_collection(example)
    assert report.uniqueness_ok and not report.representation_ok
    subsets = [frozenset(c) for k in range(1, 5) for c in combinations(t, k)]
    collections = [c for k in (2, 3) for c in combinations(subsets, k)]
    failing = 0
    for collection in collections:
        report = verify_zigzag_collection([System(SPACE, members) for members in collection])
        passed = report.uniqueness_ok and report.representation_ok
        failing += not passed
        assert passed or any(not a.isdisjoint(b) for a, b in combinations(collection, 2))
    assert (len(collections), failing) == (560, 4)


def test_zigzag_corpus_collections_verify(zigzag24):
    collections, _ = zigzag24
    assert len(collections) >= 20
    for members in collections:
        assert len(members) <= 8
        report = verify_zigzag_collection(members)
        assert report.uniqueness_ok and report.representation_ok


def test_union_family_represents_the_union_property():
    universe = disjoint_ten()
    s1, s2 = universe[:3], universe[4:8]
    f1 = [zigzag_sif(s) for s in s1]
    f2 = [zigzag_sif(s) for s in s2]
    union = family_union(f1, f2)
    for s in universe:
        assert closed_under_family(s, union) == (s in s1 or s in s2)
        assert closed_under_family(s, f1) == (s in s1)
        assert closed_under_family(s, f2) == (s in s2)
