"""Partial-function families: tables, membership functions, pinning."""

from __future__ import annotations

import random

import pytest

from oracles import brute_closed_under_family, zigzag_expected
from siflab import (
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
from siflab import fixtures as F
from siflab.corpus import disjoint_ten, enumerate_async_systems
from siflab.families import NosMemberSif, ZigzagSif, load_sif_table, sif_table_from_obj, sif_table_to_obj

SPACE, UNIVERSE = standard_universe()


def test_extensional_sif_lookup():
    a, b = UNIVERSE[0], UNIVERSE[1]
    f = ExtensionalSif.from_mapping({(a, b): a})
    assert f(a, b) == a
    assert f(b, a) is None


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


def test_nos_closure_equivalence_on_fixtures():
    for ss, expected in ((F.nos_two_trace(), True), (F.nos_false_pair(), False), (F.sep_echo_strategy(), True)):
        closed = closed_under_family(union_system(ss), nos_family(ss))
        assert closed == check_nos(ss) == expected


def test_closed_under_family_literal_behavior():
    s = System(SPACE, UNIVERSE[:2])
    nowhere = ExtensionalSif.from_mapping({})
    assert not closed_under_family(s, [nowhere])
    ident = ExtensionalSif.from_mapping({(a, b): a for a in s.members for b in s.members})
    assert closed_under_family(s, [nowhere, ident])
    escape = ExtensionalSif.from_mapping({(a, b): UNIVERSE[5] for a in s.members for b in s.members})
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
    return ExtensionalSif.from_mapping(table)


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
    f = ExtensionalSif.from_mapping({})
    g = ExtensionalSif.from_mapping({(UNIVERSE[0], UNIVERSE[0]): UNIVERSE[0]})
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
    assert report.counterexample is not None
    subset, member, closed = report.counterexample
    fam = [zigzag_sif(collection[i]) for i in range(4) if subset >> i & 1]
    assert closed_under_family(collection[member], fam) == closed
    assert closed != bool(subset >> member & 1)


def test_verify_zigzag_collection_input_validation():
    with pytest.raises(SiflabError):
        verify_zigzag_collection([])
    with pytest.raises(SiflabError):
        verify_zigzag_collection([System(SPACE, [])])
    s = System(SPACE, UNIVERSE[:2])
    with pytest.raises(SiflabError):
        verify_zigzag_collection([s, System(SPACE, UNIVERSE[:2])])


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


# ---------------------------------------------------------------- sif tables


def test_sif_table_roundtrip(tmp_path):
    a, b, c = UNIVERSE[0], UNIVERSE[1], UNIVERSE[2]
    f = ExtensionalSif.from_mapping({(a, b): c, (b, a): a})
    obj = sif_table_to_obj(f, SPACE)
    path = tmp_path / "table.json"
    path.write_text(__import__("json").dumps(obj))
    g = load_sif_table(path)
    assert g(a, b) == c and g(b, a) == a and g(c, c) is None


def test_sif_table_rejects_conflicts():
    a, b, c = UNIVERSE[0], UNIVERSE[1], UNIVERSE[2]
    obj = sif_table_to_obj(ExtensionalSif.from_mapping({(a, b): c}), SPACE)
    obj["triples"].append(obj["triples"][0][:2] + [sif_table_to_obj(ExtensionalSif.from_mapping({(a, b): a}), SPACE)["triples"][0][2]])
    with pytest.raises(Exception):
        sif_table_from_obj(obj)
