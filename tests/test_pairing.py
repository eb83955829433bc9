"""Set-valued functions and conjunction of families (``siflab.families``)."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from siflab import (
    GNI_TYPE,
    RGNI_TYPE,
    BitUniverse,
    ConjPairGenSif,
    ExtensionalSif,
    PropertyKind,
    System,
    check_property,
    closed_under_family,
    closed_under_type,
    conj_family,
    standard_universe,
)
from siflab.corpus import async_corpus, conj_cases, zl_conj_cases
from siflab.traces import format_trace

SPACE, UNIVERSE = standard_universe()


def test_conj_pair_gen_sif_semantics():
    a, b, c = UNIVERSE[0], UNIVERSE[1], UNIVERSE[2]
    f = ExtensionalSif({(a, b): a, (b, a): c})
    g = ExtensionalSif({(a, b): b})
    h = ConjPairGenSif(f, g)
    # defined where both are: union of outputs
    assert h(a, b) == frozenset((a, b))
    # undefined where either component is
    assert h(b, a) is None
    assert h(c, c) is None


def test_conj_pair_accepts_set_valued_components():
    a, b = UNIVERSE[0], UNIVERSE[1]
    f = ExtensionalSif({(a, a): frozenset((a, b))})
    g = ExtensionalSif({(a, a): frozenset((a,))})
    h = ConjPairGenSif(f, g)
    assert h(a, a) == frozenset((a, b))


def test_conj_pair_mixes_scalar_and_set_valued_components():
    a, b, c = UNIVERSE[0], UNIVERSE[1], UNIVERSE[2]
    scalar = ExtensionalSif({(a, a): a, (a, b): b})
    sets = ExtensionalSif({(a, a): frozenset((b, c)), (a, b): frozenset()})
    # a scalar counts as its one-element set, on either side
    assert ConjPairGenSif(scalar, sets)(a, a) == frozenset((a, b, c))
    assert ConjPairGenSif(sets, scalar)(a, a) == frozenset((a, b, c))
    # an empty set is a defined output and adds nothing to the union
    assert ConjPairGenSif(scalar, sets)(a, b) == frozenset((b,))
    assert ConjPairGenSif(sets, scalar)(a, b) == frozenset((b,))
    assert ConjPairGenSif(sets, sets)(a, b) == frozenset()
    assert all(type(ConjPairGenSif(f, g)(a, a)) is frozenset for f in (scalar, sets) for g in (scalar, sets))


def test_conj_family_dispatch():
    a, b = UNIVERSE[0], UNIVERSE[1]
    f1 = [ExtensionalSif({(a, b): a}), ExtensionalSif({})]
    f2 = [ExtensionalSif({(a, b): b})]
    pairs = conj_family(f1, f2)
    assert len(pairs) == len(f1) * len(f2)
    assert all(isinstance(p, ConjPairGenSif) for p in pairs)

    with pytest.raises(TypeError):
        conj_family(GNI_TYPE, f2)
    with pytest.raises(TypeError):
        conj_family(f1, RGNI_TYPE)


def test_closed_under_family_empty_family_fails_on_nonempty_system():
    s = System(SPACE, UNIVERSE[:1])
    assert not closed_under_family(s, [])
    assert closed_under_family(System(SPACE, []), [])


def test_symbolic_conjunction_on_bit_universe_tables(bit_universe):
    bu = bit_universe
    ok_gni = bu.type_ok(GNI_TYPE)
    ok_rgni = bu.type_ok(RGNI_TYPE)
    rng = random.Random(3)
    for _ in range(150):
        mask = rng.randrange(1, 1 << 16)
        s = bu.system_from_mask(mask)
        want = bool(ok_gni >> mask & 1) and bool(ok_rgni >> mask & 1)
        assert (closed_under_type(s, GNI_TYPE) and closed_under_type(s, RGNI_TYPE)) == want


def test_dgni_property_matches_type_conjunction_closure_sample(bit_universe):
    bu = bit_universe
    rng = random.Random(5)
    for _ in range(60):
        mask = rng.randrange(1, 1 << 16)
        s = bu.system_from_mask(mask)
        # representation direction checked exhaustively in acceptance tests;
        # here: whenever the conjunction closes the system, dgni holds
        if closed_under_type(s, GNI_TYPE) and closed_under_type(s, RGNI_TYPE):
            assert check_property(PropertyKind.DGNI, s)


def test_extensional_conjunction_identity_on_generated_cases():
    for s, f1, f2 in conj_cases(count=120, seed=9):
        lhs = closed_under_family(s, conj_family(f1, f2))
        rhs = closed_under_family(s, f1) and closed_under_family(s, f2)
        assert lhs == rhs


def _stream_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _conj_obj(cases) -> list:
    return [
        [[format_trace(t) for t in s.members]]
        + [[[[format_trace(a), format_trace(b), format_trace(out)] for (a, b), out in f.table] for f in fam] for fam in (f1, f2)]
        for s, f1, f2 in cases
    ]


def test_random_case_streams_are_pinned():
    # Traces are rendered with format_trace, so the digests do not depend
    # on the hash seed.  The counts at seed 1 cover, as prefixes, the
    # draws the verifier makes at its default and raised counts.
    assert _stream_digest(_conj_obj(conj_cases(2000, 1))) == "be0a0a117f4e0245"
    assert _stream_digest(_conj_obj(conj_cases(1000))) == "1af8641c4c629bc3"
    zl = [
        [[format_trace(t) for t in s.members]]
        + [sorted(sorted(map(format_trace, c)) for c in q.accepted) for q in (q1, q2)]
        for s, q1, q2 in zl_conj_cases(2000, 1)
    ]
    assert _stream_digest(zl) == "44ce53c7f5109374"
    systems = [[[list(e) for e in s.decl.events], [list(t) for t in s.members]] for s in async_corpus(1000, 1)]
    assert _stream_digest(systems) == "d2f780ea317d3988"
