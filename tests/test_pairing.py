"""Set-valued functions and conjunction of families (``siflab.families``)."""

from __future__ import annotations

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
from siflab.corpus import conj_cases

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
        want = bool(ok_gni[mask - 1]) and bool(ok_rgni[mask - 1])
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
