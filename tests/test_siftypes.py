"""Copy types: parsing, closure, representation, refutation."""

from __future__ import annotations

import copy
import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PROPERTY_IDX, brute_closed_under_type, brute_property, proj_equal, proj_raw, projected_view_ids
from siflab import (
    ALL_SYSTEMS_TYPES,
    FormatError,
    GNI_TYPE,
    PropertyKind,
    RGNI_TYPE,
    SEP_TYPE,
    SifType,
    System,
    binary_space,
    canonicalize,
    check_nos,
    check_property,
    closed_under_type,
    enumerate_types,
    format_type,
    parse_type,
    refute_all_types,
    represents_over_universe,
    standard_universe,
    swap_type,
)
from siflab import fixtures as F
from siflab import traces
from siflab.properties import PROPERTY_VIEWS
from siflab.siftypes import (
    REFUTED_CLOSED_NOT_HOLDS,
    REFUTED_HOLDS_NOT_CLOSED,
    UNREFUTED,
    Refutation,
    RefutationReport,
    as_plain_system,
    property_predicate,
)

SPACE, UNIVERSE = standard_universe()

SLOT = st.integers(min_value=0, max_value=2)
TYPE = st.builds(SifType, SLOT, SLOT, SLOT, SLOT)


def test_enumerate_types_is_the_full_81():
    ts = enumerate_types()
    assert len(ts) == 81 and len(set(ts)) == 81
    assert SEP_TYPE in ts and GNI_TYPE in ts and RGNI_TYPE in ts


def test_a_type_hashes_as_its_slots_before_and_after_pickling():
    for t in enumerate_types():
        loaded = pickle.loads(pickle.dumps(t))
        assert loaded == t and hash(t) == hash(loaded) == hash(t.slots)


def test_masks_are_the_components_each_argument_supplies():
    """Bit i of a mask is the i-th slot's component (hi, li, ho, lo)."""
    for t in enumerate_types():
        walked = [0, 0, 0]
        for i, slot in enumerate(t.slots):
            walked[slot] |= 1 << i
        assert t.masks == (walked[1], walked[2]), t
        assert t._count_keys == (walked[1] | walked[2], walked[1], walked[2]), t


def test_each_property_is_its_table_of_mask_pairs():
    assert set(PROPERTY_VIEWS) == set(PropertyKind)
    for kind, idxs in PROPERTY_IDX.items():
        assert PROPERTY_VIEWS[PropertyKind(kind)] == (tuple(sum(1 << i for i in idx) for idx in idxs),), kind
    # DGNI, the conjunction, is GNI's pair plus RGNI's
    gni, rgni = PROPERTY_VIEWS[PropertyKind.GNI], PROPERTY_VIEWS[PropertyKind.RGNI]
    assert PROPERTY_VIEWS[PropertyKind.DGNI] == gni + rgni


def test_literal_roundtrip_for_all_types():
    for t in enumerate_types():
        assert parse_type(format_type(t)) == t
    assert format_type(SEP_TYPE) == "1:2/1:2"
    assert format_type(GNI_TYPE) == "1:2/0:2"
    assert format_type(RGNI_TYPE) == "1:2/1:0"


@pytest.mark.parametrize("bad", ["", "1:2", "3:0/0:0", "1:2/0", "a:b/c:d", "1:2/0:2/1:1"])
def test_parse_rejects_bad_literals(bad):
    with pytest.raises(FormatError):
        parse_type(bad)


def test_bad_slots_rejected_at_construction():
    with pytest.raises(FormatError):
        SifType(3, 0, 0, 0)


@pytest.mark.parametrize("bad", [True, 1.0, 3])
def test_a_slot_must_be_the_int_0_1_or_2(bad):
    for i in range(4):
        slots = [1, 2, 1, 2]
        slots[i] = bad
        with pytest.raises(FormatError, match="must be the int 0, 1 or 2"):
            SifType(*slots)


def test_swap_is_an_involution_exchanging_roles():
    for t in enumerate_types():
        assert swap_type(swap_type(t)) == t
    assert swap_type(SEP_TYPE) == SEP_TYPE.__class__(2, 1, 2, 1)


def test_all_systems_types_have_no_second_argument_slot():
    assert len(ALL_SYSTEMS_TYPES) == 16
    assert all(all(s in (0, 1) for s in t.slots) for t in ALL_SYSTEMS_TYPES)


def test_free_type_closes_everything_even_vacuously():
    free = SifType(0, 0, 0, 0)
    assert closed_under_type(System(SPACE, []), free)
    assert closed_under_type(F.gni_not_dgni_4(), free)


def test_closure_matches_the_literal_oracle_exhaustively():
    base = [UNIVERSE[i] for i in (1, 4, 6, 11)]
    for mask in range(1, 1 << 4):
        s = System(SPACE, (base[i] for i in range(4) if mask >> i & 1))
        for t in enumerate_types():
            assert closed_under_type(s, t) == brute_closed_under_type(s.members, t.slots)


@given(st.integers(min_value=1, max_value=(1 << 16) - 1), TYPE)
@settings(max_examples=80, deadline=None)
def test_closure_matches_the_oracle_on_random_systems(mask, t):
    s = System(SPACE, (UNIVERSE[i] for i in range(16) if mask >> i & 1))
    assert closed_under_type(s, t) == brute_closed_under_type(s.members, t.slots)


def _multi_period_system(rng) -> System:
    """A random binary system of lassos with prefixes of length 0-2 and
    cycles of length 0-3 (so finite traces and the empty trace occur).

    Half are 0-24 independent draws.  The other half are the product of
    one or two component words per component, all of one shape, less up
    to two members, so that many are closed under two-argument types.
    """
    if rng.random() < 0.5:
        tup = lambda: tuple(rng.choice("01") for _ in range(4))
        lasso = lambda: canonicalize([tup() for _ in range(rng.randint(0, 2))], [tup() for _ in range(rng.randint(0, 3))])
        return System(binary_space(), {lasso() for _ in range(rng.randint(0, 24))})
    pre, cyc = rng.randint(0, 2), rng.randint(0, 3)
    words = [{"".join(rng.choice("01") for _ in range(pre + cyc)) for _ in range(rng.randint(1, 2))} for _ in range(4)]
    traces = {canonicalize(list(zip(*w))[:pre], list(zip(*w))[pre:]) for w in product(*words)}
    for t in rng.sample(sorted(traces, key=str), min(len(traces), rng.randint(0, 2))):
        traces.discard(t)
    return System(binary_space(), traces)


def test_deciders_match_the_oracles_on_multi_period_systems():
    rng = random.Random(6)
    kinds = tuple(PropertyKind)
    seen = set()
    for _ in range(100):
        s = _multi_period_system(rng)
        for t in enumerate_types():
            verdict = closed_under_type(s, t)
            assert verdict == brute_closed_under_type(s.members, t.slots), (s.members, t)
            seen.add(("type", verdict, len(s) > 1 and {1, 2} <= set(t.slots)))
        for kind in kinds:
            verdict = check_property(kind, s)
            assert verdict == brute_property(kind.value, s.members), (s.members, kind)
            seen.add((kind, verdict))
        seen.add(("empty trace", any(not t.prefix and not t.cycle for t in s.members)))
        seen.add(("finite and infinite", len({not t.cycle for t in s.members}) == 2))
        seen.add(("size", min(len(s) // 8, 2)))
    # both verdicts of every decider, two-argument types closed on systems
    # of two or more members, and members of every kind were drawn
    assert ("type", True, True) in seen and ("type", False, True) in seen
    assert all((kind, v) in seen for kind in kinds for v in (True, False))
    assert {("empty trace", True), ("finite and infinite", True), ("size", 0), ("size", 1), ("size", 2)} <= seen


def test_view_ids_share_an_id_exactly_when_the_component_words_are_equal():
    """Ids agree with word equality of each component and with interning
    the library's ``project`` views; some members share an id only once a
    projected prefix is absorbed into its cycle."""
    rng = random.Random(8)
    absorbed = False
    for _ in range(100):
        s = _multi_period_system(rng)
        assert s.view_ids == projected_view_ids(s)
        for (a, ids_a), (b, ids_b) in product(zip(s.members, s.view_ids), repeat=2):
            for i in range(4):
                assert (ids_a[i] == ids_b[i]) == proj_equal(a, b, (i,)), (a, b, i)
                if ids_a[i] == ids_b[i]:
                    absorbed |= len(proj_raw(a.prefix, a.cycle, (i,))[0]) != len(proj_raw(b.prefix, b.cycle, (i,))[0])
    assert absorbed


def test_cached_column_words_change_no_view():
    """``view_ids`` and ``view_counts`` read the same with the column-word
    cache emptied first and with it filled by earlier systems; the counts
    are the per-mask set counts of the oracle's ids."""
    rng = random.Random(9)
    for _ in range(100):
        s = _multi_period_system(rng)
        ids = projected_view_ids(s)
        direct = tuple(len({tuple(row[i] for i in range(4) if mask >> i & 1) for row in ids}) for mask in range(16))
        for cold in (True, False):
            if cold:
                traces._canonical_column.cache_clear()
            fresh = System(s.space, s.traces)
            assert fresh.view_ids == ids and fresh.view_counts == direct, (cold, s.members)
    assert traces._canonical_column.cache_info().hits


def test_closure_reads_the_counts_of_fresh_reloaded_and_copied_systems():
    """``closed_under_type`` gives the oracle's verdict on a system, its
    pickled copy and its deep copy, each asked before its counts are read
    and again after."""
    rng = random.Random(13)
    for _ in range(40):
        drawn = _multi_period_system(rng)
        expected = [brute_closed_under_type(drawn.members, t.slots) for t in enumerate_types()]
        for s in (System(drawn.space, drawn.traces), pickle.loads(pickle.dumps(drawn)), copy.deepcopy(drawn)):
            assert s._counts is None
            assert [closed_under_type(s, t) for t in enumerate_types()] == expected, s.members
            assert len(s.view_counts) == 16
            assert [closed_under_type(s, t) for t in enumerate_types()] == expected, s.members


def test_filled_lazy_slots_leave_equality_and_hashing_alone():
    rng = random.Random(7)
    traces = set()
    while len(traces) < 6:
        traces.add(canonicalize([("0", "1", "1", "0")] * rng.randint(0, 2), [("1", "0", "0", "1")] * rng.randint(0, 3)))
    filled, fresh = System(binary_space(), traces), System(binary_space(), reversed(sorted(traces, key=str)))
    assert len(filled.view_ids) == 6 and len(filled.view_counts) == 16
    assert closed_under_type(filled, SEP_TYPE) == closed_under_type(filled, SEP_TYPE)
    assert filled == fresh and fresh == filled and hash(filled) == hash(fresh)
    assert len({filled, fresh}) == 1


def test_representation_spot_checks(bit_universe):
    ok, counter = represents_over_universe(bit_universe, SEP_TYPE, PropertyKind.SEP)
    assert ok and counter is None
    ok, counter = represents_over_universe(bit_universe, SEP_TYPE, PropertyKind.GNI)
    assert not ok and counter is not None
    s = bit_universe.system_from_mask(counter)
    assert check_property(PropertyKind.GNI, s) != closed_under_type(s, SEP_TYPE)


def test_sep_leaves_exactly_its_type_and_swap_unrefuted(bit_universe):
    unrefuted = set()
    for t in enumerate_types():
        ok, counter = represents_over_universe(bit_universe, t, PropertyKind.SEP)
        if ok:
            unrefuted.add(t)
            continue
        s = bit_universe.system_from_mask(counter)
        assert check_property(PropertyKind.SEP, s) != closed_under_type(s, t)
    assert unrefuted == {SEP_TYPE, swap_type(SEP_TYPE)}


def test_refute_all_types_pool_run_lists_witnesses():
    pool = {
        "dgni_not_sep_15": F.dgni_not_sep_15(),
        "li_equals_hi_8": F.li_equals_hi_8(),
        "ho_equals_li_8": F.ho_equals_li_8(),
        "lo_equals_hi_8": F.lo_equals_hi_8(),
    }
    report = refute_all_types(property_predicate("dgni"), pool)
    assert report.all_refuted
    assert len(report.entries) == 81
    for entry in report.entries:
        assert entry.status != UNREFUTED
        assert entry.witness in pool


_DGNI_POOL = ("dgni_not_sep_15", "li_equals_hi_8", "ho_equals_li_8", "lo_equals_hi_8")


_REFUTATION_POOLS = (
    ("dgni", _DGNI_POOL),
    ("sep", ("gni_not_dgni_4", "lo_equals_li_8", "li_equals_hi_8", "ho_equals_hi_xor_li_16")),
    ("gni", ("high_echo_pair_2", "ho_equals_li_8", "dgni_not_sep_15")),
    ("nos", ("sep_echo_strategy", "nos_two_trace", "nos_false_pair")),
)


def test_mirroring_is_sound():
    """Each type's verdict is the first pool member, in pool order, where the
    predicate and the brute-force closure oracle disagree, although the
    search tests only one type of each mirror pair."""
    for kind, names in _REFUTATION_POOLS:
        pool = {name: getattr(F, name)() for name in names}
        predicate = property_predicate(kind)
        report = refute_all_types(predicate, pool)
        for t in enumerate_types():
            disagreements = (
                (label, holds)
                for label, member in pool.items()
                if (holds := predicate(member)) != brute_closed_under_type(as_plain_system(member).members, t.slots)
            )
            first = next(disagreements, None)
            if first is None:
                assert report.entry(t) == Refutation(t, UNREFUTED), (kind, t)
            else:
                label, holds = first
                status = REFUTED_HOLDS_NOT_CLOSED if holds else REFUTED_CLOSED_NOT_HOLDS
                assert report.entry(t) == Refutation(t, status, label), (kind, t)


def test_extension_is_pulled_only_until_the_last_type_falls():
    members = [(name, getattr(F, name)()) for name in _DGNI_POOL]
    predicate = property_predicate("dgni")
    pulled = []

    def counting(items):
        for label, member in items:
            pulled.append(label)
            yield label, member

    # the shortest prefix of the members that refutes every type
    need = next(k for k in range(1, len(members) + 1) if refute_all_types(predicate, members[:k]).all_refuted)
    spare = [(f"spare[{i}]", F.gni_not_dgni_4()) for i in range(3)]
    report = refute_all_types(predicate, members[:1], counting(members[1:] + spare))
    assert report == refute_all_types(predicate, members)
    assert pulled == [label for label, _ in members[1:need]]

    pulled.clear()
    assert refute_all_types(predicate, members, counting(spare)) == report
    assert pulled == []


def test_refutation_report_needs_all_81():
    with pytest.raises(Exception):
        RefutationReport((Refutation(SEP_TYPE, UNREFUTED),))


def test_property_predicate_dispatch():
    assert property_predicate("sep")(F.lo_equals_li_8()) is True
    nos_pred = property_predicate("nos")
    assert nos_pred(F.nos_two_trace()) is True
    assert nos_pred(F.nos_false_pair()) is False
    with pytest.raises(FormatError):
        property_predicate("psp")


def test_as_plain_system_unwraps_strategy_systems():
    ss = F.nos_two_trace()
    u = as_plain_system(ss)
    assert len(u) == 2
    s = F.gni_not_dgni_4()
    assert as_plain_system(s) is s


def test_nos_pool_refutes_everything():
    report = refute_all_types(
        check_nos,
        {"nos_two_trace": F.nos_two_trace(), "nos_false_pair": F.nos_false_pair()},
    )
    assert report.all_refuted
