"""Universe enumeration and the bit-parallel sweep bridge."""

from __future__ import annotations

import random

import pytest

from oracles import (
    PROPERTY_IDX,
    brute_closed_under_type,
    brute_property,
    proj_equal,
    swept_type_verdicts,
    type_idx,
    witness_table,
)
from siflab import (
    H_VIEW,
    L_VIEW,
    SEP_TYPE,
    BitUniverse,
    CapExceeded,
    Component,
    PropertyKind,
    SifType,
    SiflabError,
    check_property,
    closed_under_type,
    enumerate_traces,
    enumerate_types,
    format_type,
    standard_universe,
    swap_type,
    view,
)
import siflab.enumeration as enumeration
from siflab.enumeration import (
    implication_violations,
    represents_over_universe,
    uniform_alphabets,
)
from siflab.properties import PROPERTY_VIEWS
from siflab.traces import TraceSpace

SPACE, UNIVERSE = standard_universe()


# -------------------------------------------------------------- enumeration


def test_standard_universe_has_sixteen_period_one_lassos():
    assert len(UNIVERSE) == 16
    assert all(not t.prefix and len(t.cycle) == 1 for t in UNIVERSE)


def test_longer_cycles_collapse_to_canonical_forms():
    got = enumerate_traces(SPACE, max_prefix=0, max_cycle=2)
    # the 16 squares collapse to period one; the other 240 two-step cycles
    # are genuine (with no prefix, rotating a cycle changes the word)
    assert len(got) == 256
    assert sum(1 for t in got if len(t.cycle) == 1) == 16
    assert sum(1 for t in got if len(t.cycle) == 2) == 240


def test_prefix_bound_adds_spliced_forms():
    got = enumerate_traces(SPACE, max_prefix=1, max_cycle=1)
    # a one-step prefix before a one-step cycle either merges with the
    # cycle (prefix equals the cycle step) or stands: 16 + 16*15
    assert len(got) == 16 + 240


def test_enumerate_traces_cap_and_validation():
    with pytest.raises(CapExceeded):
        enumerate_traces(SPACE, max_prefix=2, max_cycle=2, cap=10)
    with pytest.raises(SiflabError):
        enumerate_traces(SPACE, max_prefix=-1)
    with pytest.raises(SiflabError):
        uniform_alphabets(0)


def test_enumerate_traces_checks_the_cap_before_building_candidates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("candidates built before the cap check")

    monkeypatch.setattr("siflab.enumeration.product", refuse)
    # 33^4 = 1,185,921 one-step candidates
    with pytest.raises(CapExceeded, match="^candidate lassos exceed the cap of 1048576$"):
        enumerate_traces(TraceSpace(uniform_alphabets(33)), cap=1 << 20)


# ------------------------------------------------------------ bit universe


def test_bit_universe_validation():
    with pytest.raises(SiflabError):
        BitUniverse(SPACE, list(UNIVERSE) + [UNIVERSE[0]])
    with pytest.raises(SiflabError, match="at least one trace"):
        BitUniverse(SPACE, [])
    space, traces = standard_universe(max_cycle=2)
    with pytest.raises(CapExceeded, match="24-trace"):
        BitUniverse(space, traces)  # 256 > 24


def test_view_eq_mask_bits_mirror_view_equality(bit_universe, mixed_universe):
    for bu in (bit_universe, mixed_universe):
        for mask in range(16):
            eq = bu.view_eq_mask(mask)
            for i, t in enumerate(bu.traces):
                for j, u in enumerate(bu.traces):
                    bit = bool(eq[i] >> j & 1)
                    # every trace shares the empty view
                    assert bit == (not mask or view(t, mask) == view(u, mask)), (mask, i, j)


def _mixed_period_universe() -> BitUniverse:
    """20 binary traces of period at most 2 whose views re-canonicalize.

    ``ho`` is always 0.  ``lo`` is 0 throughout, or 1 on a period-1 trace.
    The twelve period-2 traces vary only in ``hi`` and ``li``, so their
    single-component views ``ho`` and ``lo`` shrink to period 1.  Eight of
    them vary in only one input, so their ``H`` or ``L`` view shrinks too
    and meets the views of the period-1 traces.
    """
    space, traces = standard_universe(max_cycle=2)

    def symbols(t, position):  # a step is (hi, li, ho, lo)
        return {step[position] for step in t.cycle}

    ho, lo = 2, 3
    chosen = [
        t
        for t in traces
        if symbols(t, ho) == {"0"} and (symbols(t, lo) == {"0"} or (symbols(t, lo) == {"1"} and len(t.cycle) == 1))
    ]
    period2 = [t for t in chosen if len(t.cycle) == 2]
    assert len(chosen) == 20 and len(period2) == 12
    assert all(len(view(t, Component.LO).cycle) == 1 for t in period2)
    assert sum(len(view(t, H_VIEW).cycle) == 1 or len(view(t, L_VIEW).cycle) == 1 for t in period2) == 8
    return BitUniverse(space, chosen)


@pytest.fixture(scope="module")
def mixed_universe():
    return _mixed_period_universe()


def _random_masks(rng, n, count):
    """``count`` uniform nonempty masks, then as many with 1 to 4 members."""
    masks = [rng.randrange(1, 1 << n) for _ in range(count)]
    masks += [sum(1 << i for i in rng.sample(range(n), rng.randint(1, 4))) for _ in range(count)]
    return masks


def test_sweep_verdicts_match_the_plain_checker_on_random_masks(bit_universe, mixed_universe):
    rng = random.Random(31)
    for bu in (bit_universe, mixed_universe):
        masks = _random_masks(rng, bu.n, 120)
        for kind in PropertyKind:
            got = bu.property_ok(kind)
            for m in masks:
                verdict = got >> m & 1
                s = bu.system_from_mask(m)
                assert bool(verdict) == check_property(kind, s)
                assert bool(verdict) == brute_property(kind.value, s.members)


def test_type_sweeps_match_the_plain_closure_on_random_masks(bit_universe, mixed_universe):
    rng = random.Random(37)
    types = [SifType(*(rng.randint(0, 2) for _ in range(4))) for _ in range(10)]
    for bu in (bit_universe, mixed_universe):
        masks = _random_masks(rng, bu.n, 40)
        for t in types:
            got = bu.type_ok(t)
            slots = (t.in_h, t.in_l, t.out_h, t.out_l)
            for m in masks:
                verdict = got >> m & 1
                s = bu.system_from_mask(m)
                assert bool(verdict) == closed_under_type(s, t)
                assert bool(verdict) == brute_closed_under_type(s.members, slots)


def test_view_counts_decide_every_type_like_the_witness_table_sweep(bit_universe, mixed_universe):
    for bu in (bit_universe, mixed_universe):
        # the sweep's view classes are those of word-level projection
        for mask in range(16):
            idxs = tuple(i for i in range(4) if mask >> i & 1)
            eq = bu.view_eq_mask(Component(mask))
            for i, t in enumerate(bu.traces):
                for j, u in enumerate(bu.traces):
                    assert bool(eq[i] >> j & 1) == proj_equal(t, u, idxs), (mask, i, j)
        for t in enumerate_types():
            assert bu.witness_table(*t.masks) == witness_table(bu.traces, *type_idx(t.slots)), t
            assert bu.type_ok(t) == swept_type_verdicts(bu, t.slots), t
        for kind, idxs in PROPERTY_IDX.items():
            [pair] = PROPERTY_VIEWS[PropertyKind(kind)]
            assert bu.witness_table(*pair) == witness_table(bu.traces, *idxs), kind


def test_each_witness_table_is_a_fresh_build_made_once():
    """For each type's mask pair and its swap, the witness table equals a
    build from ``view_eq_mask`` alone, and asking again gives the same
    table back rather than a second build."""
    bu = BitUniverse.standard()
    for t in enumerate_types():
        for first, second in (t.masks, swap_type(t).masks):
            table = bu.witness_table(first, second)
            firsts, seconds = bu.view_eq_mask(Component(first)), bu.view_eq_mask(Component(second))
            assert table == tuple(tuple(x & y for y in seconds) for x in firsts), (t, first, second)
            assert bu.witness_table(first, second) is table


def test_dgni_table_is_the_conjunction(bit_universe):
    bu = bit_universe
    assert bu.property_ok(PropertyKind.DGNI) == bu.property_ok(PropertyKind.GNI) & bu.property_ok(PropertyKind.RGNI)


@pytest.mark.parametrize("order", [list(PropertyKind), list(reversed(PropertyKind))], ids=["dgni-last", "dgni-first"])
def test_the_four_properties_take_three_sweeps_in_either_order(monkeypatch, order):
    kernel = enumeration.sweep_pairs
    calls = []

    def counted(table, systems, n):
        calls.append(table)
        return kernel(table, systems, n)

    monkeypatch.setattr(enumeration, "sweep_pairs", counted)
    bu = BitUniverse.standard()
    got = {kind: bu.property_ok(kind) for kind in order}
    assert len(calls) == 3
    assert got[PropertyKind.DGNI] == got[PropertyKind.GNI] & got[PropertyKind.RGNI]
    # the type verdicts are the kernel's other rule set, not pair sweeps,
    # so perfbench's sweep count stays the property sweeps' count
    for t in enumerate_types():
        bu.type_ok(t)
    assert len(calls) == 3


def test_known_property_counts(bit_universe):
    bu = bit_universe
    # bit 0, the empty system, is set and not counted
    assert bu.property_ok(PropertyKind.SEP).bit_count() - 1 == 225
    assert bu.property_ok(PropertyKind.GNI).bit_count() - 1 == 10509
    assert bu.property_ok(PropertyKind.RGNI).bit_count() - 1 == 10509
    assert bu.property_ok(PropertyKind.DGNI).bit_count() - 1 == 3417


def test_describe_mask_lists_members(bit_universe):
    text = bit_universe.describe_mask(0b11)
    assert text.startswith("{") and text.endswith("}") and "," in text


# ------------------------------------------------------- exhaustive reports


def test_represents_over_universe_agreement_and_counterexample(bit_universe):
    bu = bit_universe
    ok, none = represents_over_universe(bu, SEP_TYPE, PropertyKind.SEP)
    assert ok and none is None
    ok2, _ = represents_over_universe(bu, swap_type(SEP_TYPE), PropertyKind.SEP)
    assert ok2
    ok, mask = represents_over_universe(bu, SEP_TYPE, PropertyKind.GNI)
    assert not ok and mask is not None
    s = bu.system_from_mask(mask)
    assert check_property(PropertyKind.GNI, s) != closed_under_type(s, SEP_TYPE)


def test_represent_sets_over_the_standard_universe(bit_universe):
    expected = {
        PropertyKind.SEP: {"1:2/1:2", "2:1/2:1"},
        PropertyKind.GNI: {"1:2/0:2", "2:1/0:1"},
        PropertyKind.RGNI: {"1:2/1:0", "2:1/2:0"},
        PropertyKind.DGNI: set(),
    }
    systems = [bit_universe.system_from_mask(m) for m in range(1, 1 << 9)]
    for kind, types in expected.items():
        got = set()
        for t in enumerate_types():
            ok, mask = represents_over_universe(bit_universe, t, kind)
            if ok:
                got.add(format_type(t))
                continue
            # the smallest disagreeing system, by the per-system deciders
            agree = [check_property(kind, s) == closed_under_type(s, t) for s in systems[:mask]]
            assert agree == [True] * (mask - 1) + [False], (kind, format_type(t), mask)
        assert got == types, kind


def test_implication_violations_counts():
    a = 0b0011  # bit m is the verdict of system m
    b = 0b0101
    assert implication_violations(a, b) == 1
    assert implication_violations(b, b) == 0
