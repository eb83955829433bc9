"""Universe enumeration and the bit-parallel sweep bridge."""

from __future__ import annotations

import random

import numpy as np
import pytest

from oracles import brute_closed_under_type, brute_property
from siflab import (
    FULL_VIEW,
    H_VIEW,
    L_VIEW,
    SEP_TYPE,
    BitUniverse,
    CapExceeded,
    Component,
    PropertyKind,
    SifType,
    SiflabError,
    System,
    check_property,
    closed_under_type,
    enumerate_systems,
    enumerate_traces,
    standard_universe,
    swap_type,
    view,
)
from siflab.enumeration import (
    implication_violations,
    refute_all_types_over_universe,
    represents_over_universe,
    uniform_alphabets,
)
from siflab.siftypes import UNREFUTED
from siflab.traces import TraceSpace

SPACE, UNIVERSE = standard_universe()


# -------------------------------------------------------------- enumeration


def test_standard_universe_has_sixteen_period_one_lassos():
    assert len(UNIVERSE) == 16
    assert all(not t.prefix and len(t.cycle) == 1 for t in UNIVERSE)


def test_include_finite_adds_only_the_empty_trace_at_prefix_zero():
    got = enumerate_traces(SPACE, max_prefix=0, max_cycle=1, include_finite=True)
    assert len(got) == 17
    assert sum(1 for t in got if not t.cycle and not t.prefix) == 1


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


def test_enumerate_systems_counts_and_cap():
    small = TraceSpace({"hi": ("0",), "li": ("0", "1"), "ho": ("0",), "lo": ("0",)})
    systems = list(enumerate_systems(small, include_empty=True))
    assert len(systems) == 4  # two traces -> four subsets
    assert len(list(enumerate_systems(small))) == 3
    with pytest.raises(CapExceeded):
        list(enumerate_systems(SPACE, cap=100))


# ------------------------------------------------------------ bit universe


def test_bit_universe_validation():
    with pytest.raises(SiflabError):
        BitUniverse(SPACE, list(UNIVERSE) + [UNIVERSE[0]])
    space, traces = standard_universe(max_cycle=2)
    with pytest.raises(CapExceeded, match="24-trace"):
        BitUniverse(space, traces)  # 256 > 24


def test_view_eq_mask_bits_mirror_view_equality(bit_universe):
    bu = bit_universe
    for comp in (Component.LI, L_VIEW, H_VIEW, FULL_VIEW):
        eq = bu.view_eq_mask(comp)
        for i, t in enumerate(bu.traces):
            for j, u in enumerate(bu.traces):
                bit = bool(int(eq[i]) >> j & 1)
                assert bit == (view(t, comp) == view(u, comp)), (comp, i, j)


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
        arr = np.array(masks, dtype=np.uint64)
        for kind in PropertyKind:
            got = bu.property_ok(kind, arr)
            for m, verdict in zip(masks, got):
                s = bu.system_from_mask(m)
                assert bool(verdict) == check_property(kind, s)
                assert bool(verdict) == brute_property(kind.value, s.members)


def test_type_sweeps_match_the_plain_closure_on_random_masks(bit_universe, mixed_universe):
    rng = random.Random(37)
    types = [SifType(*(rng.randint(0, 2) for _ in range(4))) for _ in range(10)]
    for bu in (bit_universe, mixed_universe):
        masks = np.array(_random_masks(rng, bu.n, 40), dtype=np.uint64)
        for t in types:
            got = bu.type_ok(t, masks)
            slots = (t.in_h, t.in_l, t.out_h, t.out_l)
            for m, verdict in zip(masks.tolist(), got):
                s = bu.system_from_mask(int(m))
                assert bool(verdict) == closed_under_type(s, t)
                assert bool(verdict) == brute_closed_under_type(s.members, slots)


def test_dgni_table_is_the_conjunction(bit_universe):
    bu = bit_universe
    assert np.array_equal(
        bu.property_ok(PropertyKind.DGNI),
        bu.property_ok(PropertyKind.GNI) & bu.property_ok(PropertyKind.RGNI),
    )


def test_known_property_counts(bit_universe):
    bu = bit_universe
    assert int(bu.property_ok(PropertyKind.SEP).sum()) == 225
    assert int(bu.property_ok(PropertyKind.GNI).sum()) == 10509
    assert int(bu.property_ok(PropertyKind.RGNI).sum()) == 10509
    assert int(bu.property_ok(PropertyKind.DGNI).sum()) == 3417


def test_mask_system_roundtrip(bit_universe):
    bu = bit_universe
    rng = random.Random(41)
    for _ in range(50):
        mask = rng.randrange(0, 1 << 16)
        assert bu.mask_from_system(bu.system_from_mask(mask)) == mask
    space2, traces2 = standard_universe(max_prefix=1)
    foreign = System(space2, traces2[20:22])
    with pytest.raises(SiflabError):
        bu.mask_from_system(foreign)


def test_all_system_masks_bounds(bit_universe):
    bu = bit_universe
    masks = bu.all_system_masks()
    assert masks[0] == 1 and masks[-1] == (1 << 16) - 1 and masks.size == (1 << 16) - 1
    with_empty = bu.all_system_masks(include_empty=True)
    assert with_empty[0] == 0 and with_empty.size == 1 << 16


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


def test_refutation_report_statuses(bit_universe):
    report = refute_all_types_over_universe(bit_universe, PropertyKind.SEP)
    assert len(report.entries) == 81
    unrefuted = {e.type for e in report.entries if e.status is UNREFUTED}
    assert unrefuted == {SEP_TYPE, swap_type(SEP_TYPE)}
    for e in report.entries:
        if e.status is not UNREFUTED:
            assert e.witness and e.witness.startswith("mask ")


def test_implication_violations_counts():
    a = np.array([True, True, False, False])
    b = np.array([True, False, True, False])
    assert implication_violations(a, b) == 1
    assert implication_violations(b, b) == 0
