"""The sweep kernel and the pair sweep against naive restatements of their contracts."""

from __future__ import annotations

import random

import pytest

from siflab import BitUniverse, CapExceeded, PropertyKind, enumerate_types
from siflab._accel import sweep_pairs, sweep_rules
from siflab.corpus import enumerate_async_pools
from siflab.families import closed_over_pool
from siflab.zl import InsertionSif, psp_over_pool


def _reference_sweep(match, systems, n):
    """Inline restatement of the kernel contract, kept deliberately naive."""
    out = []
    for s in systems:
        ok = 1
        for a in range(n):
            if not s >> a & 1:
                continue
            for b in range(n):
                if s >> b & 1 and not (s & match[a][b]):
                    ok = 0
                    break
            if not ok:
                break
        out.append(ok)
    return out


def _reference_rules(rules, count):
    """Inline restatement of the rule kernel's contract, one system at a
    time: system m passes unless some rule's needs are all met by m and
    m shares no trace with the rule's avoid mask."""
    verdicts = 0
    for m in range(count):
        if not any(all(m & need for need in needs) and not m & avoid for needs, avoid in rules):
            verdicts |= 1 << m
    return verdicts


def _random_rules(rng, n, size):
    """Rules of 0, 1 and 2 needs of up to three traces each, and an avoid
    mask of up to half the traces; a quarter of the rules with needs have
    their last need inside avoid."""

    def mask(most):
        return sum(1 << i for i in rng.sample(range(n), rng.randint(0, min(n, most))))

    rules = []
    for _ in range(size):
        needs = tuple(mask(3) for _ in range(rng.choice((0, 1, 2, 2))))
        avoid = mask(n // 2 + 1)
        if needs and rng.random() < 0.25:
            avoid |= needs[-1]
        rules.append((needs, avoid))
    return rules


def test_rule_kernel_agrees_with_the_reference_on_random_rules():
    """Twenty rule sets of up to six rules per n, each at the full count
    and below it, without a memo and with one pattern memo per n; each
    memo entry is the systems avoiding its mask."""
    rng = random.Random(59)
    for n in (0, 1, 2, 7, 12):
        patterns = {}
        for _ in range(20):
            rules = _random_rules(rng, n, rng.randint(0, 6))
            for count in sorted({1 << n, max(1, (1 << n) - 1), rng.randint(1, 1 << n)}):
                want = _reference_rules(rules, count)
                assert sweep_rules(rules, count, n) == want, (n, rules, count)
                assert sweep_rules(rules, count, n, patterns) == want, (n, rules, count)
        for mask, pattern in patterns.items():
            assert pattern == sum(1 << m for m in range(1 << n) if not m & mask), (n, mask)


def _random_case(rng, n):
    full = (1 << n) - 1
    flat = [rng.randrange(0, full + 1) for _ in range(n * n)]
    match = [flat[a * n : (a + 1) * n] for a in range(n)]
    systems = [rng.randrange(0, full + 1) for _ in range(200)]
    return match, systems


def _bits(verdicts, systems):
    """The verdict bit of each system mask in ``systems``."""
    return [verdicts >> s & 1 for s in systems]


def test_sweep_agrees_with_the_reference_on_random_tables():
    rng = random.Random(47)
    for n in (1, 2, 7, 16, 20, 24, 0):
        match, systems = _random_case(rng, n)
        got = sweep_pairs(match, range(1 << n), n)
        assert _bits(got, systems) == _reference_sweep(match, systems, n), n


def test_sweep_matches_reference_on_edge_masks():
    n = 4
    match = [[0] * n for _ in range(n)]  # nothing ever matches
    systems = [0, 1, 0b1010, 0b1111]
    got = sweep_pairs(match, range(1 << n), n)
    # the empty system passes vacuously; any member breaks every pair
    assert _bits(got, systems) == [1, 0, 0, 0]
    assert got == 1
    match = [[(1 << n) - 1] * n for _ in range(n)]
    assert sweep_pairs(match, range(1 << n), n) == (1 << (1 << n)) - 1


def test_sweep_refuses_more_than_24_traces():
    n = 25
    with pytest.raises(CapExceeded):
        sweep_pairs([[0] * n for _ in range(n)], range(1), n)


def test_full_property_counts_match():
    bu = BitUniverse.standard()
    # bit 0, the empty system, is set and not counted
    assert bu.property_ok(PropertyKind.SEP).bit_count() - 1 == 225
    assert bu.property_ok(PropertyKind.GNI).bit_count() - 1 == 10509


def _in_range(verdicts, count):
    return isinstance(verdicts, int) and 0 <= verdicts < 1 << count


def test_verdict_ints_hold_no_bit_past_their_systems():
    """``~x`` of a Python int is negative, so a verdict built with an
    unmasked complement would fall outside ``[0, 1 << count)``."""
    bu = BitUniverse.standard()
    count = 1 << bu.n
    rng = random.Random(53)
    match, _ = _random_case(rng, bu.n)
    assert _in_range(sweep_pairs(match, range(count), bu.n), count)
    assert all(_in_range(bu.property_ok(kind), count) for kind in PropertyKind)
    assert all(_in_range(bu.type_ok(t), count) for t in enumerate_types())
    decl, pool, full = next(p for p in enumerate_async_pools(cap=600) if p[0].low_events and p[0].high_events and p[2] > 8)
    for count in (1, 2, 5, full):
        assert _in_range(sweep_pairs(match, range(count), bu.n), count), count
        assert _in_range(closed_over_pool(InsertionSif(decl), pool, count), count), count
        assert _in_range(psp_over_pool(decl, pool, count), count), count
