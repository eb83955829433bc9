"""The pair-sweep kernel against a naive restatement of its contract."""

from __future__ import annotations

import random

import numpy as np
import pytest

from siflab import BitUniverse, CapExceeded, PropertyKind
from siflab._accel import sweep_pairs


def _reference_sweep(match, systems, n):
    """Inline restatement of the kernel contract, kept deliberately naive."""
    match = [int(x) for x in np.asarray(match, dtype=np.uint64).reshape(-1)]
    out = []
    for s in np.asarray(systems, dtype=np.uint64).tolist():
        s = int(s)
        ok = 1
        for a in range(n):
            if not s >> a & 1:
                continue
            for b in range(n):
                if s >> b & 1 and not (s & match[a * n + b]):
                    ok = 0
                    break
            if not ok:
                break
        out.append(ok)
    return np.array(out, dtype=np.uint8)


def _random_case(rng, n):
    full = (1 << n) - 1
    match = np.array(
        [rng.randrange(0, full + 1) for _ in range(n * n)], dtype=np.uint64
    )
    systems = np.array(
        [rng.randrange(0, full + 1) for _ in range(200)], dtype=np.uint64
    )
    return match, systems


def test_sweep_agrees_with_the_reference_on_random_tables():
    rng = random.Random(47)
    for n in (1, 2, 7, 16, 20, 24, 0):
        match, systems = _random_case(rng, n)
        got = sweep_pairs(match, systems, n)
        assert np.array_equal(got, _reference_sweep(match, systems, n)), n


def test_sweep_matches_reference_on_edge_masks():
    n = 4
    match = np.zeros(n * n, dtype=np.uint64)  # nothing ever matches
    systems = np.array([0, 1, 0b1010, 0b1111], dtype=np.uint64)
    got = sweep_pairs(match, systems, n)
    # the empty system passes vacuously; any member breaks every pair
    assert got.tolist() == [1, 0, 0, 0]
    match = np.full(n * n, (1 << n) - 1, dtype=np.uint64)
    assert sweep_pairs(match, systems, n).tolist() == [1, 1, 1, 1]


def test_sweep_refuses_more_than_24_traces():
    n = 25
    with pytest.raises(CapExceeded):
        sweep_pairs(np.zeros(n * n, dtype=np.uint64), np.array([1], dtype=np.uint64), n)


def test_full_property_counts_match():
    bu = BitUniverse.standard()
    assert int(bu.property_ok(PropertyKind.SEP).sum()) == 225
    assert int(bu.property_ok(PropertyKind.GNI).sum()) == 10509
