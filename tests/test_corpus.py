"""The seeded generators' draw class against ``random.Random``."""

from __future__ import annotations

import random

import pytest

from siflab.corpus import _Draws

# Every bounded draw the generators make, by size.  randint: protocol
# states and counts, collection and block sizes, event counts and system
# sizes.  choice: bits, "LH", states, output pairs, plus a one-element
# sequence, which redraws until its one bit is 0.  sample: output pairs
# (n = 4), the 16 standard traces, the low-view class pool (about 25) and
# the event-trace pools of 2, 3 and 4 events (31, 121 and 341), each with
# the k the generators take.  Sizes 21/22 and 85/86 straddle the
# library's setsize for k <= 5 and for k = 6, so both branches run.
RANDINT = [(1, b) for b in range(1, 7)] + [(2, 4), (2, 5), (2, 8), (3, 6), (0, 1), (5, 5)]
CHOICE = [("x",), ("0", "1"), "LH", ("m0", "m1"), [(a, b) for a in "01" for b in "01"], list(range(16))]
SAMPLE = [
    (n, k)
    for n in (1, 4, 5, 16, 21, 22, 25, 28, 31, 85, 86, 121, 341)
    for k in range(0, min(n, 6) + 1)
]


def _calls(rng: random.Random) -> list[tuple]:
    """Every call above once, in an order drawn from ``rng``, with the
    library's own ``random``, ``shuffle`` and ``randrange`` between them."""
    calls = (
        [("randint", a, b) for a, b in RANDINT]
        + [("choice", seq) for seq in CHOICE]
        + [("sample", list(range(n)), k) for n, k in SAMPLE]
        + [("sample", "abcdefghijklmnopqrstuvwxyz"[:n], min(n, 4)) for n in (3, 22)]
        + [("random",), ("shuffle", list(range(10))), ("randrange", 1 << 30)]
    )
    rng.shuffle(calls)
    return calls


def test_every_draw_and_state_matches_the_library():
    order = random.Random(0)
    for seed in range(60):
        ours, lib = _Draws(seed), random.Random(seed)
        for name, *args in _calls(order):
            if name == "shuffle":
                got, want = list(args[0]), list(args[0])
                ours.shuffle(got)
                lib.shuffle(want)
            else:
                got, want = getattr(ours, name)(*args), getattr(lib, name)(*args)
            assert got == want, (seed, name, args)
            assert ours.getstate() == lib.getstate(), (seed, name, args)


def test_a_one_element_choice_redraws_until_its_bit_is_zero():
    ours, lib = _Draws(3), random.Random(3)
    for _ in range(200):
        assert ours.choice([7]) == lib.choice([7]) == 7
        assert ours.getstate() == lib.getstate()
    # it does draw: the state moves on
    assert ours.getstate() != _Draws(3).getstate()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda r: r.randint(4, 3), ValueError),
        (lambda r: r.randint(0, -5), ValueError),
        (lambda r: r.choice([]), IndexError),
        (lambda r: r.choice(""), IndexError),
        (lambda r: r.sample(range(3), 4), ValueError),
        (lambda r: r.sample([1, 2], -1), ValueError),
    ],
)
def test_a_bad_draw_raises_as_the_library_does_and_draws_nothing(call, error):
    ours, lib = _Draws(5), random.Random(5)
    with pytest.raises(error):
        call(ours)
    with pytest.raises(error):
        call(lib)
    assert ours.getstate() == lib.getstate() == random.Random(5).getstate()
