"""Bundled witness systems.

Every named object here is small enough to audit by eye and is shipped
twice: built programmatically by this module (the source of truth) and
serialized under ``siflab/fixtures/`` so the CLI and external tools can
load the same data from files.  ``write_all`` regenerates the files.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import product
from pathlib import Path

from .properties import StrategySystem, strategy_system_from_mapping, strategy_system_to_obj
from .traces import LassoTrace, System, binary_space, canonicalize, system_to_obj
from .zl import AsyncSystem, EventDecl, async_system_to_obj, collection_to_obj


def _step(bits: tuple[int, int, int, int]) -> tuple[str, str, str, str]:
    return tuple(str(b) for b in bits)  # type: ignore[return-value]


def constant_trace(bits: tuple[int, int, int, int]) -> LassoTrace:
    """The period-1 lasso repeating one (hi, li, ho, lo) tuple."""
    return canonicalize((), (_step(bits),))


def period_one_system(tuples) -> System:
    return System(binary_space(), (constant_trace(t) for t in tuples))


def dgni_not_sep_15() -> System:
    """All sixteen constant binary tuples except (1,0,1,0).

    Satisfies both noninference directions but not separability: the
    missing tuple is exactly the interleaving of (0,0,0,0)'s low view
    with (1,1,1,1)'s high view.
    """
    return period_one_system(t for t in product((0, 1), repeat=4) if t != (1, 0, 1, 0))


def gni_not_dgni_4() -> System:
    return period_one_system([(1, 0, 1, 0), (1, 1, 0, 1), (0, 0, 0, 0), (0, 1, 1, 1)])


def li_equals_hi_8() -> System:
    """Low input copies high input; fails GNI on the input channel."""
    return period_one_system((a, a, c, d) for a, c, d in product((0, 1), repeat=3))


def ho_equals_li_8() -> System:
    """High output copies low input; GNI holds, reverse GNI fails."""
    return period_one_system((a, b, b, d) for a, b, d in product((0, 1), repeat=3))


def lo_equals_hi_8() -> System:
    """Low output copies high input; fails GNI on the output channel."""
    return period_one_system((a, b, c, a) for a, b, c in product((0, 1), repeat=3))


def lo_equals_li_8() -> System:
    """Low output echoes low input; separability holds."""
    return period_one_system((a, b, c, b) for a, b, c in product((0, 1), repeat=3))


def ho_equals_hi_xor_li_16() -> System:
    """High output is the parity of the two inputs; GNI holds, SEP fails."""
    return period_one_system((a, b, a ^ b, d) for a, b, d in product((0, 1), repeat=3))


def high_echo_pair_2() -> System:
    """Two traces with silent low channels and ho = hi.

    Separability holds, yet the type copying inputs from one argument
    and outputs from the other does not close the set: mixing the two
    traces breaks the echo.
    """
    return period_one_system([(0, 0, 0, 0), (1, 0, 1, 0)])


def nos_two_trace() -> StrategySystem:
    """One high protocol generating a two-trace set; satisfies NOS."""
    t1 = canonicalize((_step((0, 1, 1, 1)),), (_step((1, 1, 1, 1)),))
    t2 = constant_trace((0, 0, 0, 0))
    return StrategySystem((("H", System(binary_space(), (t1, t2))),))


def nos_false_pair() -> StrategySystem:
    """Two high protocols whose low views are disjoint; NOS fails."""
    return strategy_system_from_mapping(
        binary_space(),
        {
            "H0": [constant_trace((0, 0, 0, 0))],
            "H1": [constant_trace((1, 1, 1, 1))],
        },
    )


def sep_echo_strategy() -> StrategySystem:
    """Injective two-protocol system whose union is high_echo_pair_2.

    The union satisfies separability, so it exercises the non-vacuous
    branch of the SEP-implies-NOS implication.
    """
    return strategy_system_from_mapping(
        binary_space(),
        {
            "H0": [constant_trace((0, 0, 0, 0))],
            "H1": [constant_trace((1, 0, 1, 0))],
        },
    )


def zl_pair() -> System:
    """Two traces distinguished by their low views."""
    return period_one_system([(0, 0, 0, 0), (0, 1, 0, 1)])


def zl_pair_traces() -> tuple[LassoTrace, LassoTrace]:
    return constant_trace((0, 0, 0, 0)), constant_trace((0, 1, 0, 1))


def zl_universe_sync() -> list[System]:
    """All nonempty systems over the two-trace space."""
    s0, s1 = zl_pair_traces()
    sp = binary_space()
    return [System(sp, [s0]), System(sp, [s1]), System(sp, [s0, s1])]


def zl_target_singleton() -> list[System]:
    s0, _ = zl_pair_traces()
    return [System(binary_space(), [s0])]


def zl_target_disjunction() -> list[System]:
    s0, s1 = zl_pair_traces()
    sp = binary_space()
    return [System(sp, [s0]), System(sp, [s1])]


def lh_decl() -> EventDecl:
    return EventDecl((("l", "L"), ("h", "H")))


def zl_async_decl() -> EventDecl:
    return EventDecl((("l0", "L"), ("l1", "L"), ("h", "H")))


def zl_async_traces() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Two event traces with distinct low projections."""
    return ("l0",), ("h", "l1")


def zl_pair_async() -> AsyncSystem:
    return AsyncSystem(zl_async_decl(), zl_async_traces())


def zl_universe_async() -> list[AsyncSystem]:
    d = zl_async_decl()
    a, b = zl_async_traces()
    return [AsyncSystem(d, [a]), AsyncSystem(d, [b]), AsyncSystem(d, [a, b])]


def zl_target_async() -> list[AsyncSystem]:
    a, _ = zl_async_traces()
    return [AsyncSystem(zl_async_decl(), [a])]


def psp_insert_ok() -> AsyncSystem:
    """Closed under high insertion before its low-only suffixes."""
    return AsyncSystem(lh_decl(), [(), ("l",), ("h",), ("h", "l")])


def psp_insert_missing() -> AsyncSystem:
    """Same as psp_insert_ok minus (h,l); the insertion demand fails."""
    return AsyncSystem(lh_decl(), [(), ("l",), ("h",)])


def echo_protocols() -> dict:
    """Protocol file content for the two-trace generation example.

    The high user sends 0 first and afterwards echoes its previous
    output; the low user picks one nondeterministic first bit and then
    repeats it; the machine copies the low input to both outputs.
    """
    high = {
        "states": ["start", "saw0", "saw1"],
        "initial": "start",
        "emit": [
            {"state": "start", "choices": ["0"]},
            {"state": "saw0", "choices": ["0"]},
            {"state": "saw1", "choices": ["1"]},
        ],
        "update": [
            {"state": s, "input": i, "output": o, "next": "saw0" if o == "0" else "saw1"}
            for s in ("start", "saw0", "saw1")
            for i in ("0", "1")
            for o in ("0", "1")
        ],
    }
    low = {
        "states": ["free", "lock0", "lock1"],
        "initial": "free",
        "emit": [
            {"state": "free", "choices": ["0", "1"]},
            {"state": "lock0", "choices": ["0"]},
            {"state": "lock1", "choices": ["1"]},
        ],
        "update": [
            {"state": s, "input": i, "output": o, "next": "lock0" if i == "0" else "lock1"}
            for s in ("free", "lock0", "lock1")
            for i in ("0", "1")
            for o in ("0", "1")
        ],
    }
    system = {
        "states": ["run"],
        "initial": "run",
        "output": [
            {"state": "run", "hi": hi, "li": li, "choices": [[li, li]]}
            for hi in ("0", "1")
            for li in ("0", "1")
        ],
        "update": [
            {"state": "run", "hi": hi, "li": li, "ho": ho, "lo": lo, "next": "run"}
            for hi in ("0", "1")
            for li in ("0", "1")
            for ho in ("0", "1")
            for lo in ("0", "1")
        ],
    }
    return {"system": system, "low": low, "highs": {"H": high}}


SYSTEM_FIXTURES = {
    "dgni_not_sep_15": dgni_not_sep_15,
    "gni_not_dgni_4": gni_not_dgni_4,
    "li_equals_hi_8": li_equals_hi_8,
    "ho_equals_li_8": ho_equals_li_8,
    "lo_equals_hi_8": lo_equals_hi_8,
    "lo_equals_li_8": lo_equals_li_8,
    "ho_equals_hi_xor_li_16": ho_equals_hi_xor_li_16,
    "high_echo_pair_2": high_echo_pair_2,
    "zl_pair": zl_pair,
}

STRATEGY_FIXTURES = {
    "nos_two_trace": nos_two_trace,
    "nos_false_pair": nos_false_pair,
    "sep_echo_strategy": sep_echo_strategy,
}

ASYNC_FIXTURES = {
    "zl_pair_async": zl_pair_async,
    "psp_insert_ok": psp_insert_ok,
    "psp_insert_missing": psp_insert_missing,
}


COLLECTION_FIXTURES = {
    "zl_universe_sync": zl_universe_sync,
    "zl_target_singleton": zl_target_singleton,
    "zl_target_disjunction": zl_target_disjunction,
    "zl_universe_async": zl_universe_async,
    "zl_target_async": zl_target_async,
}


def fixture_names() -> list[str]:
    return sorted(
        list(SYSTEM_FIXTURES)
        + list(STRATEGY_FIXTURES)
        + list(ASYNC_FIXTURES)
        + list(COLLECTION_FIXTURES)
        + ["echo_protocols"]
    )


def fixture_obj(name: str):
    """The JSON-ready object for one bundled fixture."""
    if name in SYSTEM_FIXTURES:
        return system_to_obj(SYSTEM_FIXTURES[name]())
    if name in STRATEGY_FIXTURES:
        return strategy_system_to_obj(STRATEGY_FIXTURES[name]())
    if name in ASYNC_FIXTURES:
        return async_system_to_obj(ASYNC_FIXTURES[name]())
    if name in COLLECTION_FIXTURES:
        return collection_to_obj(COLLECTION_FIXTURES[name]())
    if name == "echo_protocols":
        return echo_protocols()
    raise KeyError(name)


def data_dir():
    return resources.files("siflab") / "fixtures"


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture file, kept to locate the shipped JSON; raises KeyError for unknown names."""
    if name not in fixture_names():
        raise KeyError(name)
    return Path(str(data_dir() / f"{name}.json"))


def write_all(directory: str | Path | None = None) -> list[Path]:
    """Regenerate every fixture file, kept to regenerate the shipped JSON; returns the paths written."""
    base = Path(directory) if directory is not None else Path(str(data_dir()))
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for name in fixture_names():
        path = base / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(fixture_obj(name), fh, indent=1, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written
