"""Command-line interface: subcommands, exit codes, JSON mode."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from siflab import fixtures as F
from siflab import binary_space, standard_universe
from siflab.cli import main
from siflab.fixtures import fixture_path
from siflab.siftypes import enumerate_types, format_type
from siflab.properties import (
    save_strategy_system,
    strategy_system_from_obj,
    strategy_system_from_mapping,
    strategy_system_to_obj,
    union_system,
)
from siflab.strategies import protocols_from_obj
from siflab.traces import load_json, read_json, space_to_obj, system_from_obj, system_to_obj, trace_to_obj
from siflab.zl import async_system_from_obj, collection_from_obj


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------- fixtures

_FIXTURE_LOADERS = (
    (F.SYSTEM_FIXTURES, system_from_obj),
    (F.STRATEGY_FIXTURES, strategy_system_from_obj),
    (F.ASYNC_FIXTURES, async_system_from_obj),
    (F.COLLECTION_FIXTURES, collection_from_obj),
    ({"echo_protocols": lambda: protocols_from_obj(F.echo_protocols())}, protocols_from_obj),
)


@pytest.mark.parametrize("name", F.fixture_names())
def test_shipped_fixture_files_are_current(name):
    path = fixture_path(name)
    assert read_json(path) == F.fixture_obj(name)
    [(build, reader)] = [(table[name], reader) for table, reader in _FIXTURE_LOADERS if name in table]
    assert load_json(path, reader) == build()


def test_write_all_reproduces_every_shipped_fixture_file(tmp_path):
    written = F.write_all(tmp_path)
    assert sorted(p.name for p in written) == sorted(f"{name}.json" for name in F.fixture_names())
    assert len(written) == 21
    for path in written:
        assert path.read_bytes() == fixture_path(path.stem).read_bytes(), path.name


# ------------------------------------------------------------------- check


def test_check_plain_properties(capsys):
    path = str(fixture_path("lo_equals_li_8"))
    for prop in ("sep", "gni", "rgni", "dgni"):
        code, out, _ = run(capsys, "check", "--property", prop, "--system", path)
        assert code == 0 and "holds" in out
    path = str(fixture_path("li_equals_hi_8"))
    for prop in ("sep", "gni", "rgni", "dgni"):
        code, out, _ = run(capsys, "check", "--property", prop, "--system", path)
        assert code == 1 and "fails" in out


def test_check_json_shape(capsys):
    path = str(fixture_path("dgni_not_sep_15"))
    code, obj, _ = run_json(capsys, "check", "--property", "dgni", "--system", path)
    assert code == 0
    assert obj == {"property": "dgni", "path": path, "traces": 15, "holds": True}


def test_check_nos_uses_strategy_files(capsys):
    code, out, _ = run(capsys, "check", "--property", "nos", "--system", str(fixture_path("nos_two_trace")))
    assert code == 0 and "holds" in out
    code, _, _ = run(capsys, "check", "--property", "nos", "--system", str(fixture_path("nos_false_pair")))
    assert code == 1


def test_check_nos_counts_a_trace_shared_by_two_families_once(tmp_path, capsys):
    shared = F.constant_trace((0, 0, 0, 0))
    ss = strategy_system_from_mapping(
        binary_space(),
        {"H0": [shared, F.constant_trace((1, 1, 1, 1))], "H1": [shared, F.constant_trace((1, 0, 1, 1))]},
    )
    path = tmp_path / "shared.json"
    save_strategy_system(ss, path)
    code, out, _ = run(capsys, "check", "--property", "nos", "--system", str(path))
    assert (code, out) == (1, f"nos on {path} (3 traces): fails\n")
    code, obj, _ = run_json(capsys, "check", "--property", "nos", "--system", str(path))
    assert code == 1 and obj["traces"] == 3


def test_check_psp_uses_event_files(capsys):
    code, _, _ = run(capsys, "check", "--property", "psp", "--system", str(fixture_path("psp_insert_ok")))
    assert code == 0
    code, _, _ = run(capsys, "check", "--property", "psp", "--system", str(fixture_path("psp_insert_missing")))
    assert code == 1


def test_check_wrong_file_kind_is_an_input_error(capsys):
    code, _, err = run(capsys, "check", "--property", "nos", "--system", str(fixture_path("lo_equals_li_8")))
    assert code == 2 and err.startswith("error:")


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "--property", "sep", "--system", "/nonexistent.json")
    assert code == 2 and err.startswith("error:")
    assert err == "error: /nonexistent.json: no such file\n"


def test_unreadable_path_is_an_input_error(tmp_path, capsys):
    for argv in (("check", "--property", "sep", "--system"), ("refute", "--property", "sep", "--pool")):
        code, _, err = run(capsys, *argv, str(tmp_path))
        assert code == 2
        assert err.startswith(f"error: {tmp_path}: ")
        assert "Errno" not in err


def test_check_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _, err = run(capsys, "check", "--property", "sep", "--system", str(bad))
    assert code == 2 and "JSON" in err


_LONG_INT_SYSTEM = json.dumps(F.fixture_obj("lo_equals_li_8")).replace('"hi": [', '"hi": [' + "7" * 5000 + ", ", 1)


@pytest.mark.parametrize("text", ["[" * 200_000, _LONG_INT_SYSTEM], ids=["nested-too-deep", "integer-too-long"])
def test_json_the_parser_refuses_is_an_input_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "check", "--property", "sep", "--system", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _with(obj, path, value):
    """A copy of the JSON object ``obj`` with the entry at ``path`` replaced."""
    obj = json.loads(json.dumps(obj))
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    return obj


_MALFORMED_SYSTEM = F.fixture_obj("lo_equals_li_8")


_CHECK_SEP = ["check", "--property", "sep", "--system", "FILE"]
_CHECK_PSP = ["check", "--property", "psp", "--system", "FILE"]
_GENERATE = ["strategies", "generate", "--protocols", "FILE", "--mode", "bounded:3"]


@pytest.mark.parametrize(
    "argv, content",
    [
        (_CHECK_SEP, _with(_MALFORMED_SYSTEM, ["traces"], 7)),
        (_CHECK_SEP, _with(_MALFORMED_SYSTEM, ["alphabets", "hi"], 5)),
        (_CHECK_SEP, _with(_MALFORMED_SYSTEM, ["traces", 0, "prefix"], 3)),
        (
            ["zl", "q-search", "--target", "FILE", "--universe", "FILE"],
            _with(F.fixture_obj("zl_universe_sync"), ["systems"], [7]),
        ),
        (_CHECK_SEP, b"\xff\xfe not UTF-8"),
        (
            ["strategies", "generate", "--protocols", "FILE", "--mode", "bounded:3"],
            _with(F.echo_protocols(), ["system", "output", 0, "choices", 0], ["0"]),
        ),
        (
            ["strategies", "generate", "--protocols", "FILE", "--mode", "bounded:3"],
            _with(F.echo_protocols(), ["system", "output", 0, "choices", 0], "00"),
        ),
        (
            ["strategies", "generate", "--protocols", "FILE", "--mode", "bounded:3"],
            _with(F.echo_protocols(), ["system", "states"], "run"),
        ),
        (_CHECK_SEP, _with(_MALFORMED_SYSTEM, ["traces", 0, "cycle", 0, 0], True)),
        (_CHECK_SEP, _with(_MALFORMED_SYSTEM, ["traces", 0, "cycle", 0, 1], 1.5)),
        (_CHECK_SEP, _with(_MALFORMED_SYSTEM, ["traces", 0, "cycle", 0, 2], None)),
        (_CHECK_SEP, _with(_MALFORMED_SYSTEM, ["traces", 0, "cycle", 0, 3], [0])),
        (_CHECK_PSP, {"events": [{"name": True, "level": "L"}], "traces": [[], ["True"]]}),
        (_CHECK_PSP, {"events": [{"name": "True", "level": "L"}], "traces": [[], [True]]}),
        (_GENERATE, json.loads(json.dumps(F.echo_protocols()).replace('"run"', "null"))),
        (_GENERATE, json.loads(json.dumps(F.echo_protocols()).replace('"1"', "true"))),
    ],
    ids=[
        "traces-not-a-list",
        "alphabet-not-a-list",
        "prefix-not-a-list",
        "collection-member",
        "not-utf8",
        "protocol-choice-not-a-pair",
        "protocol-choice-a-string",
        "protocol-states-a-string",
        "symbol-true",
        "symbol-float",
        "symbol-null",
        "symbol-list",
        "event-name-true",
        "event-entry-true",
        "protocol-state-null",
        "protocol-symbol-true",
    ],
)
def test_malformed_input_shapes_are_input_errors(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    code, _, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_integer_and_string_symbols_read_as_the_same_trace(tmp_path, capsys):
    text = json.dumps(_MALFORMED_SYSTEM)
    as_ints = tmp_path / "ints.json"
    as_ints.write_text(text.replace('"0"', "0").replace('"1"', "1"))
    assert '"0"' not in as_ints.read_text()
    assert load_json(as_ints, system_from_obj) == load_json(fixture_path("lo_equals_li_8"), system_from_obj)
    code, out, _ = run(capsys, "check", "--property", "sep", "--system", str(as_ints))
    assert code == 0 and "holds" in out


def test_integer_and_string_event_names_read_as_the_same_event_trace(tmp_path, capsys):
    as_strings = {
        "events": [{"name": "0", "level": "L"}, {"name": "1", "level": "H"}],
        "traces": [[], ["0"], ["1"], ["1", "0"]],
    }
    as_ints = json.loads(json.dumps(as_strings).replace('"0"', "0").replace('"1"', "1"))
    assert as_ints["traces"][3] == [1, 0]
    paths = []
    for name, obj in (("strings", as_strings), ("ints", as_ints)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(obj))
    assert load_json(paths[0], async_system_from_obj) == load_json(paths[1], async_system_from_obj)
    for path in paths:
        code, out, _ = run(capsys, "check", "--property", "psp", "--system", str(path))
        assert code == 0 and "holds" in out


def test_an_input_error_names_its_file_once(tmp_path, capsys):
    good = str(fixture_path("lo_equals_li_8"))
    no_traces = tmp_path / "no_traces.json"
    no_traces.write_text(json.dumps({"alphabets": F.fixture_obj("lo_equals_li_8")["alphabets"]}))
    code, _, err = run(capsys, "refute", "--property", "sep", "--pool", good, str(no_traces))
    assert code == 2
    assert err == f'error: {no_traces}: a system file must contain "alphabets" and "traces"\n'
    # errors of the reader itself already name the file: no second prefix
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{]")
    code, _, err = run(capsys, "refute", "--property", "sep", "--pool", good, str(not_json))
    assert code == 2 and err.startswith(f"error: {not_json}: not valid JSON") and err.count(str(not_json)) == 1
    universe = str(fixture_path("zl_universe_sync"))
    bad = tmp_path / "bad_collection.json"
    bad.write_text(json.dumps({"systems": []}))
    for target, universe_file in ((str(bad), universe), (universe, str(bad))):
        code, _, err = run(capsys, "zl", "q-search", "--target", target, "--universe", universe_file)
        assert code == 2
        assert err == f'error: {bad}: a collection file must contain "alphabets" or "events"\n'


def _not_injective_obj():
    """A strategy system whose family H1 owns no trace of its own."""
    space, universe = standard_universe()
    return strategy_system_to_obj(strategy_system_from_mapping(space, {"H0": universe[:2], "H1": universe[:1]}))


def _free_low_user():
    """A low user with a choice in its only state, which it never leaves."""
    return {
        "states": ["free"],
        "initial": "free",
        "emit": [{"state": "free", "choices": ["0", "1"]}],
        "update": [{"state": "free", "input": i, "output": o, "next": "free"} for i in "01" for o in "01"],
    }


_EXACT = ["strategies", "generate", "--protocols", "FILE", "--mode", "exact"]


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (
            ["check", "--property", "nos", "--system", "FILE"],
            _not_injective_obj(),
            "strategy system violates the distinguishability precondition",
        ),
        (
            _EXACT,
            _with(F.echo_protocols(), ["system", "update"], F.echo_protocols()["system"]["update"][1:]),
            "system update undefined for state='run' tuple=(0,0,0,0)",
        ),
        (
            _EXACT,
            _with(F.echo_protocols(), ["system", "update", 0, "next"], "nowhere"),
            "update leads to unknown state 'nowhere'",
        ),
        (
            _EXACT,
            _with(F.echo_protocols(), ["low"], _free_low_user()),
            "nondeterministic choice at joint state",
        ),
        (
            _GENERATE,
            _with(F.echo_protocols(), ["low", "emit", 0, "choices"], ["0", "0"]),
            "state 'free' has no emission choices or repeats one",
        ),
        (
            _GENERATE,
            _with(F.echo_protocols(), ["system", "output", 0, "choices"], [["0", "0"], ["0", "0"]]),
            "system output for state='run' hi='0' li='0' is empty or repeats a choice",
        ),
    ],
    ids=[
        "nos-not-injective",
        "update-key-missing",
        "update-to-unknown-state",
        "exact-mode-choice-on-a-cycle",
        "user-choice-listed-twice",
        "system-choice-listed-twice",
    ],
)
def test_an_error_found_after_reading_names_its_file(tmp_path, capsys, argv, content, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1


def test_refute_nos_names_the_file_that_breaks_the_precondition(tmp_path, capsys):
    good = str(fixture_path("nos_two_trace"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_not_injective_obj()))
    code, out, err = run(capsys, "refute", "--property", "nos", "--pool", good, str(bad))
    assert code == 2 and out == ""
    assert err == f"error: {bad}: strategy system violates the distinguishability precondition\n"


@pytest.mark.parametrize(
    "argv, content, where",
    [
        (_CHECK_SEP, _with(_MALFORMED_SYSTEM, ["traces", 1, "cycle", 0, 0], "2"), "in traces"),
        (
            ["check", "--property", "nos", "--system", "FILE"],
            {
                "alphabets": space_to_obj(F.nos_two_trace().space),
                "families": {
                    "a": [{"cycle": [["0", "0", "0", "2"]]}],
                    "b": [{"cycle": [["0", "0", "0", "0"]]}],
                },
            },
            "in family a",
        ),
        (
            ["zl", "q-search", "--target", "FILE", "--universe", "FILE"],
            _with(F.fixture_obj("zl_universe_sync"), ["systems", 1, 0, "cycle", 0, 2], "2"),
            "in system 1",
        ),
    ],
    ids=["system-file", "strategy-family", "collection-member"],
)
def test_a_symbol_outside_the_alphabets_is_an_input_error_that_names_where(tmp_path, capsys, argv, content, where):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, _, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2
    assert err.startswith(f"error: {path}: trace ") and "does not conform" in err and err.endswith(f", {where}\n")
    assert "Traceback" not in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--property", "bogus", "--system", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# ----------------------------------------------------------------- closure


def test_closure_type(capsys):
    path = str(fixture_path("lo_equals_li_8"))
    code, out, _ = run(capsys, "closure", "--type", "1:2/1:2", "--system", path)
    assert code == 0 and "yes" in out
    path = str(fixture_path("li_equals_hi_8"))
    code, out, _ = run(capsys, "closure", "--type", "1:2/1:2", "--system", path)
    assert code == 1 and "no" in out


def test_closure_gen_conj(capsys):
    path = str(fixture_path("dgni_not_sep_15"))
    code, _, _ = run(capsys, "closure", "--gen-conj", "1:2/0:2", "1:2/1:0", "--system", path)
    assert code == 0
    path = str(fixture_path("gni_not_dgni_4"))
    code, _, _ = run(capsys, "closure", "--gen-conj", "1:2/0:2", "1:2/1:0", "--system", path)
    assert code == 1
    # on every shipped system, the paired family closes exactly when both types do
    rng = random.Random(17)
    literals = [format_type(t) for t in enumerate_types()]
    for name in F.SYSTEM_FIXTURES:
        path = str(fixture_path(name))
        for t1, t2 in [("1:2/0:2", "1:2/1:0")] + [tuple(rng.sample(literals, 2)) for _ in range(8)]:
            code, obj, _ = run_json(capsys, "closure", "--gen-conj", t1, t2, "--system", path)
            each = [run(capsys, "closure", "--type", t, "--system", path)[0] for t in (t1, t2)]
            assert code == (0 if each == [0, 0] else 1), (name, t1, t2)
            assert obj["subject"] == f"paired family [{t1}, {t2}]" and obj["closed"] == (code == 0)


def test_closure_requires_a_subject(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["closure", "--system", str(fixture_path("zl_pair"))])
    assert exc.value.code == 2
    assert "one of the arguments --type --gen-conj is required" in capsys.readouterr().err


def test_closure_refuses_both_subjects(capsys):
    path = str(fixture_path("dgni_not_sep_15"))
    with pytest.raises(SystemExit) as exc:
        main(["closure", "--type", "2:2/2:2", "--gen-conj", "1:2/0:2", "1:2/1:0", "--system", path])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_closure_bad_type_literal(capsys):
    code, _, err = run(capsys, "closure", "--type", "3:0/0:0", "--system", str(fixture_path("zl_pair")))
    assert code == 2 and "error:" in err


# --------------------------------------------------------------- represent


def test_represent_standard_universe(capsys):
    code, obj, _ = run_json(capsys, "represent", "--property", "sep")
    assert code == 0
    assert obj["universe_traces"] == 16 and obj["universe_systems"] == 65535
    assert sorted(obj["types"]) == ["1:2/1:2", "2:1/2:1"]
    code, obj, _ = run_json(capsys, "represent", "--property", "gni")
    assert sorted(obj["types"]) == ["1:2/0:2", "2:1/0:1"]


def test_represent_single_type_counterexample(capsys):
    code, obj, _ = run_json(
        capsys, "represent", "--property", "gni", "--type", "1:2/1:2"
    )
    assert code == 1
    assert obj["types"] == [] and "1:2/1:2" in obj["counterexamples"]


def test_represent_universe_params(capsys):
    code, obj, _ = run_json(
        capsys,
        "represent",
        "--property",
        "sep",
        "--universe-params",
        "alphabet-size=1",
        "max-cycle=1",
    )
    assert code == 0 and obj["universe_traces"] == 1


def test_represent_param_validation(capsys):
    code, _, err = run(capsys, "represent", "--property", "sep", "--universe-params", "nope")
    assert code == 2
    code, _, err = run(capsys, "represent", "--property", "sep", "--universe-params", "size=3")
    assert code == 2
    code, _, err = run(capsys, "represent", "--property", "sep", "--universe-params", "cap=x")
    assert code == 2
    code, _, err = run(capsys, "represent", "--property", "nos")
    assert code == 2
    # a universe too large for the sweep is reported, not attempted
    code, _, err = run(
        capsys, "represent", "--property", "sep", "--universe-params", "max-cycle=2"
    )
    assert code == 2 and "24-trace sweep limit" in err


def test_represent_refuses_more_systems_than_its_cap(capsys):
    code, out, err = run(capsys, "represent", "--property", "sep", "--universe-params", "cap=1000")
    assert code == 2 and out == ""
    assert err == "error: 65535 systems exceed the cap of 1000\n"


def test_represent_refuses_a_huge_alphabet_from_its_parameters(capsys):
    """10^6 symbols per component give 10^24 one-step candidates; the
    refusal comes before the alphabet is built."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "represent", "--property", "sep", "--universe-params", "alphabet-size=1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: candidate lassos exceed the cap of {1 << 20}"]
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "params, message",
    [
        (["max-prefix=5000"], f"candidate lassos exceed the cap of {1 << 20}"),
        (["alphabet-size=" + "9" * 1101], f"candidate lassos exceed the cap of {1 << 20}"),
        (["alphabet-size=0", f"max-prefix={10**9}"], "alphabet size must be at least 1"),
        (["max-cycle=0", f"max-prefix={10**9}"], "a universe needs at least one trace"),
    ],
)
def test_represent_refuses_huge_bounds_without_summing_every_term(capsys, params, message):
    """The first two pass the cap within a few terms (16^5001 candidates,
    a 4404-digit letter count), and the message names the cap, not the
    count.  With no letters or no cycle length, nothing is counted or
    built for each of the 10^9 prefix lengths."""
    code, out, err = run(capsys, "represent", "--property", "sep", "--universe-params", *params)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_represent_rejects_an_empty_universe(capsys):
    code, out, err = run(capsys, "represent", "--property", "sep", "--universe-params", "max-cycle=0")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: a universe needs at least one trace"]


# ------------------------------------------------------------------ refute


def test_refute_full_pool_all_81(capsys):
    pool = [
        str(fixture_path(n))
        for n in ("dgni_not_sep_15", "li_equals_hi_8", "ho_equals_li_8", "lo_equals_hi_8")
    ]
    code, obj, _ = run_json(capsys, "refute", "--property", "dgni", "--pool", *pool)
    assert code == 0
    assert obj["all_refuted"] is True
    assert len(obj["entries"]) == 81
    assert all(e["status"] != "unrefuted" for e in obj["entries"])


def test_refute_partial_pool_leaves_survivors(capsys):
    pool = [str(fixture_path("li_equals_hi_8"))]
    code, obj, _ = run_json(capsys, "refute", "--property", "sep", "--pool", *pool)
    assert code == 1
    assert obj["all_refuted"] is False
    survivors = [e["type"] for e in obj["entries"] if e["status"] == "unrefuted"]
    assert "1:2/1:2" in survivors


def test_refute_nos_pool(capsys):
    pool = [str(fixture_path("nos_two_trace")), str(fixture_path("nos_false_pair"))]
    code, obj, _ = run_json(capsys, "refute", "--property", "nos", "--pool", *pool)
    assert code == 0 and obj["all_refuted"] is True


def test_refute_judges_the_whole_pool_first(tmp_path, capsys):
    # Over the full 16-trace universe every type closes the union, while
    # family H0 misses half the low views: this file alone refutes all 81.
    space, universe = standard_universe()
    h0 = [t for t in universe if t.cycle[0][0] == "0" and t.cycle[0][3] == "0"]
    refutes_all = tmp_path / "refutes_all.json"
    save_strategy_system(
        strategy_system_from_mapping(space, {"H0": h0, "H1": [t for t in universe if t not in h0]}), refutes_all
    )
    code, obj, _ = run_json(capsys, "refute", "--property", "nos", "--pool", str(refutes_all))
    assert code == 0 and obj["all_refuted"] is True
    # H1 owns no trace of its own, so NOS is undefined on this file
    not_injective = tmp_path / "not_injective.json"
    save_strategy_system(strategy_system_from_mapping(space, {"H0": universe[:2], "H1": universe[:1]}), not_injective)
    code, _, err = run(capsys, "refute", "--property", "nos", "--pool", str(refutes_all), str(not_injective))
    assert code == 2 and err.startswith("error:") and "distinguishability" in err


def test_refute_judges_a_strategy_file_by_its_union(tmp_path, capsys):
    ss = F.nos_false_pair()
    union = tmp_path / "union.json"
    union.write_text(json.dumps(system_to_obj(union_system(ss))))
    verdicts = []
    for path in (str(fixture_path("nos_false_pair")), str(union)):
        code, obj, _ = run_json(capsys, "refute", "--property", "sep", "--pool", path)
        witnesses = {e["witness"] for e in obj["entries"]} - {None}
        assert witnesses <= {path}
        verdicts.append((code, obj["all_refuted"], [(e["type"], e["status"]) for e in obj["entries"]]))
    assert verdicts[0] == verdicts[1]
    assert any(status != "unrefuted" for _, status in verdicts[0][2])


def test_refute_nos_rejects_a_plain_system_file(capsys):
    code, out, err = run(capsys, "refute", "--property", "nos", "--pool", str(fixture_path("lo_equals_li_8")))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_refute_labels_witnesses_by_path(tmp_path, capsys):
    # two files with one stem, each refuting types the other does not
    pool = []
    for folder, name in (("a", "li_equals_hi_8"), ("b", "lo_equals_li_8")):
        (tmp_path / folder).mkdir()
        path = tmp_path / folder / "x.json"
        path.write_text(json.dumps(F.fixture_obj(name)))
        pool.append(str(path))
    code, obj, _ = run_json(capsys, "refute", "--property", "sep", "--pool", *pool)
    assert code == 1 and obj["pool"] == pool
    assert {e["witness"] for e in obj["entries"]} == {None, *pool}
    _, out, _ = run(capsys, "refute", "--property", "sep", "--pool", *pool)
    assert all(path in out for path in pool)


def test_refute_rejects_unknown_property(capsys):
    code, _, err = run(capsys, "refute", "--property", "psp", "--pool", str(fixture_path("zl_pair")))
    assert code == 2 and "error:" in err


# -------------------------------------------------------------- strategies


def test_strategies_generate_exact(tmp_path, capsys):
    protocols = tmp_path / "protocols.json"
    protocols.write_text(json.dumps(F.echo_protocols()))
    out_file = tmp_path / "generated.json"
    code, obj, _ = run_json(
        capsys,
        "strategies",
        "generate",
        "--protocols",
        str(protocols),
        "--mode",
        "exact",
        "--out",
        str(out_file),
    )
    assert code == 0
    assert obj["families"] == {"H": 2} and obj["injective"] is True
    assert obj["system"] is None and out_file.exists()
    # the written file is loadable and NOS-checkable through the CLI
    code, _, _ = run(capsys, "check", "--property", "nos", "--system", str(out_file))
    assert code == 0


@pytest.mark.parametrize(
    "out, reason",
    [(".", "Is a directory"), ("missing/generated.json", "No such file or directory")],
    ids=["directory", "missing-parent"],
)
def test_strategies_generate_names_an_out_path_it_cannot_write(tmp_path, capsys, out, reason):
    out_path = tmp_path / out
    code, stdout, err = run(
        capsys, "strategies", "generate", "--protocols", str(fixture_path("echo_protocols")), "--out", str(out_path)
    )
    assert code == 2 and stdout == ""
    assert err == f"error: {out_path}: {reason}\n"


def test_strategies_generate_inline_output(tmp_path, capsys):
    protocols = tmp_path / "protocols.json"
    protocols.write_text(json.dumps(F.echo_protocols()))
    code, obj, _ = run_json(
        capsys, "strategies", "generate", "--protocols", str(protocols), "--mode", "bounded:2"
    )
    assert code == 0
    assert obj["out"] is None and obj["system"] is not None
    assert obj["mode"] == "bounded:2"


def test_strategies_generate_deep_bounded_runs(capsys):
    protocols = str(fixture_path("echo_protocols"))
    code, out, err = run(capsys, "strategies", "generate", "--protocols", protocols, "--mode", "bounded:1500")
    assert code == 0 and err == ""
    assert "mode bounded:1500" in out


def _free_protocols():
    """The echo machine with both users choosing freely on a one-state
    cycle: four runs per step, so ``bounded:n`` gives 4^n traces."""
    return _with(_with(F.echo_protocols(), ["low"], _free_low_user()), ["highs"], {"H": _free_low_user()})


def test_strategies_generate_refuses_a_family_past_the_cap(tmp_path, capsys):
    protocols = tmp_path / "free.json"
    protocols.write_text(json.dumps(_free_protocols()))
    argv = ["strategies", "generate", "--protocols", str(protocols), "--mode"]
    code, obj, err = run_json(capsys, *argv, "bounded:6")
    assert code == 0 and err == ""
    assert obj["families"] == {"H": 4096}
    for deep in ("bounded:7", "bounded:12"):
        code, out, err = run(capsys, *argv, deep)
        assert code == 2 and out == ""
        assert err == f"error: {protocols}: the runs give more than 4096 traces\n"


def test_strategies_generate_bad_mode(tmp_path, capsys):
    protocols = tmp_path / "protocols.json"
    protocols.write_text(json.dumps(F.echo_protocols()))
    code, _, err = run(capsys, "strategies", "generate", "--protocols", str(protocols), "--mode", "sideways")
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------- zl


def test_zl_q_search_found(capsys):
    code, obj, _ = run_json(
        capsys,
        "zl",
        "q-search",
        "--target",
        str(fixture_path("zl_target_singleton")),
        "--universe",
        str(fixture_path("zl_universe_sync")),
    )
    assert code == 0 and obj["found"] is True
    assert obj["accepted_classes"]


def test_zl_q_search_none(capsys):
    code, obj, _ = run_json(
        capsys,
        "zl",
        "q-search",
        "--target",
        str(fixture_path("zl_target_disjunction")),
        "--universe",
        str(fixture_path("zl_universe_sync")),
    )
    assert code == 1 and obj == {"found": False, "accepted_classes": None}
    code, out, _ = run(
        capsys,
        "zl",
        "q-search",
        "--target",
        str(fixture_path("zl_target_disjunction")),
        "--universe",
        str(fixture_path("zl_universe_sync")),
    )
    assert code == 1 and out.strip() == "NONE"


def test_zl_q_search_async(capsys):
    code, obj, _ = run_json(
        capsys,
        "zl",
        "q-search",
        "--target",
        str(fixture_path("zl_target_async")),
        "--universe",
        str(fixture_path("zl_universe_async")),
    )
    assert code == 0 and obj["found"] is True


def test_zl_q_search_answers_21_singleton_systems(tmp_path, capsys):
    space, traces = standard_universe(max_cycle=2)
    alphabets = space_to_obj(space)
    universe = tmp_path / "universe.json"
    universe.write_text(json.dumps({"alphabets": alphabets, "systems": [[trace_to_obj(t)] for t in traces[:21]]}))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"alphabets": alphabets, "systems": [[trace_to_obj(traces[0])]]}))
    code, obj, _ = run_json(capsys, "zl", "q-search", "--target", str(target), "--universe", str(universe))
    assert code == 0 and obj["found"] is True
    assert obj["accepted_classes"] == [[trace_to_obj(traces[0])]]


def test_zl_q_search_rejects_a_duplicate_event_trace(tmp_path, capsys):
    collection = tmp_path / "collection.json"
    events = [{"name": "a", "level": "L"}, {"name": "h", "level": "H"}]
    collection.write_text(json.dumps({"events": events, "systems": [[["h"]], [["a"], ["a"]]]}))
    code, out, err = run(capsys, "zl", "q-search", "--target", str(collection), "--universe", str(collection))
    assert code == 2 and out == ""
    assert "duplicate trace" in err and "system 1" in err


# ------------------------------------------------------------ verify-paper


def test_verify_paper_single_result(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "EX1")
    assert code == 0
    assert "PASS" in out and "EX1" in out


def test_verify_paper_only_list_json(capsys):
    code, obj, _ = run_json(capsys, "verify-paper", "--only", "EX2,EX1,EX2")
    assert code == 0
    assert [e["id"] for e in obj["results"]] == ["EX1", "EX2"]
    assert all(e["passed"] for e in obj["results"])


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_verify_paper_error_exits_two_and_runs_the_rest(capsys, monkeypatch, json_flag):
    from siflab.verify import _REGISTRY

    def boom(ctx):
        raise RuntimeError("broken procedure")

    monkeypatch.setitem(_REGISTRY, "EX1", (*_REGISTRY["EX1"][:2], boom))
    code, out, err = run(capsys, "verify-paper", "--only", "EX1,EX2", *json_flag)
    assert code == 2
    assert err == "error: 1 result(s) raised an exception: EX1\n"
    assert "Traceback" not in out + err
    assert "ERROR: RuntimeError: broken procedure" in out
    if json_flag:
        results = json.loads(out)["results"]
        assert [(e["id"], e["passed"]) for e in results] == [("EX1", False), ("EX2", True)]
    else:
        assert out.splitlines()[0].startswith("ERROR  EX1 ")
        assert out.splitlines()[1].startswith("PASS  EX2 ")


def test_verify_paper_unknown_id(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "EX999")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("only", [",", "", " , "])
def test_verify_paper_empty_selection_is_an_input_error(capsys, only):
    code, out, err = run(capsys, "verify-paper", "--only", only)
    assert code == 2 and out == ""
    assert err == "error: no result id requested\n"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "siflab", "verify-paper", "--only", "EX1"],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS  EX1 ") and "1 results: all PASS" in done.stdout


@pytest.mark.parametrize(
    "argv",
    [("verify-paper", "--json"), ("represent", "--json", "--property", "sep")],
    ids=["verify-paper", "represent"],
)
def test_output_does_not_depend_on_hash_order(argv):
    """Traces hash by address and strings by the hash seed, so set order
    differs from one process to the next; no output may follow it."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "siflab", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2")
    ]
    done = [(p.communicate(), p.returncode) for p in runs]
    (out1, err1), code1 = done[0]
    (out2, _), code2 = done[1]
    assert code1 == code2 == 0, err1
    strip = re.compile(r'"runtime_seconds": [0-9.e+-]+')
    assert strip.sub('"runtime_seconds": 0', out1) == strip.sub('"runtime_seconds": 0', out2)
