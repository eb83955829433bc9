"""Command-line interface: subcommands, exit codes, JSON mode."""

from __future__ import annotations

import json

import pytest

from siflab import fixtures as F
from siflab import standard_universe
from siflab.cli import main
from siflab.fixtures import fixture_path
from siflab.properties import load_strategy_system, save_strategy_system, strategy_system_from_mapping
from siflab.strategies import load_protocols, protocols_from_obj
from siflab.traces import load_system, read_json
from siflab.zl import load_async_system, load_collection


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------- fixtures

_FIXTURE_LOADERS = (
    (F.SYSTEM_FIXTURES, load_system),
    (F.STRATEGY_FIXTURES, load_strategy_system),
    (F.ASYNC_FIXTURES, load_async_system),
    (F.COLLECTION_FIXTURES, load_collection),
    ({"echo_protocols": lambda: protocols_from_obj(F.echo_protocols())}, load_protocols),
)


@pytest.mark.parametrize("name", F.fixture_names())
def test_shipped_fixture_files_are_current(name):
    path = fixture_path(name)
    assert read_json(path) == F.fixture_obj(name)
    [(build, load)] = [(table[name], load) for table, load in _FIXTURE_LOADERS if name in table]
    assert load(path) == build()


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
    ],
    ids=[
        "traces-not-a-list",
        "alphabet-not-a-list",
        "prefix-not-a-list",
        "collection-member",
        "not-utf8",
        "protocol-choice-not-a-pair",
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


def test_closure_requires_a_subject(capsys):
    code, _, err = run(capsys, "closure", "--system", str(fixture_path("zl_pair")))
    assert code == 2 and "error:" in err


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


def test_verify_paper_unknown_id(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "EX999")
    assert code == 2 and "error:" in err
