"""The CLI contract under mutated input files.

Each example takes a shipped fixture's JSON, often one of another kind
than the subcommand reads, applies zero to three mutations (drop a key,
give a value a JSON value of another type, duplicate or delete a list
entry) and runs one subcommand on it in process.  Whatever the input,
the exit code is 0, 1 or 2, no exception escapes, and an input error is
reported as one ``error:`` line.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from siflab import fixtures as F
from siflab.cli import main
from siflab.fixtures import fixture_path

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(-1, 1), st.text("01ab", max_size=2))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=4,
)

# Each subcommand, with the fixtures of the kind it reads.  ``{}`` is the
# mutated file; ``other`` is an unchanged file of the same kind.
COMMANDS = [
    *((["check", "--property", p, "--system", "{}"], F.SYSTEM_FIXTURES) for p in ("sep", "gni", "rgni", "dgni")),
    (["check", "--property", "nos", "--system", "{}"], F.STRATEGY_FIXTURES),
    (["check", "--property", "psp", "--system", "{}"], F.ASYNC_FIXTURES),
    (["closure", "--type", "1:2/0:2", "--system", "{}"], F.SYSTEM_FIXTURES),
    (["closure", "--gen-conj", "1:2/0:2", "1:2/1:0", "--system", "{}"], F.SYSTEM_FIXTURES),
    *((["refute", "--property", p, "--pool", "{}", "other"], F.SYSTEM_FIXTURES) for p in ("sep", "dgni")),
    (["refute", "--property", "nos", "--pool", "{}", "other"], F.STRATEGY_FIXTURES),
    (["zl", "q-search", "--target", "{}", "--universe", "other"], F.COLLECTION_FIXTURES),
    (["zl", "q-search", "--target", "other", "--universe", "{}"], F.COLLECTION_FIXTURES),
    (["strategies", "generate", "--protocols", "{}", "--mode", "bounded:3"], ["echo_protocols"]),
]


def _containers(obj, path=()):
    """Paths to every nonempty dict or list inside ``obj``."""
    if isinstance(obj, (dict, list)) and obj:
        yield path
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _containers(value, path + (key,))


def _mutate(data, obj):
    obj = copy.deepcopy(obj)
    for _ in range(data.draw(st.integers(0, 3))):
        paths = list(_containers(obj))
        if not paths:
            break
        node = obj
        for key in data.draw(st.sampled_from(paths)):
            node = node[key]
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        ops = ["drop", "retype"] + (["duplicate"] if isinstance(node, list) else [])
        op = data.draw(st.sampled_from(ops))
        if op == "drop":
            del node[key]
        elif op == "duplicate":
            node.insert(key, copy.deepcopy(node[key]))
        else:
            old = type(node[key])
            node[key] = data.draw(VALUES.filter(lambda v: type(v) is not old))
    return obj


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_code_contract(tmp_path_factory, data):
    argv, kind = data.draw(st.sampled_from(COMMANDS))
    names = sorted(kind)
    name = data.draw(st.sampled_from(names) | st.sampled_from(F.fixture_names()))
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(_mutate(data, F.fixture_obj(name))))
    other = str(fixture_path(data.draw(st.sampled_from(names))))
    argv = [str(path) if a == "{}" else other if a == "other" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
