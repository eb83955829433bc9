"""Command-line workbench.

Exit codes: 0 when the queried condition holds (property satisfied,
closure holds, predicate found, all results pass), 1 when it does not,
2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .enumeration import (
    BitUniverse,
    check_candidates,
    enumerate_traces,
    represents_over_universe,
    uniform_alphabets,
)
from .errors import CapExceeded, FormatError, SiflabError
from .properties import (
    PropertyKind,
    check_injectivity,
    check_nos,
    check_property,
    require_injectivity,
    save_strategy_system,
    strategy_system_from_obj,
    strategy_system_to_obj,
)
from .siftypes import (
    closed_under_type,
    enumerate_types,
    format_type,
    parse_type,
    property_predicate,
    refute_all_types,
)
from .strategies import GenerationMode, build_strategy_system, protocols_from_obj
from .traces import TraceSpace, format_trace, load_json, system_from_obj, trace_to_obj
from .verify import VerifyContext, verify_paper
from .zl import async_system_from_obj, collection_from_obj, psp_check, zl_q_search

PLAIN_PROPERTIES = ("sep", "gni", "rgni", "dgni")


def _emit(args, obj: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(obj, indent=1, sort_keys=True))
    else:
        for line in human:
            print(line)


def _trace_json(t):
    if isinstance(t, tuple):
        return list(t)
    return trace_to_obj(t)


def _format_member(t) -> str:
    if isinstance(t, tuple):
        return "<" + ",".join(t) + ">" if t else "<>"
    return format_trace(t)


# ------------------------------------------------------------------- check


def _nos_system_from_obj(obj):
    """A strategy system NOS is defined on, checked as its file is read,
    so a precondition error names the file."""
    return require_injectivity(strategy_system_from_obj(obj))


def _cmd_check(args) -> int:
    prop = args.property
    if prop in PLAIN_PROPERTIES:
        s = load_json(args.system, system_from_obj)
        holds = check_property(PropertyKind(prop), s)
        size = len(s)
    elif prop == "nos":
        ss = load_json(args.system, _nos_system_from_obj)
        holds = check_nos(ss)
        size = len(ss.union)
    else:  # psp
        s = load_json(args.system, async_system_from_obj)
        holds = psp_check(s)
        size = len(s)
    _emit(
        args,
        {"property": prop, "path": args.system, "traces": size, "holds": holds},
        [f"{prop} on {args.system} ({size} traces): {'holds' if holds else 'fails'}"],
    )
    return 0 if holds else 1


# ----------------------------------------------------------------- closure


def _cmd_closure(args) -> int:
    s = load_json(args.system, system_from_obj)
    if args.gen_conj:
        t1, t2 = (parse_type(lit) for lit in args.gen_conj)
        closed = closed_under_type(s, t1) and closed_under_type(s, t2)
        what = f"paired family [{format_type(t1)}, {format_type(t2)}]"
    else:
        t = parse_type(args.type)
        closed = closed_under_type(s, t)
        what = f"type {format_type(t)}"
    _emit(
        args,
        {"path": args.system, "subject": what, "closed": closed},
        [f"{args.system} closed under {what}: {'yes' if closed else 'no'}"],
    )
    return 0 if closed else 1


# --------------------------------------------------------------- represent


def _parse_universe_params(pairs) -> dict:
    params = {"alphabet-size": 2, "max-prefix": 0, "max-cycle": 1, "cap": 1 << 20}
    for item in pairs or ():
        if "=" not in item:
            raise FormatError(f"universe parameter {item!r} is not KEY=VALUE")
        key, _, value = item.partition("=")
        if key not in params:
            raise FormatError(f"unknown universe parameter {key!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise FormatError(f"universe parameter {key!r} needs an integer, got {value!r}")
    return params


def _cmd_represent(args) -> int:
    prop = args.property
    if prop not in PLAIN_PROPERTIES:
        raise FormatError("represent supports the trace-set properties: " + ", ".join(PLAIN_PROPERTIES))
    params = _parse_universe_params(args.universe_params)
    size = params["alphabet-size"]
    # refused from the parameters, before the alphabet is built; a size
    # below 1 counts no letters here and is refused by uniform_alphabets
    check_candidates(max(size, 0) ** 4, params["max-prefix"], params["max-cycle"], params["cap"])
    space = TraceSpace(uniform_alphabets(size))
    traces = enumerate_traces(space, params["max-prefix"], params["max-cycle"], cap=params["cap"])
    bu = BitUniverse(space, traces)
    n_systems = (1 << len(traces)) - 1
    if n_systems > params["cap"]:
        raise CapExceeded(f"{n_systems} systems exceed the cap of {params['cap']}")
    kind = PropertyKind(prop)
    wanted = [parse_type(args.type)] if args.type else list(enumerate_types())
    representing = []
    counterexamples = {}
    for t in wanted:
        ok, counter = represents_over_universe(bu, t, kind)
        if ok:
            representing.append(t)
        elif args.type:
            counterexamples[format_type(t)] = bu.describe_mask(counter)
    human = [
        f"property {prop} over {n_systems} systems ({len(traces)} traces): "
        f"represented by {len(representing)} of {len(wanted)} type(s)"
    ]
    human.extend(f"  {format_type(t)}" for t in representing)
    for lit, counter in counterexamples.items():
        human.append(f"  {lit} fails on {counter}")
    _emit(
        args,
        {
            "property": prop,
            "universe_traces": len(traces),
            "universe_systems": n_systems,
            "types": [format_type(t) for t in representing],
            "counterexamples": counterexamples,
        },
        human,
    )
    return 0 if representing else 1


# ------------------------------------------------------------------ refute


def _pool_member_from_obj(obj):
    if isinstance(obj, dict) and "families" in obj:
        return strategy_system_from_obj(obj)
    return system_from_obj(obj)


def _cmd_refute(args) -> int:
    prop = args.property
    if prop not in PLAIN_PROPERTIES + ("nos",):
        raise FormatError("refute supports sep, gni, rgni, dgni and nos")
    build = _nos_system_from_obj if prop == "nos" else _pool_member_from_obj
    pool = [(path, load_json(path, build)) for path in args.pool]
    report = refute_all_types(property_predicate(prop), pool)
    n_unrefuted = len(report.unrefuted)
    human = report.lines()
    human.append(
        "all 81 types refuted"
        if report.all_refuted
        else f"{n_unrefuted} type(s) unrefuted over this pool"
    )
    _emit(
        args,
        {
            "property": prop,
            "pool": list(args.pool),
            "all_refuted": report.all_refuted,
            "entries": [
                {"type": format_type(e.type), "status": e.status, "witness": e.witness}
                for e in report.entries
            ],
        },
        human,
    )
    return 0 if report.all_refuted else 1


# -------------------------------------------------------------- strategies


def _cmd_strategies_generate(args) -> int:
    mode = GenerationMode.parse(args.mode)
    # generated inside the file's build step, so a protocol error names the file
    ss = load_json(args.protocols, lambda obj: build_strategy_system(*protocols_from_obj(obj), mode))
    if args.out:
        save_strategy_system(ss, args.out)
    injective = check_injectivity(ss)
    sizes = {name: len(fam) for name, fam in ss.families}
    union_size = len(ss.union)
    human = [
        f"generated {len(sizes)} families in mode {mode}: "
        + ", ".join(f"{name}:{n}" for name, n in sizes.items()),
        f"union: {union_size} traces; injectivity: {'ok' if injective else 'VIOLATED'}",
    ]
    if args.out:
        human.append(f"written to {args.out}")
    _emit(
        args,
        {
            "mode": str(mode),
            "families": sizes,
            "union_traces": union_size,
            "injective": injective,
            "out": args.out,
            "system": None if args.out else strategy_system_to_obj(ss),
        },
        human,
    )
    return 0


# ---------------------------------------------------------------------- zl


def _cmd_zl_q_search(args) -> int:
    target = load_json(args.target, collection_from_obj)
    universe = load_json(args.universe, collection_from_obj)
    q = zl_q_search(target, universe)
    if q is None:
        _emit(args, {"found": False, "accepted_classes": None}, ["NONE"])
        return 1
    classes = sorted(
        ([_format_member(t) for t in sorted(c, key=_format_member)] for c in q.accepted),
        key=lambda c: (len(c), c),
    )
    human = [f"Q accepts {len(classes)} low-view class(es):"]
    human.extend("  {" + ", ".join(c) + "}" for c in classes)
    json_classes = [
        [_trace_json(t) for t in sorted(c, key=_format_member)] for c in q.accepted
    ]
    _emit(args, {"found": True, "accepted_classes": json_classes}, human)
    return 0


# ------------------------------------------------------------ verify-paper


def _cmd_verify_paper(args) -> int:
    ids = None
    if args.only is not None:
        ids = [part.strip() for part in args.only.split(",") if part.strip()]
    context = VerifyContext()
    report = verify_paper(ids, context)
    _emit(args, report.to_obj(), report.lines())
    if report.errors:
        failed = ", ".join(o.result_id for o in report.errors)
        print(f"error: {len(report.errors)} result(s) raised an exception: {failed}", file=sys.stderr)
        return 2
    return 0 if report.all_passed else 1


# ------------------------------------------------------------------ parser


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siflab",
        description="Workbench for trace-set security properties and interleaving-function closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a property of a system file")
    p.add_argument("--property", required=True, choices=PLAIN_PROPERTIES + ("nos", "psp"))
    p.add_argument("--system", required=True, help="system / strategy-system / event-system file")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("closure", help="check closure of a system under a type or paired family")
    subject = p.add_mutually_exclusive_group(required=True)
    subject.add_argument("--type", help='type literal "a:b/c:d" with 0=free, 1=first, 2=second')
    subject.add_argument("--gen-conj", nargs=2, metavar=("T1", "T2"), help="two type literals")
    p.add_argument("--system", required=True)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("represent", help="which types represent a property over an enumerated universe")
    p.add_argument("--property", required=True)
    p.add_argument(
        "--universe-params",
        nargs="*",
        metavar="KEY=VALUE",
        help="alphabet-size, max-prefix, max-cycle, cap (defaults: 2, 0, 1, 1048576)",
    )
    p.add_argument("--type", help="restrict to one type literal")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("refute", help="refute all 81 types against a witness pool")
    p.add_argument("--property", required=True)
    p.add_argument("--pool", required=True, nargs="+", metavar="FILE")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("strategies", help="protocol-driven generation")
    strategies_sub = p.add_subparsers(dest="strategies_command", required=True)
    g = strategies_sub.add_parser("generate", help="run protocols and emit a strategy system")
    g.add_argument("--protocols", required=True, help="protocol file (system, low, highs)")
    g.add_argument("--mode", default="exact", help='"exact" or "bounded:N"')
    g.add_argument("--out", help="write the strategy system here")
    _add_json_flag(g)
    g.set_defaults(func=_cmd_strategies_generate)

    p = sub.add_parser("zl", help="low-view-local property tools")
    zl_sub = p.add_subparsers(dest="zl_command", required=True)
    q = zl_sub.add_parser("q-search", help="search for a predicate realizing a target")
    q.add_argument("--target", required=True, help="collection file of target systems")
    q.add_argument("--universe", required=True, help="collection file of candidate systems")
    _add_json_flag(q)
    q.set_defaults(func=_cmd_zl_q_search)

    p = sub.add_parser("verify-paper", help="reproduce the bundled result catalogue")
    p.add_argument("--only", help="comma-separated result ids (default: all)")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SiflabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
