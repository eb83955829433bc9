"""Command-line workbench.

Exit codes: 0 when the queried condition holds (property satisfied,
closure holds, predicate found, all results pass), 1 when it does not,
2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .enumeration import BitUniverse, enumerate_traces, represents_over_universe, uniform_alphabets
from .errors import CapExceeded, FormatError, SiflabError
from .families import closed_under_family, conj_family
from .properties import (
    PropertyKind,
    check_nos,
    check_property,
    load_strategy_system,
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
from .strategies import GenerationMode, build_strategy_system, load_protocols
from .traces import TraceSpace, format_trace, load_system, read_json, system_from_obj, trace_to_obj
from .verify import VerifyContext, verify_paper
from .zl import load_async_system, load_collection, psp_check, zl_q_search

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


def _cmd_check(args) -> int:
    prop = args.property
    if prop in PLAIN_PROPERTIES:
        s = load_system(args.system)
        holds = check_property(PropertyKind(prop), s)
        size = len(s)
    elif prop == "nos":
        ss = load_strategy_system(args.system)
        holds = check_nos(ss)
        size = sum(len(fam) for _, fam in ss.families)
    else:  # psp
        s = load_async_system(args.system)
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
    s = load_system(args.system)
    if args.gen_conj:
        t1, t2 = (parse_type(lit) for lit in args.gen_conj)
        closed = closed_under_family(s, conj_family(t1, t2))
        what = f"paired family [{format_type(t1)}, {format_type(t2)}]"
    elif args.type:
        t = parse_type(args.type)
        closed = closed_under_type(s, t)
        what = f"type {format_type(t)}"
    else:
        raise FormatError("closure needs --type or --gen-conj")
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
    space = TraceSpace(uniform_alphabets(params["alphabet-size"]))
    traces = enumerate_traces(space, params["max-prefix"], params["max-cycle"], cap=params["cap"])
    bu = BitUniverse(space, traces)
    n_systems = (1 << len(traces)) - 1
    if n_systems > params["cap"]:
        raise CapExceeded(f"{n_systems} systems exceed the cap of {params['cap']}", params["cap"])
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


def _load_pool_member(path: str):
    obj = read_json(path)
    if isinstance(obj, dict) and "families" in obj:
        return strategy_system_from_obj(obj)
    return system_from_obj(obj)


def _cmd_refute(args) -> int:
    prop = args.property
    if prop not in PLAIN_PROPERTIES + ("nos",):
        raise FormatError("refute supports sep, gni, rgni, dgni and nos")
    load = load_strategy_system if prop == "nos" else _load_pool_member
    pool = [(path, load(path)) for path in args.pool]
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
    ps, pl, hs = load_protocols(args.protocols)
    mode = GenerationMode.parse(args.mode)
    ss = build_strategy_system(ps, pl, hs, mode)
    if args.out:
        save_strategy_system(ss, args.out)
    from .properties import check_injectivity, union_system

    injective = check_injectivity(ss)
    sizes = {name: len(fam) for name, fam in ss.families}
    union_size = len(union_system(ss))
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
    target = load_collection(args.target)
    universe = load_collection(args.universe)
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
    if args.only:
        ids = [part.strip() for part in args.only.split(",") if part.strip()]
    context = VerifyContext()
    report = verify_paper(ids, context)
    _emit(args, report.to_obj(), report.lines())
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
    p.add_argument("--type", help='type literal "a:b/c:d" with 0=free, 1=first, 2=second')
    p.add_argument("--gen-conj", nargs=2, metavar=("T1", "T2"), help="two type literals")
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
