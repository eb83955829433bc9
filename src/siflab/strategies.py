"""Finite-state protocols and trace-set generation.

One system protocol and two user protocols (low user, high user) run in
lockstep.  Within a step both users emit their inputs simultaneously and
independently, the system then emits both outputs seeing the two current
inputs, and all three update.  A user's next choice may depend only on
its own past inputs and outputs; the system sees everything.

Exact mode enumerates the complete set of eventually periodic runs as
canonical lassos.  It requires every reachable cycle of the joint-state
graph to be choice-free; a nondeterministic choice on a cycle yields
infinitely many distinct runs and is reported as an error.  Bounded mode
collects all length-n finite traces and accepts any nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import FormatError, ProtocolError, RunExplosion
from .properties import StrategySystem, union_system
from .traces import H_VIEW, LassoTrace, System, TraceSpace, canonicalize, read_json, view

Symbol = str
State = str


@dataclass(frozen=True)
class UserProtocol:
    """Emission and update tables for one user.

    ``emit[state]`` is the nonempty set of inputs the user may provide;
    ``update[(state, own_input, own_output)]`` is the next state.
    """

    states: tuple[State, ...]
    initial: State
    emit: Mapping[State, tuple[Symbol, ...]]
    update: Mapping[tuple[State, Symbol, Symbol], State]

    def __post_init__(self):
        if self.initial not in self.states:
            raise ProtocolError(f"initial state {self.initial!r} not among states")
        for s in self.states:
            if not self.emit.get(s):
                raise ProtocolError(f"state {s!r} has no emission choices")
            for sym in self.emit[s]:
                if not isinstance(sym, str):
                    raise ProtocolError("symbols must be strings")

    def step(self, state: State, own_input: Symbol, own_output: Symbol) -> State:
        try:
            nxt = self.update[(state, own_input, own_output)]
        except KeyError:
            raise ProtocolError(
                f"user update undefined for state={state!r} input={own_input!r} output={own_output!r}"
            ) from None
        if nxt not in self.states:
            raise ProtocolError(f"update leads to unknown state {nxt!r}")
        return nxt


@dataclass(frozen=True)
class SystemProtocol:
    """Output and update tables for the machine both users talk to.

    ``output[(state, hi, li)]`` is the nonempty set of (high output,
    low output) pairs; ``update[(state, hi, li, ho, lo)]`` is the next
    state.
    """

    states: tuple[State, ...]
    initial: State
    output: Mapping[tuple[State, Symbol, Symbol], tuple[tuple[Symbol, Symbol], ...]]
    update: Mapping[tuple[State, Symbol, Symbol, Symbol, Symbol], State]

    def __post_init__(self):
        if self.initial not in self.states:
            raise ProtocolError(f"initial state {self.initial!r} not among states")

    def choices(self, state: State, hi: Symbol, li: Symbol) -> tuple[tuple[Symbol, Symbol], ...]:
        try:
            outs = self.output[(state, hi, li)]
        except KeyError:
            raise ProtocolError(f"system output undefined for state={state!r} hi={hi!r} li={li!r}") from None
        if not outs:
            raise ProtocolError(f"system output empty for state={state!r} hi={hi!r} li={li!r}")
        return outs

    def step(self, state: State, hi: Symbol, li: Symbol, ho: Symbol, lo: Symbol) -> State:
        try:
            nxt = self.update[(state, hi, li, ho, lo)]
        except KeyError:
            raise ProtocolError(
                f"system update undefined for state={state!r} tuple=({hi},{li},{ho},{lo})"
            ) from None
        if nxt not in self.states:
            raise ProtocolError(f"update leads to unknown state {nxt!r}")
        return nxt


@dataclass(frozen=True)
class GenerationMode:
    """Exact lasso enumeration (``bound is None``) or all length-n prefixes."""

    bound: int | None = None

    def __post_init__(self):
        if self.bound is not None and self.bound < 1:
            raise FormatError("a bounded mode needs n >= 1")

    @classmethod
    def exact(cls) -> "GenerationMode":
        return cls(None)

    @classmethod
    def bounded(cls, n: int) -> "GenerationMode":
        return cls(n)

    @classmethod
    def parse(cls, literal: str) -> "GenerationMode":
        lit = literal.strip().lower()
        if lit == "exact":
            return cls.exact()
        if lit.startswith("bounded:"):
            try:
                return cls.bounded(int(lit.split(":", 1)[1]))
            except ValueError:
                pass
        raise FormatError(f'mode must be "exact" or "bounded:N", got {literal!r}')

    def __str__(self) -> str:
        return "exact" if self.bound is None else f"bounded:{self.bound}"


JointState = tuple[State, State, State]  # system, low user, high user


def _moves(ps: SystemProtocol, pl: UserProtocol, h: UserProtocol, js: JointState):
    """All (emitted 4-tuple, next joint state) moves from ``js``, plus the
    number of distinct choices available."""
    s_sys, s_l, s_h = js
    moves = []
    count = 0
    for hi in h.emit[s_h]:
        for li in pl.emit[s_l]:
            outs = ps.choices(s_sys, hi, li)
            count += len(outs)
            for ho, lo in outs:
                tup = (hi, li, ho, lo)
                nxt = (
                    ps.step(s_sys, hi, li, ho, lo),
                    pl.step(s_l, li, lo),
                    h.step(s_h, hi, ho),
                )
                moves.append((tup, nxt))
    return moves, count


def derive_space(ps: SystemProtocol, pl: UserProtocol, hs: Sequence[UserProtocol]) -> TraceSpace:
    """Alphabets read off the protocol tables."""
    hi: set[str] = set()
    for h in hs:
        for syms in h.emit.values():
            hi.update(syms)
    li: set[str] = set()
    for syms in pl.emit.values():
        li.update(syms)
    ho: set[str] = set()
    lo: set[str] = set()
    for outs in ps.output.values():
        for a, b in outs:
            ho.add(a)
            lo.add(b)
    if not (hi and li and ho and lo):
        raise ProtocolError("could not derive nonempty alphabets from the protocol tables")
    return TraceSpace({"hi": sorted(hi), "li": sorted(li), "ho": sorted(ho), "lo": sorted(lo)})


def generate_sigma_h(
    ps: SystemProtocol,
    pl: UserProtocol,
    h: UserProtocol,
    mode: GenerationMode,
    space: TraceSpace | None = None,
) -> System:
    """The trace set of the composed machine under ``mode``."""
    if space is None:
        space = derive_space(ps, pl, [h])
    initial: JointState = (ps.initial, pl.initial, h.initial)
    memo: dict[JointState, tuple[list, int]] = {}

    def moves(js: JointState) -> list:
        if js not in memo:
            memo[js] = _moves(ps, pl, h, js)
        return memo[js][0]

    if mode.bound is None:
        # Expand every reachable state first, so a table error wins.
        todo = [initial]
        while todo:
            js = todo.pop()
            if js not in memo:
                todo.extend(nxt for _, nxt in moves(js))
        # Peel off the states of in-degree 0.  The rest lie on a cycle or
        # after one, and a run leaves a cycle only through a choice on it,
        # so a choice is left over exactly when one lies on a cycle.
        indegree = dict.fromkeys(memo, 0)
        for outs, _ in memo.values():
            for _, nxt in outs:
                indegree[nxt] += 1
        peel = [js for js, d in indegree.items() if d == 0]
        while peel:
            js = peel.pop()
            del indegree[js]
            for _, nxt in memo[js][0]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    peel.append(nxt)
        for js in indegree:
            if memo[js][1] > 1:
                raise RunExplosion(
                    f"nondeterministic choice at joint state {js!r} lies on or after a reachable cycle; "
                    "use a bounded mode instead"
                )

    # Depth-first over runs; exact mode closes a run when it re-enters a
    # state on its own path, bounded mode when it has ``mode.bound`` tuples.
    traces: set[LassoTrace] = set()
    emitted: list = []
    entered = {initial: 0}  # exact mode: the path's states and where each begins
    path = [(initial, iter(moves(initial)))]
    while path:
        step = next(path[-1][1], None)
        if step is None:
            entered.pop(path.pop()[0], None)
            if emitted:
                emitted.pop()
            continue
        tup, nxt = step
        emitted.append(tup)
        if mode.bound is None and nxt in entered:
            traces.add(canonicalize(emitted[: entered[nxt]], emitted[entered[nxt] :]))
        elif len(emitted) == mode.bound:
            traces.add(canonicalize(emitted, ()))
        else:
            if mode.bound is None:
                entered[nxt] = len(emitted)
            path.append((nxt, iter(moves(nxt))))
            continue
        emitted.pop()
    return System(space, traces)


def build_strategy_system(
    ps: SystemProtocol,
    pl: UserProtocol,
    hs: Mapping[str, UserProtocol],
    mode: GenerationMode,
    space: TraceSpace | None = None,
) -> StrategySystem:
    """Run every named high protocol against the shared pair (system, low user)."""
    if not hs:
        raise FormatError("at least one high protocol is required")
    if space is None:
        space = derive_space(ps, pl, list(hs.values()))
    families = tuple((name, generate_sigma_h(ps, pl, h, mode, space)) for name, h in hs.items())
    return StrategySystem(families)


def family_h_view_determined(ss: StrategySystem) -> bool:
    """Whether family membership follows the high view.

    For generated systems this always holds: if some union trace shares
    its high view with a member of a family, the family's protocol can
    replay that trace (the low user's and machine's choices are read off
    the trace itself, the high user's off the matching member).  This is
    the step that turns separability of the union into per-family low
    view coverage.
    """
    for t in union_system(ss).traces:
        hv = view(t, H_VIEW)
        for _, fam in ss.families:
            if t in fam:
                continue
            if any(view(u, H_VIEW) == hv for u in fam):
                return False
    return True


def _user_protocol_from_obj(obj, label: str) -> UserProtocol:
    try:
        states = tuple(str(s) for s in obj["states"])
        initial = str(obj["initial"])
        emit = {str(e["state"]): tuple(str(c) for c in e["choices"]) for e in obj["emit"]}
        update = {
            (str(u["state"]), str(u["input"]), str(u["output"])): str(u["next"]) for u in obj["update"]
        }
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{label}: malformed user protocol ({exc})") from exc
    return UserProtocol(states, initial, emit, update)


def _system_protocol_from_obj(obj) -> SystemProtocol:
    try:
        states = tuple(str(s) for s in obj["states"])
        initial = str(obj["initial"])
        output = {
            (str(e["state"]), str(e["hi"]), str(e["li"])): tuple(
                (str(a), str(b)) for a, b in e["choices"]
            )
            for e in obj["output"]
        }
        update = {
            (str(u["state"]), str(u["hi"]), str(u["li"]), str(u["ho"]), str(u["lo"])): str(u["next"])
            for u in obj["update"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed system protocol ({exc})") from exc
    return SystemProtocol(states, initial, output, update)


def protocols_from_obj(obj) -> tuple[SystemProtocol, UserProtocol, dict[str, UserProtocol]]:
    if not isinstance(obj, dict) or {"system", "low", "highs"} - set(obj):
        raise FormatError('a protocol file must contain "system", "low" and "highs"')
    ps = _system_protocol_from_obj(obj["system"])
    pl = _user_protocol_from_obj(obj["low"], "low")
    if not isinstance(obj["highs"], dict) or not obj["highs"]:
        raise FormatError('"highs" must be a nonempty object of named user protocols')
    hs = {str(name): _user_protocol_from_obj(sub, name) for name, sub in obj["highs"].items()}
    return ps, pl, hs


def load_protocols(path: str | Path) -> tuple[SystemProtocol, UserProtocol, dict[str, UserProtocol]]:
    return protocols_from_obj(read_json(path))
