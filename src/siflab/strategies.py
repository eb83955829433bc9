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
collects all length-n finite traces and accepts any nondeterminism.  In
either mode a family past ``FAMILY_TRACE_CAP`` traces is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Mapping, Sequence

from .errors import CapExceeded, FormatError, ProtocolError, RunExplosion
from .properties import StrategySystem, union_system
from .traces import H_VIEW, LassoTrace, System, TraceSpace, _canonical_form, _coerce_symbol, _list, view

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
            choices = self.emit.get(s)
            if not choices or len(set(choices)) < len(choices):
                raise ProtocolError(f"state {s!r} has no emission choices or repeats one")
            for sym in choices:
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
        if not outs or len(set(outs)) < len(outs):
            raise ProtocolError(f"system output for state={state!r} hi={hi!r} li={li!r} is empty or repeats a choice")
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

# The most traces a family of :func:`build_strategy_system` may hold.  No
# protocol lists a choice twice, so no two runs give one trace and the
# run search stops one run past the cap, at any depth.
FAMILY_TRACE_CAP = 4096


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
    hi = {sym for h in hs for syms in h.emit.values() for sym in syms}
    li = {sym for syms in pl.emit.values() for sym in syms}
    ho = {a for outs in ps.output.values() for a, _ in outs}
    lo = {b for outs in ps.output.values() for _, b in outs}
    if not (hi and li and ho and lo):
        raise ProtocolError("could not derive nonempty alphabets from the protocol tables")
    return TraceSpace({"hi": sorted(hi), "li": sorted(li), "ho": sorted(ho), "lo": sorted(lo)})


def _expand_exact(ps: SystemProtocol, pl: UserProtocol, h: UserProtocol, memo: dict) -> None:
    """Exact mode's check for one family, filling ``memo`` with the moves
    of every reachable joint state.

    A table error anywhere reachable raises :class:`ProtocolError` and
    wins over a choice on a cycle, which raises :class:`RunExplosion`.
    """
    initial: JointState = (ps.initial, pl.initial, h.initial)
    todo = [initial]
    while todo:
        js = todo.pop()
        if js not in memo:
            memo[js] = got = _moves(ps, pl, h, js)
            todo.extend(nxt for _, nxt in got[0])
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


def _run_keys(
    ps: SystemProtocol, pl: UserProtocol, h: UserProtocol, memo: dict, bound: int | None, max_traces: int
) -> set[tuple[tuple, tuple]]:
    """The runs of one family as canonical ``(prefix, cycle)`` keys.

    Depth-first over runs.  With ``bound`` None (exact mode, after
    :func:`_expand_exact`) a run closes when it re-enters a state on its
    own path and gives the canonical form of its lasso; otherwise it
    closes at ``bound`` tuples and gives ``(word, ())``.  Moves missing
    from ``memo`` are computed and kept there.  Past ``max_traces`` keys
    it raises :class:`CapExceeded`.
    """

    def moves(js: JointState) -> list:
        got = memo.get(js)
        if got is None:
            got = memo[js] = _moves(ps, pl, h, js)
        return got[0]

    initial: JointState = (ps.initial, pl.initial, h.initial)
    keys: set[tuple[tuple, tuple]] = set()
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
        if bound is None and nxt in entered:
            at = entered[nxt]
            keys.add(_canonical_form(tuple(emitted[:at]), tuple(emitted[at:])))
        elif len(emitted) == bound:
            keys.add((tuple(emitted), ()))
        else:
            if bound is None:
                entered[nxt] = len(emitted)
            path.append((nxt, iter(moves(nxt))))
            continue
        emitted.pop()
        if len(keys) > max_traces:
            raise CapExceeded(f"the runs give more than {max_traces} traces")
    return keys


def _system_of_keys(space: TraceSpace, keys) -> System:
    """The system of canonical ``(prefix, cycle)`` keys."""
    return System(space, starmap(LassoTrace, keys))


def _family_keys(
    ps: SystemProtocol, pl: UserProtocol, highs: list[UserProtocol], bound: int | None, max_traces: int, memos
) -> list[set[tuple[tuple, tuple]]]:
    """Per high protocol, the :func:`_run_keys` of its family, which keeps
    its moves in its dict of ``memos``.  Exact mode (``bound`` None) checks
    every family before it enumerates any family's runs, so a choice on a
    cycle in any family raises :class:`RunExplosion` before a cap is
    tested; a later call on the same memos reuses the check's moves."""
    if bound is None:
        for h, memo in zip(highs, memos):
            _expand_exact(ps, pl, h, memo)
    return [_run_keys(ps, pl, h, memo, bound, max_traces) for h, memo in zip(highs, memos)]


def build_strategy_system(
    ps: SystemProtocol,
    pl: UserProtocol,
    hs: Mapping[str, UserProtocol],
    mode: GenerationMode,
) -> StrategySystem:
    """Run every named high protocol against the shared pair (system, low
    user).  Past ``FAMILY_TRACE_CAP`` traces in one family it raises
    :class:`CapExceeded`, and exact mode checks every family first
    (:func:`_family_keys`).
    """
    if not hs:
        raise FormatError("at least one high protocol is required")
    highs = list(hs.values())
    space = derive_space(ps, pl, highs)
    keys = _family_keys(ps, pl, highs, mode.bound, FAMILY_TRACE_CAP, [{} for _ in highs])
    return StrategySystem(tuple(zip(hs, (_system_of_keys(space, k) for k in keys))))


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
    where = f"{label} protocol"
    try:
        states = tuple(map(_coerce_symbol, _list(obj["states"], f"{where} states")))
        initial = _coerce_symbol(obj["initial"])
        emit = {
            _coerce_symbol(e["state"]): tuple(map(_coerce_symbol, _list(e["choices"], f"{where} choices")))
            for e in _list(obj["emit"], f"{where} emit")
        }
        update = {
            tuple(map(_coerce_symbol, (u["state"], u["input"], u["output"]))): _coerce_symbol(u["next"])
            for u in _list(obj["update"], f"{where} update")
        }
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{label}: malformed user protocol ({exc})") from exc
    return UserProtocol(states, initial, emit, update)


def _choice_pair(obj) -> tuple[Symbol, Symbol]:
    """One system-protocol choice; a list that is not a pair raises ``ValueError``."""
    hi, lo = _list(obj, "a system protocol choice")
    return _coerce_symbol(hi), _coerce_symbol(lo)


def _system_protocol_from_obj(obj) -> SystemProtocol:
    try:
        states = tuple(map(_coerce_symbol, _list(obj["states"], "system protocol states")))
        initial = _coerce_symbol(obj["initial"])
        output = {
            tuple(map(_coerce_symbol, (e["state"], e["hi"], e["li"]))): tuple(
                _choice_pair(c) for c in _list(e["choices"], "system protocol choices")
            )
            for e in _list(obj["output"], "system protocol output")
        }
        update = {
            tuple(map(_coerce_symbol, (u["state"], u["hi"], u["li"], u["ho"], u["lo"]))): _coerce_symbol(u["next"])
            for u in _list(obj["update"], "system protocol update")
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
    hs = {_coerce_symbol(name): _user_protocol_from_obj(sub, name) for name, sub in obj["highs"].items()}
    return ps, pl, hs
