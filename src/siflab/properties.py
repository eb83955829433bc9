"""Deciders for trace-set security properties.

SEP, GNI, RGNI and DGNI are pair-quantified conditions on a single trace
set: for every ordered pair of member traces there must exist a member
combining fixed views of the two.  NOS is a condition on a strategy
system, a named family of trace sets produced by running one high
protocol at a time: every member's low view must be reproducible inside
every family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from pathlib import Path
from typing import Iterable, Mapping

from .errors import FormatError, InjectivityError
from .traces import (
    H_VIEW,
    HI_VIEW,
    L_VIEW,
    LI_VIEW,
    VIEW_KEY,
    System,
    TraceSpace,
    space_from_obj,
    space_to_obj,
    system_from_objs,
    trace_to_obj,
    view,
)


class PropertyKind(str, Enum):
    SEP = "sep"
    GNI = "gni"
    RGNI = "rgni"
    DGNI = "dgni"

    def __str__(self) -> str:
        return self.value


# For each pair-quantified kind, the (C1, C2) mask pairs whose conditions
# it conjoins: the components a witness takes from the first trace of a
# pair and from the second.  So DGNI has GNI's pair and RGNI's.
_GNI = (int(L_VIEW), int(HI_VIEW))
_RGNI = (int(H_VIEW), int(LI_VIEW))
PROPERTY_VIEWS: dict[PropertyKind, tuple[tuple[int, int], ...]] = {
    PropertyKind.SEP: ((int(L_VIEW), int(H_VIEW)),),
    PropertyKind.GNI: (_GNI,),
    PropertyKind.RGNI: (_RGNI,),
    PropertyKind.DGNI: (_GNI, _RGNI),
}


# Per mask pair, the two functions that take a row of ``System.view_ids``
# to its C1 and its C2 key (one id, or a tuple of ids).
_VIEW_KEYS = {(c1, c2): (VIEW_KEY[c1], VIEW_KEY[c2]) for pairs in PROPERTY_VIEWS.values() for c1, c2 in pairs}


def check_property(kind: PropertyKind, s: System) -> bool:
    """Decide ``kind`` on ``s``.

    For each (C1, C2) pair of ``PROPERTY_VIEWS[kind]`` this is the
    pair-quantified formula: for all members s1, s2 there is a member
    whose C1-view equals s1's and whose C2-view equals s2's.  Views are
    compared as keys of the system's interned component ids.  The empty
    system satisfies everything (vacuous quantification).  Each pair's
    verdict is kept on ``s``, so a kind sharing the pair, or a repeated
    question, reads it instead of deciding again.
    """
    if type(kind) is not PropertyKind:
        # the conversion still refuses what is not a kind's value
        kind = PropertyKind(kind)
    verdicts = s._verdicts
    if verdicts is None:
        verdicts = s._verdicts = {}
    for pair in PROPERTY_VIEWS[kind]:
        holds = verdicts.get(pair)
        if holds is None:
            first, second = _VIEW_KEYS[pair]
            rows = s.view_ids
            firsts = list(map(first, rows))
            seconds = list(map(second, rows))
            # every (C1, C2) pair of views met must be one member's
            verdicts[pair] = holds = set(zip(firsts, seconds)).issuperset(product(set(firsts), set(seconds)))
        if not holds:
            return False
    return True


@dataclass(frozen=True)
class StrategySystem:
    """An ordered, named family of trace sets over one shared space.

    Every family must be nonempty.  The union is the trace set all
    pair-quantified properties are evaluated on; it is built on first use
    and kept with the strategy system, as are the injectivity and NOS
    verdicts.
    """

    families: tuple[tuple[str, System], ...]

    def __post_init__(self):
        if not self.families:
            raise FormatError("a strategy system needs at least one family")
        names = [name for name, _ in self.families]
        if len(set(names)) != len(names):
            raise FormatError("family names must be unique")
        spaces = {fam.space for _, fam in self.families}
        if len(spaces) != 1:
            raise FormatError("all families must share one trace space")
        for name, fam in self.families:
            if len(fam) == 0:
                raise FormatError(f"family {name} is empty; every protocol generates at least one trace")

    @property
    def space(self) -> TraceSpace:
        return self.families[0][1].space

    @cached_property
    def union(self) -> System:
        """The deduplicated union of all families."""
        return System(self.space, frozenset().union(*(fam.traces for _, fam in self.families)))

    @cached_property
    def injective(self) -> bool:
        """The verdict of :func:`check_injectivity`."""
        return _injective([fam.traces for _, fam in self.families])

    @cached_property
    def nos(self) -> bool:
        """The verdict of :func:`check_nos`; kept only once the
        injectivity precondition has passed, so a system that fails it
        raises on every read."""
        require_injectivity(self)
        return _nos_holds(self)


def union_system(ss: StrategySystem) -> System:
    """The deduplicated union of all families (``ss.union``)."""
    return ss.union


def _injective(sets) -> bool:
    """True when every set of ``sets`` holds an element no other set holds.

    The one injectivity decider: :func:`check_injectivity` gives it the
    families' trace sets, ``corpus.strategy_corpus`` a draw's run keys.
    """
    for i, own in enumerate(sets):
        others: set = set()
        for j, other in enumerate(sets):
            if j != i:
                others |= other
        if own <= others:
            return False
    return True


def check_injectivity(ss: StrategySystem) -> bool:
    """True when every family owns a trace no other family produces.

    Over a finite explicit family map this set-difference condition is
    both necessary and sufficient for the distinguishability requirement
    NOS rests on.  The verdict is kept on ``ss`` (``ss.injective``).
    """
    return ss.injective


def require_injectivity(ss: StrategySystem) -> StrategySystem:
    """``ss``, once :func:`check_injectivity` holds; otherwise
    :class:`InjectivityError`, since NOS is not defined on it."""
    if not check_injectivity(ss):
        raise InjectivityError("strategy system violates the distinguishability precondition")
    return ss


def check_nos(ss: StrategySystem) -> bool:
    """Decide NOS: every member's low view occurs inside every family.

    Raises :class:`InjectivityError` when the distinguishability
    precondition fails (:func:`require_injectivity`), on every call.  The
    verdict is kept on ``ss`` (``ss.nos``) only once the precondition has
    passed, so a repeated question on the same system reads it.
    """
    return ss.nos


def _nos_holds(ss: StrategySystem) -> bool:
    low_views = {name: {view(t, L_VIEW) for t in fam.members} for name, fam in ss.families}
    for t in union_system(ss).members:
        lv = view(t, L_VIEW)
        for name, _ in ss.families:
            if lv not in low_views[name]:
                return False
    return True


def strategy_system_from_obj(obj) -> StrategySystem:
    if not isinstance(obj, dict) or "alphabets" not in obj or "families" not in obj:
        raise FormatError('a strategy-system file must contain "alphabets" and "families"')
    space = space_from_obj(obj["alphabets"])
    fams = obj["families"]
    if not isinstance(fams, dict) or not fams:
        raise FormatError('"families" must be a nonempty object mapping names to trace lists')
    built = []
    for name, entry in fams.items():
        if not isinstance(entry, list):
            raise FormatError(f"family {name} must be a list of traces")
        built.append((name, system_from_objs(entry, space, where=f"family {name}")))
    return StrategySystem(tuple(built))


def strategy_system_to_obj(ss: StrategySystem) -> dict:
    return {
        "alphabets": space_to_obj(ss.space),
        "families": {name: [trace_to_obj(t) for t in fam.members] for name, fam in ss.families},
    }


def save_strategy_system(ss: StrategySystem, path: str | Path) -> None:
    """Write ``ss`` as JSON; a path that cannot be written raises :class:`FormatError`."""
    text = json.dumps(strategy_system_to_obj(ss), indent=2) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from None


def strategy_system_from_mapping(space: TraceSpace, mapping: Mapping[str, Iterable]) -> StrategySystem:
    """Convenience constructor from ``{name: iterable of traces}``."""
    return StrategySystem(tuple((name, System(space, traces)) for name, traces in mapping.items()))
