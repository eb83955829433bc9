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
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping

from .errors import FormatError, InjectivityError
from .traces import (
    H_VIEW,
    HI_VIEW,
    L_VIEW,
    LI_VIEW,
    Component,
    System,
    TraceSpace,
    read_json,
    space_from_obj,
    space_to_obj,
    system_to_obj,
    trace_to_obj,
    traces_from_objs,
    view,
)


class PropertyKind(str, Enum):
    SEP = "sep"
    GNI = "gni"
    RGNI = "rgni"
    DGNI = "dgni"

    def __str__(self) -> str:
        return self.value


# For each pair-quantified kind: the view taken from the first trace and
# the view taken from the second.  DGNI is the conjunction of GNI and RGNI.
PROPERTY_VIEWS: dict[PropertyKind, tuple[Component, Component]] = {
    PropertyKind.SEP: (L_VIEW, H_VIEW),
    PropertyKind.GNI: (L_VIEW, HI_VIEW),
    PropertyKind.RGNI: (H_VIEW, LI_VIEW),
}


def check_property(kind: PropertyKind, s: System) -> bool:
    """Decide ``kind`` on ``s``.

    For SEP/GNI/RGNI this is the pair-quantified formula: for all members
    s1, s2 there is a member whose first-view equals s1's and whose
    second-view equals s2's.  The empty system satisfies everything
    (vacuous quantification).
    """
    kind = PropertyKind(kind)
    if kind is PropertyKind.DGNI:
        return check_property(PropertyKind.GNI, s) and check_property(PropertyKind.RGNI, s)
    m1, m2 = PROPERTY_VIEWS[kind]
    have = {(view(t, m1), view(t, m2)) for t in s.members}
    firsts = {view(t, m1) for t in s.members}
    seconds = {view(t, m2) for t in s.members}
    return all((a, b) in have for a in firsts for b in seconds)


@dataclass(frozen=True)
class StrategySystem:
    """An ordered, named family of trace sets over one shared space.

    Every family must be nonempty.  The union is the trace set all
    pair-quantified properties are evaluated on.
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

    def family(self, name: str) -> System:
        for fam_name, fam in self.families:
            if fam_name == name:
                return fam
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.families)


@lru_cache(maxsize=None)
def union_system(ss: StrategySystem) -> System:
    """The deduplicated union of all families."""
    traces: set = set()
    for _, fam in ss.families:
        traces |= fam.traces
    return System(ss.space, traces)


def injectivity_offenders(ss: StrategySystem) -> list[str]:
    """Names of the families that own no trace outside the other families."""
    offenders = []
    for name, fam in ss.families:
        others: set = set()
        for other_name, other in ss.families:
            if other_name != name:
                others |= other.traces
        if fam.traces <= others:
            offenders.append(name)
    return offenders


def check_injectivity(ss: StrategySystem) -> bool:
    """True when every family owns a trace no other family produces.

    Over a finite explicit family map this set-difference condition is
    both necessary and sufficient for the distinguishability requirement
    NOS rests on.
    """
    return not injectivity_offenders(ss)


def check_nos(ss: StrategySystem) -> bool:
    """Decide NOS: every member's low view occurs inside every family.

    Raises :class:`InjectivityError` when the distinguishability
    precondition fails, since the answer would not be well defined.
    """
    if not check_injectivity(ss):
        raise InjectivityError("strategy system violates the distinguishability precondition")
    low_views = {name: {view(t, L_VIEW) for t in fam.members} for name, fam in ss.families}
    union = union_system(ss)
    for t in union.members:
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
        if isinstance(entry, dict) and "traces" in entry:
            entry = entry["traces"]
        if not isinstance(entry, list):
            raise FormatError(f"family {name} must be a list of traces")
        built.append((name, System(space, traces_from_objs(entry, space, where=f"family {name}"))))
    return StrategySystem(tuple(built))


def strategy_system_to_obj(ss: StrategySystem) -> dict:
    return {
        "alphabets": space_to_obj(ss.space),
        "families": {name: [trace_to_obj(t) for t in fam.members] for name, fam in ss.families},
    }


def load_strategy_system(path: str | Path) -> StrategySystem:
    return strategy_system_from_obj(read_json(path))


def save_strategy_system(ss: StrategySystem, path: str | Path) -> None:
    Path(path).write_text(json.dumps(strategy_system_to_obj(ss), indent=2) + "\n")


def strategy_system_from_mapping(space: TraceSpace, mapping: Mapping[str, Iterable]) -> StrategySystem:
    """Convenience constructor from ``{name: iterable of traces}``."""
    return StrategySystem(tuple((name, System(space, traces)) for name, traces in mapping.items()))
