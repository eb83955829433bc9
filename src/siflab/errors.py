"""Exception types shared across the package."""

from __future__ import annotations


class SiflabError(Exception):
    """Base class for all library errors."""


class FormatError(SiflabError):
    """A file or literal does not match the documented format."""


class DuplicateTraceError(FormatError):
    """A loaded trace set contains the same trace twice after canonicalization."""


class AlphabetError(SiflabError):
    """A symbol falls outside the declared alphabet for its component."""


class ProtocolError(SiflabError):
    """A protocol description is incomplete or inconsistent."""


class InjectivityError(SiflabError):
    """A strategy system fails the per-protocol distinguishability requirement."""


class RunExplosion(SiflabError):
    """Exact lasso generation found a nondeterministic choice on a reachable cycle."""


class CapExceeded(SiflabError):
    """An enumeration or search exceeded its configured cap."""


class UnknownResultError(SiflabError):
    """An unknown verification result id was requested."""
