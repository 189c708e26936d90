"""The ten directive clauses and their validation rules.

Section III-B of the paper defines ten clauses. Four are required —
``sender``, ``receiver``, ``sbuf``, ``rbuf``; six are optional —
``sendwhen``, ``receivewhen``, ``target``, ``count``, ``place_sync``,
``max_comm_iter`` — and the last two may only be used with
``comm_parameters``. The validation rules implemented here are the
paper's:

* ``sendwhen`` and ``receivewhen`` must both be present or both absent;
* ``place_sync``/``max_comm_iter`` are rejected on ``comm_p2p``;
* ``target`` accepts the three ``TARGET_COMM_*`` keywords, defaulting
  to two-sided non-blocking MPI;
* ``count`` may be omitted only when at least one listed buffer is an
  array — the inferred message size is the *smallest* array length;
* a ``comm_parameters`` region's clauses apply to every ``comm_p2p``
  inside it, with instance clauses overriding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ClauseError


class Target(enum.Enum):
    """Keywords accepted by the ``target`` clause."""

    MPI_1SIDE = "TARGET_COMM_MPI_1SIDE"
    MPI_2SIDE = "TARGET_COMM_MPI_2SIDE"
    SHMEM = "TARGET_COMM_SHMEM"

    @classmethod
    def parse(cls, value: "Target | str") -> "Target":
        """Accept the enum member or its keyword spelling."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ClauseError(
                f"target clause accepts "
                f"{[t.value for t in cls]}; got {value!r}") from None


#: The default translation when no ``target`` clause is present
#: (Section III-B: "the default library calls that are generated are
#: MPI non-blocking send and receive").
DEFAULT_TARGET = Target.MPI_2SIDE


class SyncPlacement(enum.Enum):
    """Keywords accepted by the ``place_sync`` clause."""

    END_PARAM_REGION = "END_PARAM_REGION"
    BEGIN_NEXT_PARAM_REGION = "BEGIN_NEXT_PARAM_REGION"
    END_ADJ_PARAM_REGIONS = "END_ADJ_PARAM_REGIONS"

    @classmethod
    def parse(cls, value: "SyncPlacement | str") -> "SyncPlacement":
        """Accept the enum member or its keyword spelling."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ClauseError(
                f"place_sync clause accepts "
                f"{[p.value for p in cls]}; got {value!r}") from None


#: Sentinel distinguishing "clause absent" from explicit ``None``.
_ABSENT = object()

#: Clause names legal only on ``comm_parameters``.
PARAMETERS_ONLY = ("place_sync", "max_comm_iter")

#: The four required clauses of a fully resolved ``comm_p2p`` instance.
REQUIRED = ("sender", "receiver", "sbuf", "rbuf")

#: Every clause name, in :class:`ClauseSet` field order.
NAMES = ("sender", "receiver", "sbuf", "rbuf", "sendwhen", "receivewhen",
         "target", "count", "place_sync", "max_comm_iter")
_LEGAL = frozenset(NAMES)
_REQUIRED = frozenset(REQUIRED)
#: Instance ``__dict__`` of a ClauseSet with no clause given.
_ALL_ABSENT = dict.fromkeys(NAMES, _ABSENT)
#: Clauses whose values :func:`_normalize_keywords` parses or checks.
_CHECKED = frozenset({"target", "place_sync", "count", "max_comm_iter"})
_UNPAIRED = ("sendwhen and receivewhen must both be present or both be "
             "omitted (Section III-B)")


@dataclass(frozen=True)
class ClauseSet:
    """One directive's clauses (values already evaluated on this rank).

    In the paper the clause arguments are C expressions evaluated per
    process (``sender(rank-1)``); in the runtime DSL the caller passes
    the evaluated values. ``sbuf``/``rbuf`` are buffer *lists* (a single
    buffer may be passed bare). ``sender``/``receiver`` are world ranks.

    Besides its fields, an instance carries ``_given``: the dict of the
    clauses that were given. Building and merging work on that dict, so
    a directive instance costs a few dict operations rather than a
    dataclass introspection per clause.
    """

    sender: Any = _ABSENT
    receiver: Any = _ABSENT
    sbuf: Any = _ABSENT
    rbuf: Any = _ABSENT
    sendwhen: Any = _ABSENT
    receivewhen: Any = _ABSENT
    target: Any = _ABSENT
    count: Any = _ABSENT
    place_sync: Any = _ABSENT
    max_comm_iter: Any = _ABSENT

    def __post_init__(self) -> None:
        # Only the generated __init__ (direct construction, replace)
        # lands here; build and merge fill the __dict__ in _of.
        attrs = self.__dict__
        given = {n: attrs[n] for n in NAMES if attrs[n] is not _ABSENT}
        object.__setattr__(self, "_given", given)

    @classmethod
    def _of(cls, given: dict[str, Any]) -> "ClauseSet":
        """The instance holding exactly the (validated) ``given``."""
        cs = object.__new__(cls)
        attrs = cs.__dict__
        attrs.update(_ALL_ABSENT)
        attrs.update(given)
        attrs["_given"] = given
        return cs

    # -- presence ---------------------------------------------------------

    def has(self, name: str) -> bool:
        """True when the clause was given (explicit None counts)."""
        return getattr(self, name) is not _ABSENT

    def present(self) -> dict[str, Any]:
        """Clauses that were given, as a dict (in field order)."""
        given = self._given
        return {n: given[n] for n in NAMES if n in given}

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, *, directive: str, **kwargs: Any) -> "ClauseSet":
        """Validate keyword clauses for a ``comm_parameters`` (``directive
        = "parameters"``) or ``comm_p2p`` (``"p2p"``) directive."""
        if not _LEGAL.issuperset(kwargs):
            raise ClauseError(
                f"unknown clause(s) {sorted(set(kwargs) - _LEGAL)}; the "
                f"directives accept {sorted(_LEGAL)}")
        if directive == "p2p":
            if "place_sync" in kwargs or "max_comm_iter" in kwargs:
                illegal = [n for n in PARAMETERS_ONLY if n in kwargs]
                raise ClauseError(
                    f"clause(s) {illegal} may only be used with "
                    "comm_parameters (Section III-B)")
        elif directive != "parameters":
            raise ClauseError(f"unknown directive kind {directive!r}")
        if ("sendwhen" in kwargs) != ("receivewhen" in kwargs):
            raise ClauseError(_UNPAIRED)
        if not _CHECKED.isdisjoint(kwargs):
            _normalize_keywords(kwargs)
        return cls._of(kwargs)

    # -- region/instance merging ------------------------------------------

    def merged_into(self, instance: "ClauseSet") -> "ClauseSet":
        """Apply this region's clauses to a ``comm_p2p`` instance.

        Region assertions apply to all instances in scope; the instance
        "may provide additional assertions" which override
        (Section III-A).
        """
        merged = self._given.copy()
        merged.update(instance._given)
        # Region-level only; never merged down.
        merged.pop("place_sync", None)
        merged.pop("max_comm_iter", None)
        if ("sendwhen" in merged) != ("receivewhen" in merged):
            raise ClauseError(_UNPAIRED)
        return ClauseSet._of(merged)

    # -- final validation of a resolvable p2p instance --------------------

    def require_p2p_complete(self) -> None:
        """Check the four required clauses of a resolved instance."""
        if self._given.keys() >= _REQUIRED:
            return
        missing = [n for n in REQUIRED if not self.has(n)]
        if missing:
            raise ClauseError(
                f"comm_p2p is missing required clause(s) {missing} "
                "(not provided by the directive or its enclosing "
                "comm_parameters region)")

    # -- convenience accessors with defaults -------------------------------

    @property
    def effective_target(self) -> Target:
        """The target clause, defaulted per Section III-B."""
        return self.target if self.has("target") else DEFAULT_TARGET

    @property
    def effective_sendwhen(self) -> bool:
        """Absent sendwhen: all processes reaching the directive send."""
        return bool(self.sendwhen) if self.has("sendwhen") else True

    @property
    def effective_receivewhen(self) -> bool:
        """Absent receivewhen: all processes reaching it receive."""
        return bool(self.receivewhen) if self.has("receivewhen") else True

    def with_clauses(self, **kwargs: Any) -> "ClauseSet":
        """A copy with additional/overridden clauses (for tooling)."""
        return replace(self, **kwargs)


def _normalize_keywords(given: dict[str, Any]) -> None:
    """Parse keyword clauses and range-check integer ones, in place."""
    if "target" in given:
        given["target"] = Target.parse(given["target"])
    if "place_sync" in given:
        given["place_sync"] = SyncPlacement.parse(given["place_sync"])
    if "count" in given:
        count = given["count"]
        if not isinstance(count, int) or isinstance(count, bool) \
                or count < 0:
            raise ClauseError(
                f"count must evaluate to a non-negative integer, "
                f"got {count!r}")
    if "max_comm_iter" in given:
        m = given["max_comm_iter"]
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ClauseError(
                f"max_comm_iter must evaluate to a positive integer, "
                f"got {m!r}")
