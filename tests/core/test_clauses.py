"""Clause validation rules from Section III-B."""

import dataclasses
from dataclasses import dataclass, fields
from typing import Any

import pytest
from hypothesis import given, strategies as st

from repro.core import clauses as clausemod
from repro.core.clauses import (
    DEFAULT_TARGET,
    PARAMETERS_ONLY,
    REQUIRED,
    ClauseSet,
    SyncPlacement,
    Target,
)
from repro.errors import ClauseError


class TestBuild:
    def test_unknown_clause_rejected(self):
        with pytest.raises(ClauseError, match="unknown clause"):
            ClauseSet.build(directive="p2p", sender=0, receiver=1,
                            frobnicate=2)

    def test_parameters_only_clauses_rejected_on_p2p(self):
        with pytest.raises(ClauseError, match="comm_parameters"):
            ClauseSet.build(directive="p2p", place_sync="END_PARAM_REGION")
        with pytest.raises(ClauseError, match="comm_parameters"):
            ClauseSet.build(directive="p2p", max_comm_iter=5)

    def test_parameters_accepts_place_sync_and_max_iter(self):
        cs = ClauseSet.build(directive="parameters",
                             place_sync="END_PARAM_REGION",
                             max_comm_iter=10)
        assert cs.place_sync is SyncPlacement.END_PARAM_REGION
        assert cs.max_comm_iter == 10

    def test_unknown_directive_kind_rejected(self):
        with pytest.raises(ClauseError):
            ClauseSet.build(directive="collective")

    def test_sendwhen_requires_receivewhen(self):
        """'they both must be present or both be omitted'"""
        with pytest.raises(ClauseError, match="both"):
            ClauseSet.build(directive="p2p", sendwhen=True)
        with pytest.raises(ClauseError, match="both"):
            ClauseSet.build(directive="p2p", receivewhen=False)
        ClauseSet.build(directive="p2p", sendwhen=True, receivewhen=False)

    def test_target_keywords(self):
        for kw, member in [
            ("TARGET_COMM_MPI_1SIDE", Target.MPI_1SIDE),
            ("TARGET_COMM_MPI_2SIDE", Target.MPI_2SIDE),
            ("TARGET_COMM_SHMEM", Target.SHMEM),
        ]:
            cs = ClauseSet.build(directive="p2p", target=kw)
            assert cs.target is member

    def test_bad_target_rejected(self):
        with pytest.raises(ClauseError, match="target"):
            ClauseSet.build(directive="p2p", target="TARGET_COMM_PVM")

    def test_place_sync_keywords(self):
        for kw in ("END_PARAM_REGION", "BEGIN_NEXT_PARAM_REGION",
                   "END_ADJ_PARAM_REGIONS"):
            cs = ClauseSet.build(directive="parameters", place_sync=kw)
            assert cs.place_sync.value == kw

    def test_bad_place_sync_rejected(self):
        with pytest.raises(ClauseError):
            ClauseSet.build(directive="parameters", place_sync="WHEREVER")

    def test_count_must_be_nonnegative_int(self):
        ClauseSet.build(directive="p2p", count=0)
        with pytest.raises(ClauseError):
            ClauseSet.build(directive="p2p", count=-1)
        with pytest.raises(ClauseError):
            ClauseSet.build(directive="p2p", count=1.5)
        with pytest.raises(ClauseError):
            ClauseSet.build(directive="p2p", count=True)

    def test_max_comm_iter_positive(self):
        with pytest.raises(ClauseError):
            ClauseSet.build(directive="parameters", max_comm_iter=0)


class TestMerge:
    def test_region_clauses_apply_to_instances(self):
        region = ClauseSet.build(directive="parameters", sender=1,
                                 receiver=2, count=8)
        inst = ClauseSet.build(directive="p2p", sbuf="S", rbuf="R")
        merged = region.merged_into(inst)
        assert merged.sender == 1
        assert merged.receiver == 2
        assert merged.count == 8
        assert merged.sbuf == "S"

    def test_instance_overrides_region(self):
        region = ClauseSet.build(directive="parameters", sender=1,
                                 receiver=2)
        inst = ClauseSet.build(directive="p2p", receiver=7, sbuf="S",
                               rbuf="R")
        merged = region.merged_into(inst)
        assert merged.receiver == 7
        assert merged.sender == 1

    def test_region_only_clauses_never_merge_down(self):
        region = ClauseSet.build(directive="parameters",
                                 place_sync="END_PARAM_REGION",
                                 max_comm_iter=4)
        merged = region.merged_into(ClauseSet.build(directive="p2p"))
        assert not merged.has("place_sync")
        assert not merged.has("max_comm_iter")

    def test_require_p2p_complete(self):
        full = ClauseSet.build(directive="p2p", sender=0, receiver=1,
                               sbuf="S", rbuf="R")
        full.require_p2p_complete()
        partial = ClauseSet.build(directive="p2p", sender=0, sbuf="S")
        with pytest.raises(ClauseError, match="required"):
            partial.require_p2p_complete()


class TestDefaults:
    def test_default_target_is_two_sided_mpi(self):
        cs = ClauseSet.build(directive="p2p")
        assert cs.effective_target is DEFAULT_TARGET is Target.MPI_2SIDE

    def test_absent_when_clauses_mean_everyone(self):
        cs = ClauseSet.build(directive="p2p")
        assert cs.effective_sendwhen is True
        assert cs.effective_receivewhen is True

    def test_present_when_clauses_respected(self):
        cs = ClauseSet.build(directive="p2p", sendwhen=False,
                             receivewhen=True)
        assert cs.effective_sendwhen is False
        assert cs.effective_receivewhen is True

    def test_with_clauses_copy(self):
        cs = ClauseSet.build(directive="p2p", sender=1)
        cs2 = cs.with_clauses(receiver=2)
        assert cs2.sender == 1 and cs2.receiver == 2
        assert not cs.has("receiver")

    def test_present_dict(self):
        cs = ClauseSet.build(directive="p2p", sender=3, count=5)
        assert cs.present() == {"sender": 3, "count": 5}


# ---------------------------------------------------------------------------
# Differential: the dict-based build/merge against the fields()-based
# implementation it replaced, kept here verbatim (class name aside).

_ABSENT = clausemod._ABSENT


@dataclass(frozen=True)
class FieldsClauseSet:
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

    def has(self, name: str) -> bool:
        return getattr(self, name) is not _ABSENT

    def present(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not _ABSENT}

    @classmethod
    def build(cls, *, directive: str, **kwargs: Any) -> "FieldsClauseSet":
        legal = {f.name for f in fields(cls)}
        unknown = set(kwargs) - legal
        if unknown:
            raise ClauseError(
                f"unknown clause(s) {sorted(unknown)}; the directives "
                f"accept {sorted(legal)}")
        if directive == "p2p":
            illegal = [n for n in PARAMETERS_ONLY if n in kwargs]
            if illegal:
                raise ClauseError(
                    f"clause(s) {illegal} may only be used with "
                    "comm_parameters (Section III-B)")
        elif directive != "parameters":
            raise ClauseError(f"unknown directive kind {directive!r}")
        cs = cls(**kwargs)
        cs._check_pairing()
        cs._normalize_keywords()
        return cs

    def _check_pairing(self) -> None:
        if self.has("sendwhen") != self.has("receivewhen"):
            raise ClauseError(
                "sendwhen and receivewhen must both be present or both "
                "be omitted (Section III-B)")

    def _normalize_keywords(self) -> None:
        if self.has("target"):
            object.__setattr__(self, "target", Target.parse(self.target))
        if self.has("place_sync"):
            object.__setattr__(self, "place_sync",
                               SyncPlacement.parse(self.place_sync))
        if self.has("count"):
            count = self.count
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count < 0:
                raise ClauseError(
                    f"count must evaluate to a non-negative integer, "
                    f"got {count!r}")
        if self.has("max_comm_iter"):
            m = self.max_comm_iter
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ClauseError(
                    f"max_comm_iter must evaluate to a positive integer, "
                    f"got {m!r}")

    def merged_into(self, instance: "FieldsClauseSet") -> "FieldsClauseSet":
        updates = {}
        for f in fields(self):
            if f.name in PARAMETERS_ONLY:
                continue
            if instance.has(f.name):
                updates[f.name] = getattr(instance, f.name)
            elif self.has(f.name):
                updates[f.name] = getattr(self, f.name)
        merged = FieldsClauseSet(**updates)
        merged._check_pairing()
        return merged

    def require_p2p_complete(self) -> None:
        missing = [n for n in REQUIRED if not self.has(n)]
        if missing:
            raise ClauseError(
                f"comm_p2p is missing required clause(s) {missing} "
                "(not provided by the directive or its enclosing "
                "comm_parameters region)")


_ranks = st.one_of(st.integers(-2, 9), st.none(), st.just("east"))
_whens = st.one_of(st.booleans(), st.integers(0, 2))
_ints = st.one_of(st.integers(-3, 12), st.booleans(), st.just(1.5),
                  st.none(), st.just("4"))
_clause_values = {
    "sender": _ranks,
    "receiver": _ranks,
    "sbuf": st.one_of(st.just("S"), st.lists(st.sampled_from("AB"),
                                             max_size=2)),
    "rbuf": st.one_of(st.just("R"), st.lists(st.sampled_from("AB"),
                                             max_size=2)),
    # Drawn independently: sendwhen often comes without receivewhen.
    "sendwhen": _whens,
    "receivewhen": _whens,
    "target": st.one_of(st.sampled_from(list(Target)),
                        st.sampled_from([t.value for t in Target]),
                        st.just("TARGET_COMM_PVM"), st.none()),
    "count": _ints,
    "place_sync": st.one_of(
        st.sampled_from(list(SyncPlacement)),
        st.sampled_from([p.value for p in SyncPlacement]),
        st.just("WHEREVER")),
    "max_comm_iter": _ints,
    "frobnicate": st.integers(0, 2),
    "tag": st.integers(0, 2),
}
_kwargs = st.fixed_dictionaries({}, optional=_clause_values)
_directives = st.sampled_from(["p2p", "parameters", "p2p", "collective"])


def _state(cs):
    return ([getattr(cs, n) for n in clausemod.NAMES],
            list(cs.present().items()),
            [cs.has(n) for n in clausemod.NAMES])


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:
        return "error", (type(exc), str(exc))


def _agree(new, old):
    """Both raised the same error, or built clause sets alike."""
    assert new[0] == old[0]
    if new[0] == "error":
        assert new[1] == old[1]
        return False
    assert _state(new[1]) == _state(old[1])
    return True


class TestMatchesFieldsImplementation:
    @given(_directives, _kwargs, _kwargs)
    def test_build_and_equality(self, directive, first, second):
        built = []
        for kwargs in (first, second):
            new = _outcome(ClauseSet.build, directive=directive, **kwargs)
            old = _outcome(FieldsClauseSet.build, directive=directive,
                           **kwargs)
            if _agree(new, old):
                built.append((new[1], old[1]))
        if len(built) == 2:
            (new_a, old_a), (new_b, old_b) = built
            assert (new_a == new_b) == (old_a == old_b)

    @given(_kwargs, _kwargs)
    def test_merge(self, region_kwargs, instance_kwargs):
        parts = []
        for cls in (ClauseSet, FieldsClauseSet):
            region = _outcome(cls.build, directive="parameters",
                              **region_kwargs)
            instance = _outcome(cls.build, directive="p2p",
                                **instance_kwargs)
            parts.append((region, instance))
        (new_region, new_inst), (old_region, old_inst) = parts
        if not (_agree(new_region, old_region)
                and _agree(new_inst, old_inst)):
            return
        new = _outcome(new_region[1].merged_into, new_inst[1])
        old = _outcome(old_region[1].merged_into, old_inst[1])
        if not _agree(new, old):
            return
        assert _outcome(new[1].require_p2p_complete) == \
            _outcome(old[1].require_p2p_complete)
        assert new[1] == ClauseSet.build(directive="p2p",
                                         **new[1].present())
        # A directly constructed copy (the dataclass __init__ path)
        # reports the same clauses.
        copy = dataclasses.replace(new[1])
        assert copy == new[1] and _state(copy) == _state(new[1])
