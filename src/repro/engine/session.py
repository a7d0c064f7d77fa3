"""Materialization sessions: chase once, answer many, update in deltas.

The paper's workload is session-shaped: one MD ontology (or assembled
quality context) is chased once, then many certain-answer queries run
against the same materialization while the underlying extensional database
receives small updates.  This module keeps that materialization alive
between calls instead of re-running the chase per call:

* :class:`MaterializedProgram` owns a chased
  :class:`~repro.relational.instance.DatabaseInstance` and supports
  **incremental EDB updates**: :meth:`~MaterializedProgram.add_facts`
  re-enters the delta-driven chase seeded only with the inserted facts;
  :meth:`~MaterializedProgram.retract_facts` deletes the retracted facts
  plus the cone of derived facts recorded against them in the chase's
  provenance, re-fires only the rules whose heads lost facts, and falls
  back to a full re-chase when provenance is ambiguous (EGD merges have
  rewritten rows, or provenance was not recorded).
* :class:`QuerySession` answers conjunctive queries over a materialized
  program, caching parsed queries and selectivity-ordered join plans keyed
  by (program version, query); :meth:`~QuerySession.answer_many` batches a
  whole workload and reports the
  :class:`~repro.engine.stats.EngineStats` delta of the batch.
* Cached answers are **maintained, not recomputed**: each answered query
  keeps a :class:`MaintainedAnswers` entry — counting-based incremental
  view maintenance state mapping every answer row to the number of body
  valuations deriving it — and every update propagates its exact fact
  delta through a compiled
  :class:`~repro.engine.matching.DeltaJoinPlan`, inserting and decrementing
  answers in place.  The delta is grouped once per update and routed: an
  entry whose constants no delta fact can match is skipped without a join,
  and an entry whose joins move no support is kept as is, so an update
  costs O(delta + entries it can change).  Only updates whose delta is
  unknowable (EGD merges, full re-chases) fall back to dropping the entry,
  mirroring the materialization's own full-rechase fallback.

Every update and batch returns its own stats delta; the session objects
accumulate lifetime totals, including cache hits/misses and the
incremental-vs-full decision counters.  See ``docs/ARCHITECTURE.md`` for
the session lifecycle.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..datalog.answering import (AnswerCounts, evaluate_query_counts,
                                 rows_from_counts)
from ..datalog.atoms import Atom
from ..datalog.chase import ChaseEngine, ChaseResult, Fact, RESTRICTED
from ..datalog.parser import parse_query
from ..datalog.program import DatalogProgram
from ..datalog.rules import ConjunctiveQuery
from ..datalog.unify import comparison_bindings
from ..errors import UnknownRelationError
from ..relational.instance import DatabaseInstance
from ..relational.values import Null, NullFactory
from .matching import (DeltaJoinPlan, GroupedDelta, Matcher, constant_signature,
                       matcher_for, resolve_engine)
from .stats import EngineStats
from .versioning import InstanceVersion, ReadTransaction, VersionStore

AnswerTuple = Tuple[Any, ...]
Answers = Tuple[AnswerTuple, ...]
QueryLike = Union[ConjunctiveQuery, str]

INCREMENTAL = "incremental"
FULL = "full"
NOOP = "noop"


@dataclass
class UpdateResult:
    """Outcome of one :class:`MaterializedProgram` update."""

    #: ``"add"`` or ``"retract"``
    action: str
    #: ``"incremental"`` (delta re-chase), ``"full"`` (from-scratch re-chase)
    #: or ``"noop"`` (no EDB fact actually changed)
    strategy: str
    #: the EDB facts that were actually inserted / removed
    applied: List[Fact] = field(default_factory=list)
    #: predicates whose extension changed (EDB and derived); ``None`` means
    #: unknown — treat as "possibly all" (e.g. after EGD merges)
    changed_predicates: Optional[Set[str]] = None
    #: the exact instance-level fact delta of this update (EDB and derived):
    #: facts that became true / stopped being true.  ``None`` means the
    #: delta is unknown (EGD merges rewrote rows, or a full re-chase ran) —
    #: answer maintenance must fall back to re-answering.  A fact may appear
    #: in both lists (retracted from a deletion cone, then re-derived by the
    #: repair chase); counting maintenance nets such survivors out exactly.
    added_facts: Optional[List[Fact]] = None
    removed_facts: Optional[List[Fact]] = None
    #: TGD triggers fired by the maintenance chase
    steps: int = 0
    #: the work done by this update alone (an :class:`EngineStats` delta)
    stats: EngineStats = field(default_factory=EngineStats)

    @property
    def is_incremental(self) -> bool:
        return self.strategy == INCREMENTAL

    def touched(self, predicate: str) -> bool:
        """``True`` if ``predicate``'s extension may have changed."""
        return self.changed_predicates is None or \
            predicate in self.changed_predicates


#: An update's exact fact delta grouped once for every session and cached
#: query it reaches: ``(removed, added)``.
UpdateDelta = Tuple[GroupedDelta, GroupedDelta]

#: What answer maintenance decided per installed entry, keyed by query
#: text: ``(entry decided, its successor)`` — the successor is the entry
#: itself when the delta cannot reach it or no support moved, ``None`` when
#: the entry must be dropped.
MaintenanceOutcomes = Dict[str, Tuple["MaintainedAnswers",
                                      Optional["MaintainedAnswers"]]]


def _grouped_delta(update: UpdateResult) -> Optional[UpdateDelta]:
    """``update``'s fact delta grouped by predicate, ``None`` if unknown."""
    if update.added_facts is None or update.removed_facts is None:
        return None
    return GroupedDelta(update.removed_facts), GroupedDelta(update.added_facts)


class _ProvenanceLog(dict):
    """A provenance mapping that logs newly recorded facts.

    The chase records first derivations with ``setdefault``; logging the
    genuinely new keys lets the session learn an update's derived facts —
    and maintain its inverted dependents index — in O(delta) instead of
    snapshotting the whole mapping per update.
    """

    def __init__(self):
        super().__init__()
        self.added: List[Fact] = []

    def setdefault(self, key, default=None):
        if key not in self:
            self.added.append(key)
        return super().setdefault(key, default)

    def drain(self) -> List[Fact]:
        added, self.added = self.added, []
        return added


class MaintainedAnswers:
    """Support-counted answers of one cached query (counting-based IVM).

    ``counts`` maps every answer row — projected from the body valuations,
    labeled nulls included — to the number of distinct valuations deriving
    it.  An update's fact delta moves the counts by ±1 per affected
    valuation (:meth:`QuerySession._maintain_answers`); a row is an answer
    while its count is positive, so both certain answers (nulls dropped)
    and raw answers derive from the same entry without re-joining.

    Entries are immutable once installed, and stamped with the version
    they were computed at: a reader pinned at ``version >= stamp`` may
    serve from the entry, because any later update that could change its
    answers would have replaced (or dropped) it.  An update whose delta
    reaches the entry but moves no support keeps it — same object, same
    stamp — since its answers at the new version equal those at the stamp.
    An update that does move support builds a :meth:`_successor` and swaps
    it in under the version store's lock.  The successor shares the
    query's key, predicates, constant ``signature`` (the update routing
    input, see :class:`~repro.engine.matching.GroupedDelta`) and compiled
    :class:`~repro.engine.matching.DeltaJoinPlan`, and carries the sorted
    answer rows *patched* (:meth:`_patch_rows`): only the rows whose
    support crossed zero move, so an update never pays a full key-building
    sort over a large cached answer set.
    """

    __slots__ = ("cq", "key", "predicates", "signature", "counts", "version",
                 "plan", "_rows", "last_used")

    def __init__(self, cq: ConjunctiveQuery, counts: AnswerCounts,
                 version: int, plan: Optional[DeltaJoinPlan] = None,
                 key: Optional[str] = None):
        self.cq = cq
        self.key = str(cq) if key is None else key
        self.predicates = frozenset(cq.body_predicates())
        self.signature = constant_signature(cq.body)
        self.counts = counts
        self.version = version
        #: compiled on the first update that reaches the entry, then shared
        #: by every successor (a join-order cache, not answer state)
        self.plan = plan
        #: recency stamp driving the session's support-count budget (LRU)
        self.last_used = 0
        #: per flavour: (sorted answer rows, their parallel sort keys)
        self._rows: Dict[bool, Tuple[Answers, Tuple[Tuple[str, ...], ...]]] = {}

    def _successor(self, counts: AnswerCounts,
                   version: int) -> "MaintainedAnswers":
        """A fresh entry for ``counts`` at ``version``, sharing everything
        derived from the query (no re-stringifying, no re-analysis)."""
        fresh = MaintainedAnswers.__new__(MaintainedAnswers)
        fresh.cq = self.cq
        fresh.key = self.key
        fresh.predicates = self.predicates
        fresh.signature = self.signature
        fresh.counts = counts
        fresh.version = version
        fresh.plan = self.plan
        fresh.last_used = self.last_used  # maintenance is not a *use*
        fresh._rows = {}
        return fresh

    @staticmethod
    def _sort_key(row: AnswerTuple) -> Tuple[str, ...]:
        return tuple(map(str, row))

    def rows(self, allow_nulls: bool = False) -> Answers:
        """The (sorted, immutable) answer rows; memoized per flavour."""
        cached = self._rows.get(allow_nulls)
        if cached is None:
            rows = rows_from_counts(self.counts, allow_nulls)
            cached = (rows, tuple(self._sort_key(row) for row in rows))
            self._rows[allow_nulls] = cached
        return cached[0]

    def _seed_rows(self, allow_nulls: bool, rows: Answers) -> None:
        """Install a freshly computed flavour (initial build)."""
        self._rows[allow_nulls] = (rows,
                                   tuple(self._sort_key(row) for row in rows))

    def _patch_rows(self, previous: "MaintainedAnswers",
                    vanished: Set[AnswerTuple],
                    appeared: Sequence[AnswerTuple]) -> None:
        """Carry ``previous``'s sorted rows over, moved by the zero
        crossings of one maintenance pass.

        ``vanished`` rows lost their last support (dropped), ``appeared``
        rows gained their first (inserted at their sort position via the
        parallel key list).  When no row crossed zero the rows are shared
        as is; otherwise cost is one O(answers) copy — a C-level list copy
        when nothing vanished, a filtered copy otherwise — plus O(delta)
        binary insertions; never a full sort with per-row key building.

        ``previous`` may belong to a live session whose readers memoize
        further flavours concurrently (``rows()`` runs lock-free), so the
        flavour dict is snapshot atomically (a single C-level copy under
        the GIL) before iterating; a flavour memoized after the snapshot
        is simply recomputed on the fresh entry's first read.
        """
        for flavor, (rows, keys) in list(previous._rows.items()):
            if not vanished and not appeared:
                self._rows[flavor] = (rows, keys)
                continue
            if vanished:
                new_rows = []
                new_keys = []
                for row, key in zip(rows, keys):
                    if row not in vanished:
                        new_rows.append(row)
                        new_keys.append(key)
            else:
                new_rows = list(rows)
                new_keys = list(keys)
            for row in appeared:
                if not flavor and \
                        any(isinstance(value, Null) for value in row):
                    continue
                key = self._sort_key(row)
                at = bisect_left(new_keys, key)
                new_keys.insert(at, key)
                new_rows.insert(at, row)
            self._rows[flavor] = (tuple(new_rows), tuple(new_keys))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MaintainedAnswers({self.key!r}, {len(self.counts)} rows, "
                f"v{self.version})")


@dataclass
class BatchAnswers:
    """Answers of one :meth:`QuerySession.answer_many` batch."""

    #: one (immutable) answer tuple per query, in the order given
    answers: List[Answers]
    #: the matching work done by this batch alone
    stats: EngineStats = field(default_factory=EngineStats)

    def __iter__(self):
        return iter(self.answers)

    def __len__(self) -> int:
        return len(self.answers)


class MaterializedProgram:
    """A Datalog± program kept chased across queries and EDB updates.

    Parameters
    ----------
    program:
        The program to materialize.  Its rules are shared; its database is
        copied (twice: the pristine EDB for re-chases, and the instance the
        chase materializes into).
    engine:
        Matching engine (``"indexed"``/``"naive"``/``"columnar"``;
        ``None`` = process default).
    max_steps:
        Trigger budget per chase/maintenance run.
    record_provenance:
        Record, for every derived fact, the grounded body facts of the
        trigger that first derived it.  Needed for incremental retraction;
        one-shot wrappers switch it off to keep their cost unchanged.

    The session always runs the **restricted** chase (the oblivious chase
    cannot be resumed without its fired-trigger memory) and never checks
    negative constraints — check them on :attr:`result` explicitly if
    needed.
    """

    def __init__(self, program: DatalogProgram, engine: Optional[str] = None,
                 max_steps: int = 100_000, null_prefix: str = "n",
                 record_provenance: bool = True):
        self._chaser = ChaseEngine(mode=RESTRICTED, max_steps=max_steps,
                                   check_constraints=False,
                                   null_prefix=null_prefix, engine=engine)
        self.engine = self._chaser.engine
        self.record_provenance = record_provenance
        self._tgds = list(program.tgds)
        self._egds = list(program.egds)
        self._constraints = list(program.constraints)
        self._edb = program.database.copy()
        #: bumped on every effective update; session caches key on it
        self.version = 0
        #: lifetime work counters (materialization + every update)
        self.stats = EngineStats(engine=self.engine)
        self._queries: Optional["QuerySession"] = None
        self._sessions: List["QuerySession"] = []
        #: maintained answer state restored from a snapshot, adopted by the
        #: first query session created over this program (then cleared)
        self._restored_maintained: Optional[
            List[Tuple[ConjunctiveQuery, AnswerCounts]]] = None
        #: the ``meta`` mapping of the snapshot this program was restored
        #: from (``{}`` for a freshly chased program) — the serving layer
        #: stores the checkpoint's write-ahead-log position here
        self.snapshot_meta: Dict[str, Any] = {}
        #: serializes writers (updates); readers never take this lock
        self._write_lock = threading.RLock()
        #: published instance versions readers pin (MVCC, relation-level COW)
        self.versions = VersionStore()
        self.result: ChaseResult = self._materialize()
        self.stats.merge(self.result.stats)
        self.result.stats = self.stats
        self.versions.publish(self.version, self.instance, changed=None)

    # -- state --------------------------------------------------------------

    @property
    def instance(self) -> DatabaseInstance:
        """The chased (materialized) database instance."""
        return self._program.database

    @property
    def edb(self) -> DatabaseInstance:
        """The pristine extensional database the materialization started from."""
        return self._edb

    def edb_program(self) -> DatalogProgram:
        """A program view over the *extensional* database (for top-down solvers)."""
        return DatalogProgram(tgds=self._tgds, egds=self._egds,
                              constraints=self._constraints, database=self._edb)

    def _materialize(self) -> ChaseResult:
        self._program = DatalogProgram(tgds=self._tgds, egds=self._egds,
                                       constraints=self._constraints,
                                       database=self._edb.copy())
        self._nulls = NullFactory(self._chaser.null_prefix)
        provenance = _ProvenanceLog() if self.record_provenance else None
        result = self._chaser.run(self._program, copy=False, nulls=self._nulls,
                                  provenance=provenance)
        self._provenance: Optional[_ProvenanceLog] = provenance
        self._ambiguous = result.egd_merges > 0
        #: inverted provenance: body fact -> derived facts recorded against it
        self._dependents: Dict[Fact, List[Fact]] = {}
        if provenance is not None:
            for derived in provenance.drain():
                for body_fact in provenance[derived]:
                    self._dependents.setdefault(body_fact, []).append(derived)
        return result

    # -- updates ------------------------------------------------------------

    def add_facts(self, facts: Iterable[Fact]) -> UpdateResult:
        """Insert EDB facts and restore the fixpoint incrementally.

        The delta-driven chase is re-entered seeded only with the facts that
        were actually new; rules whose bodies cannot see them are skipped.
        Returns the facts applied, the predicates whose extension changed,
        and the stats delta of the maintenance run.  Writers are serialized
        on the program's write lock; concurrent readers keep answering
        against the previously published version throughout.
        """
        with self._write_lock:
            return self._add_facts(facts)

    def _add_facts(self, facts: Iterable[Fact]) -> UpdateResult:
        applied: List[Fact] = []
        for predicate, row in facts:
            row = tuple(row)
            if not self._edb.has_relation(predicate):
                if not self.instance.has_relation(predicate):
                    # An unknown predicate is almost always a typo; refusing
                    # matches DatabaseInstance.add instead of silently
                    # declaring a relation no rule can ever see.
                    raise UnknownRelationError(
                        f"unknown relation {predicate!r}; known relations: "
                        f"{sorted(r.schema.name for r in self.instance)}")
                # An intensional predicate receiving its first extensional
                # fact: declare it in the EDB with the program's schema.
                self._edb.declare(
                    predicate,
                    list(self.instance.relation(predicate).schema.attributes))
            if self._edb.add(predicate, row):
                applied.append((predicate, row))
        if not applied:
            return UpdateResult(action="add", strategy=NOOP,
                                changed_predicates=set(),
                                stats=EngineStats(engine=self.engine))
        self.version += 1

        instance = self.instance
        seed: List[Fact] = []
        for fact in applied:
            predicate, row = fact
            if instance.add(predicate, row):
                seed.append(fact)
            elif self._provenance is not None:
                # The fact existed as a derived fact; it is extensional now
                # and must survive retraction of its former support.
                self._provenance.pop(fact, None)

        result = self._chaser.continue_chase(self._program, seed, self._nulls,
                                             self._provenance)
        # ``seed`` (not ``applied``) drives invalidation and maintenance: an
        # inserted fact that already existed as a derived fact changes the
        # EDB but not the materialized instance, so cached answers for it
        # stay valid.
        return self._finish_update("add", INCREMENTAL, applied, result,
                                   added_seed=seed, removed=[])

    def retract_facts(self, facts: Iterable[Fact]) -> UpdateResult:
        """Remove EDB facts and restore the fixpoint.

        The incremental path deletes the retracted facts plus the **cone**
        of derived facts whose recorded derivation depends on them, then
        re-evaluates only the rules whose heads mention a deleted predicate
        (the restricted chase had skipped their triggers while the heads
        were satisfied) and lets a delta-driven continuation propagate.
        When provenance is ambiguous — EGD merges rewrote rows since the
        last full chase, or provenance was not recorded — the session falls
        back to a full re-chase of the updated EDB.
        """
        with self._write_lock:
            return self._retract_facts(facts)

    def _retract_facts(self, facts: Iterable[Fact]) -> UpdateResult:
        applied: List[Fact] = []
        for predicate, row in facts:
            row = tuple(row)
            if self._edb.has_relation(predicate) and \
                    self._edb.relation(predicate).discard(row):
                applied.append((predicate, row))
        if not applied:
            return UpdateResult(action="retract", strategy=NOOP,
                                changed_predicates=set(),
                                stats=EngineStats(engine=self.engine))
        self.version += 1

        if self._provenance is None or self._ambiguous:
            return self._full_update("retract", applied)

        # The deletion cone over the maintained inverted index.  Entries may
        # point at facts whose provenance was popped by an earlier update
        # (facts that became extensional, earlier cones); filtering against
        # the live provenance keeps the traversal exact.
        cone: Set[Fact] = set()
        frontier: List[Fact] = list(applied)
        while frontier:
            fact = frontier.pop()
            for dependent in self._dependents.pop(fact, ()):
                if dependent not in cone and dependent in self._provenance:
                    cone.add(dependent)
                    frontier.append(dependent)

        instance = self.instance
        removed: List[Fact] = []
        for predicate, row in applied:
            if instance.has_relation(predicate) and \
                    instance.relation(predicate).discard(row):
                removed.append((predicate, row))
        for fact in cone:
            predicate, row = fact
            instance.relation(predicate).discard(row)
            self._provenance.pop(fact, None)
            removed.append(fact)

        result = self._chaser.repair_after_deletion(
            self._program, list(applied) + sorted(cone, key=str), self._nulls,
            self._provenance)
        update = self._finish_update("retract", INCREMENTAL, applied, result,
                                     added_seed=[], removed=removed)
        return update

    def _finish_update(self, action: str, strategy: str, applied: List[Fact],
                       result: ChaseResult, added_seed: List[Fact],
                       removed: List[Fact]) -> UpdateResult:
        """Close an incremental update: derive its exact instance delta.

        ``added_seed`` are the facts the update itself inserted into the
        instance, ``removed`` the facts it discarded (retractions plus their
        provenance cone); the facts the maintenance chase derived are
        drained from the provenance log on top.  When EGD merges ran (or no
        provenance is recorded) the delta is unreconstructable and reported
        as ``None`` — sessions then invalidate instead of maintain.
        """
        if result.egd_merges:
            self._ambiguous = True
        derived = [] if self._provenance is None else self._provenance.drain()
        for fact in derived:  # keep the inverted index in O(delta) step
            for body_fact in self._provenance[fact]:
                self._dependents.setdefault(body_fact, []).append(fact)
        changed: Optional[Set[str]]
        added_facts: Optional[List[Fact]]
        removed_facts: Optional[List[Fact]]
        if result.egd_merges or self._provenance is None:
            changed = None  # merges rewrite arbitrary rows: treat as "all"
            added_facts = None
            removed_facts = None
        else:
            added_facts = added_seed + derived
            removed_facts = removed
            changed = {predicate for predicate, _ in added_facts}
            changed |= {predicate for predicate, _ in removed_facts}
        update_stats = result.stats
        update_stats.incremental_updates += 1
        self.stats.merge(update_stats)
        self.result.steps += result.steps
        self.result.rounds += result.rounds
        self.result.egd_merges += result.egd_merges
        update = UpdateResult(action=action, strategy=strategy, applied=applied,
                              changed_predicates=changed, steps=result.steps,
                              stats=update_stats, added_facts=added_facts,
                              removed_facts=removed_facts)
        self._publish(update)
        return update

    def _full_update(self, action: str, applied: List[Fact]) -> UpdateResult:
        result = self._materialize()
        update_stats = result.stats
        update_stats.full_rechases += 1
        self.stats.merge(update_stats)
        self.result = result
        self.result.stats = self.stats
        update = UpdateResult(action=action, strategy=FULL, applied=applied,
                              changed_predicates=None, steps=result.steps,
                              stats=update_stats)
        self._publish(update)
        return update

    # -- persistence --------------------------------------------------------

    def save(self, path: Union[str, Path],
             meta: Optional[Dict[str, Any]] = None) -> Path:
        """Write a durable snapshot of this materialization to ``path``.

        The snapshot (see :mod:`repro.engine.snapshot`) captures the EDB,
        the chased instance, the labeled-null state, the provenance graph
        and the lifetime stats — everything needed to :meth:`load` a fully
        live session in another process without re-chasing.  ``meta`` is an
        optional JSON-serializable mapping stored with the snapshot and
        exposed as :attr:`snapshot_meta` after a restore; the save runs
        under the write lock, so the mapping describes a
        checkpoint-consistent cut (no update can interleave between
        computing ``meta`` and serializing the state it describes when the
        caller holds the same lock — see the serving daemon's checkpoint).
        """
        from .snapshot import save_program
        with self._write_lock:
            return save_program(self, path, meta=meta)

    @classmethod
    def load(cls, path: Union[str, Path], program: Optional[DatalogProgram] = None,
             engine: Optional[str] = None) -> "MaterializedProgram":
        """Restore a :meth:`save`-d materialization from ``path``.

        When ``program`` is supplied, its rules and extensional facts are
        verified against the snapshot (raising
        :class:`~repro.errors.SnapshotMismatchError` on a stale snapshot);
        otherwise the rules are reconstructed from the snapshot itself.
        Restoring skips the chase entirely — see benchmark E13.
        """
        from .snapshot import load_program
        return load_program(path, program=program, engine=engine)

    def _publish(self, update: UpdateResult) -> None:
        """Maintain/invalidate session caches and publish the new version.

        The expensive work — relation snapshot copies and the delta joins
        that maintain cached answers — runs *before* the store lock is
        taken (the single writer holds the program's write lock, so the
        working instance cannot move underneath).  Under the lock, every
        session atomically swaps in its maintained answers (or drops what
        could not be maintained) together with the publication of the new
        version, so a reader can never pin the new version while a cache
        still serves the old version's answers, nor store stale answers
        after the swap — the reader-side counterpart is
        ``QuerySession._answers_at``.  Deletion deltas are joined against
        the *previous published version* (where the removed facts still
        exist); insertion deltas against the post-update working instance.
        """
        if self._restored_maintained:
            # Snapshot-restored answer counts nobody has adopted yet cannot
            # be maintained through this update; keep only the entries the
            # update provably did not touch, so a session created later
            # never adopts counts that predate an unmaintained change.
            changed = update.changed_predicates
            if changed is None:
                self._restored_maintained = None
            elif changed:
                kept = [(cq, counts)
                        for cq, counts in self._restored_maintained
                        if not (cq.body_predicates() & changed)]
                self._restored_maintained = kept or None
        copies = self.versions.prepare(self.instance,
                                       update.changed_predicates)
        previous = self.versions.latest_instance()
        delta = _grouped_delta(update)
        sessions = list(self._sessions)
        maintained = [(session,
                       session._maintain_answers(update, delta, previous,
                                                 self.instance, self.version))
                      for session in sessions]
        with self.versions.lock:
            for session, outcomes in maintained:
                session._note_update(update, delta, outcomes)
            self.versions.publish(self.version, self.instance,
                                  update.changed_predicates, copies=copies)

    # -- answering ----------------------------------------------------------

    def queries(self) -> "QuerySession":
        """The default query session over this materialization (lazy).

        Double-checked under the write lock: two concurrent first readers
        must not each build (and register) a session — the loser would
        stay in ``_sessions`` and be maintained on every update forever.
        """
        if self._queries is None:
            with self._write_lock:
                if self._queries is None:
                    self._queries = QuerySession(self)
        return self._queries

    def certain_answers(self, query: QueryLike) -> Answers:
        """Certain answers of ``query`` over the materialized instance."""
        return self.queries().answers(query)

    def holds(self, query: QueryLike) -> bool:
        """Boolean certain answer of ``query``."""
        return self.queries().holds(query)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MaterializedProgram({len(self._tgds)} TGDs, "
                f"{self.instance.total_tuples()} facts, "
                f"version={self.version}, engine={self.engine!r})")


class QuerySession:
    """Answer many queries over one materialization, caching the plumbing.

    Caches, all keyed by query text:

    * **parsed queries** — parse once per distinct query;
    * **join plans** — the selectivity order of the body atoms, replayed
      through the matcher with ``preordered=True``;
    * **maintained answers** — :class:`MaintainedAnswers` support counts,
      updated *in place* from every update's fact delta (the owning
      :class:`MaterializedProgram` drives maintenance through
      ``_maintain_answers``/``_note_update``), so a cache hit costs one
      dictionary lookup (plus the parse-cache lookup that also memoizes the
      query's canonical key) and re-answering happens only when an update was
      too ambiguous to maintain (EGD merges, full re-chases) — tracked by
      the ``answers_maintained``/``maintenance_fallbacks`` stats counters;
    * **answers** — plain version-stamped answer tuples, used when
      maintenance is disabled (``maintain_answers=False`` restores the
      predicate-invalidation behaviour, e.g. for baselines).

    Plans and plain answers stay valid across updates whose
    ``changed_predicates`` are disjoint from the query's body predicates;
    an update with unknown impact (EGD merges) drops everything.
    """

    def __init__(self, materialized: Union[MaterializedProgram, DatalogProgram],
                 engine: Optional[str] = None, maintain_answers: bool = True,
                 support_budget: Optional[int] = None):
        if isinstance(materialized, DatalogProgram):
            materialized = MaterializedProgram(materialized, engine=engine)
        self.materialized = materialized
        self.engine = resolve_engine(engine) if engine is not None \
            else materialized.engine
        #: maintain cached answers by delta (counting IVM); ``False`` falls
        #: back to predicate-level invalidation + re-answering
        self.maintain_answers = maintain_answers
        #: bound on the total maintained support-count rows held across all
        #: :class:`MaintainedAnswers` entries (``None`` = unbounded).  When
        #: exceeded, least-recently-used entries are evicted (counted in
        #: ``stats.support_evictions``); the most recently used entry is
        #: always retained, and an evicted query simply re-answers and
        #: re-seeds on its next read.
        self.support_budget = support_budget
        self._support_clock = 0
        #: lifetime matching work + cache counters of this session
        self.stats = EngineStats(engine=self.engine)
        self._matcher: Matcher = matcher_for(self.engine, self.stats)
        #: query text -> (parsed query, canonical key ``str(cq)``)
        self._parsed: Dict[str, Tuple[ConjunctiveQuery, str]] = {}
        #: canonical key -> (body predicates, join plan)
        self._plans: Dict[str, Tuple[frozenset, List[Atom]]] = {}
        #: answer cache entries are (body predicates, version-stamp,
        #: answers): an entry is valid for every reader at version >= its
        #: stamp, because the owning program would have invalidated it had
        #: a later update touched its predicates
        self._answers: Dict[Tuple[str, bool],
                            Tuple[frozenset, int, Answers]] = {}
        #: maintained support counts per query text (same validity rule)
        self._maintained: Dict[str, MaintainedAnswers] = {}
        self._ws_solver = None
        self._ws_version: Optional[Tuple[int, Optional[int]]] = None
        materialized._sessions.append(self)
        if self.maintain_answers:
            self._adopt_restored()

    def _adopt_restored(self) -> None:
        """Adopt maintained answers restored from a snapshot (first session).

        A snapshot persists the support counts of the saved session's
        maintained queries; the first query session created over the
        restored program installs them, stamped with the restored version,
        so answering (and maintenance) continues without a single re-join.
        """
        restored = self.materialized._restored_maintained
        if not restored:
            return
        self.materialized._restored_maintained = None
        version = self.materialized.version
        for cq, counts in restored:
            entry = MaintainedAnswers(cq, counts, version)
            self._maintained[entry.key] = entry
            self._parsed.setdefault(entry.key, (cq, entry.key))

    # -- caches -------------------------------------------------------------

    def _keyed(self, query: QueryLike) -> Tuple[ConjunctiveQuery, str]:
        """``query`` parsed, with its canonical cache key (``str(cq)``).

        Query text is parsed and stringified once, then served from the
        parse cache (counted as a cache hit); a :class:`ConjunctiveQuery`
        object is keyed afresh (and not counted), as :meth:`query` always
        did.
        """
        if isinstance(query, ConjunctiveQuery):
            return query, str(query)
        cached = self._parsed.get(query)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        parsed = parse_query(query)
        keyed = (parsed, str(parsed))
        self._parsed[query] = keyed
        return keyed

    def query(self, query: QueryLike) -> ConjunctiveQuery:
        """Parse ``query`` (cached by source text)."""
        return self._keyed(query)[0]

    def plan(self, query: QueryLike,
             instance: Optional[DatabaseInstance] = None) -> List[Atom]:
        """The join plan for ``query`` against the current materialization."""
        cq, key = self._keyed(query)
        return self._plan(cq, key, instance)

    def _plan(self, cq: ConjunctiveQuery, key: str,
              instance: Optional[DatabaseInstance]) -> List[Atom]:
        entry = self._plans.get(key)
        if entry is not None:
            self.stats.cache_hits += 1
            return entry[1]
        self.stats.cache_misses += 1
        if instance is None:
            instance = self.materialized.versions.latest().instance
        plan = self._matcher.plan(
            cq.body, instance,
            bound=comparison_bindings(cq.comparisons))
        self._plans[key] = (frozenset(cq.body_predicates()), plan)
        return plan

    def _maintain_answers(self, update: UpdateResult,
                          delta: Optional[UpdateDelta],
                          previous: DatabaseInstance,
                          working: DatabaseInstance,
                          version: int) -> MaintenanceOutcomes:
        """Propagate ``update``'s fact delta through the maintained counts.

        Runs on the writer thread *before* the store lock is taken — the
        delta joins must not stall readers; ``_note_update`` installs the
        outcomes under the lock, atomically with the publication of
        ``version``.  Cost is O(delta + reached entries): each entry's
        constant signature is routed against the grouped ``delta`` and an
        entry no delta fact can pin is skipped without a join (it stays
        installed, untouched).  For a reached entry, counting maintenance
        enumerates the homomorphisms lost by pivoting the removed facts
        against ``previous`` (the last published version, where they still
        exist) and those gained by pivoting the added facts against
        ``working`` (the post-update instance); each moves its projected
        answer row's support by ±1, and facts retracted and re-derived
        within one update net out exactly.  An update whose delta is
        unknown (``delta is None``: EGD merges, no provenance) cannot be
        maintained: the entry is left for ``_note_update`` to drop, and
        the fallback is counted in ``stats.maintenance_fallbacks``.
        """
        outcomes: MaintenanceOutcomes = {}
        if not self.maintain_answers or not self._maintained:
            return outcomes
        changed = update.changed_predicates
        if changed is not None and not changed:
            return outcomes
        if delta is None:
            self.stats.maintenance_fallbacks += sum(
                1 for entry in list(self._maintained.values())
                if changed is None or not entry.predicates.isdisjoint(changed))
            return outcomes
        removed, added = delta
        for key, entry in list(self._maintained.items()):
            lose = removed.reaches(entry.signature)
            gain = added.reaches(entry.signature)
            if not (lose or gain):
                # no delta fact can pin an atom: answers unchanged
                outcomes[key] = (entry, entry)
                continue
            fresh = self._refresh(entry, removed if lose else None,
                                  added if gain else None,
                                  previous, working, version)
            if fresh is None:
                self.stats.maintenance_fallbacks += 1
            else:
                self.stats.answers_maintained += 1
            outcomes[key] = (entry, fresh)
        return outcomes

    def _refresh(self, entry: MaintainedAnswers,
                 removed: Optional[GroupedDelta],
                 added: Optional[GroupedDelta],
                 previous: DatabaseInstance, working: DatabaseInstance,
                 version: int) -> Optional[MaintainedAnswers]:
        """Run one reached entry's delta joins; return its successor.

        The successor is ``entry`` itself when no support moved (its
        answers at ``version`` equal those at its stamp), ``None`` when the
        counts turned out inconsistent (never served; dropped instead).
        """
        cq = entry.cq
        plan = entry.plan
        if plan is None:
            plan = entry.plan = DeltaJoinPlan(
                self._matcher, cq.body, variables=cq.body_variables(),
                comparisons=cq.comparisons)
        counts = entry.counts
        moves: Dict[AnswerTuple, int] = {}
        if removed is not None:
            for row, lost in plan.projected_counts(
                    previous, removed, cq.answer_variables).items():
                if counts.get(row, 0) < lost:
                    return None  # counts out of sync: never serve them
                moves[row] = -lost
        if added is not None:
            for row, gained in plan.projected_counts(
                    working, added, cq.answer_variables).items():
                moves[row] = moves.get(row, 0) + gained
        moves = {row: move for row, move in moves.items() if move}
        if not moves:
            return entry
        counts = dict(counts)
        #: rows whose support crossed zero (drives the sorted row patching
        #: — rows that merely changed support don't move)
        vanished: Set[AnswerTuple] = set()
        appeared: List[AnswerTuple] = []
        for row, move in moves.items():
            support = counts.get(row, 0)
            if support + move:
                counts[row] = support + move
                if not support:
                    appeared.append(row)
            else:
                del counts[row]
                vanished.add(row)
        fresh = entry._successor(counts, version)
        fresh._patch_rows(entry, vanished, appeared)
        fresh.rows()  # warm the certain flavour outside the lock
        return fresh

    def _note_update(self, update: UpdateResult,
                     delta: Optional[UpdateDelta],
                     outcomes: MaintenanceOutcomes) -> None:
        """Swap in maintained answers; invalidate what could not be kept.

        Called under the version store's lock, atomically with the
        publication of the new version.  Plans and plain answers over a
        changed predicate are dropped.  Each maintained entry over a
        changed predicate gets the successor ``_maintain_answers`` decided
        for it (itself when kept, ``None`` to drop); an entry it did not
        decide — installed by a reader while the delta joins ran — is kept
        if the grouped ``delta`` cannot reach it and dropped otherwise.  Updates whose delta is empty
        (``changed_predicates == set()``, e.g. inserting a fact that
        already existed as a derived fact) touch nothing and invalidate
        nothing — cached answers keep hitting.
        """
        changed = update.changed_predicates
        if changed is not None and not changed:
            return

        def touched(predicates: frozenset) -> bool:
            return changed is None or not predicates.isdisjoint(changed)

        # The sweeps iterate atomic snapshots (single C-level list() calls):
        # the caches are populated by readers without the store lock, so a
        # Python-level loop over a live dict could observe a concurrent
        # insert mid-iteration.
        for key in [key for key, (predicates, _) in list(self._plans.items())
                    if touched(predicates)]:
            self._plans.pop(key, None)
        for key in [key
                    for key, (predicates, _, _) in list(self._answers.items())
                    if touched(predicates)]:
            self._answers.pop(key, None)
        for key, entry in list(self._maintained.items()):
            if not touched(entry.predicates):
                continue
            outcome = outcomes.get(key)
            if outcome is not None and outcome[0] is entry:
                fresh = outcome[1]
            elif delta is None or delta[0].reaches(entry.signature) or \
                    delta[1].reaches(entry.signature):
                fresh = None
            else:
                continue
            if fresh is None:
                self._maintained.pop(key, None)
            elif fresh is not entry:
                self._maintained[key] = fresh
        self._evict_support()

    def _touch_entry(self, entry: MaintainedAnswers) -> None:
        """Stamp ``entry`` as just-used (drives LRU support eviction)."""
        self._support_clock += 1
        entry.last_used = self._support_clock

    def _evict_support(self) -> None:
        """Enforce ``support_budget`` over the maintained support counts.

        Evicts least-recently-used :class:`MaintainedAnswers` entries until
        the total number of support-count rows fits the budget (the most
        recently used entry is always kept, so a single oversized answer
        set cannot thrash).  Runs under the version store's lock, same as
        every other mutation of ``_maintained``.  Evicted queries lose only
        cached state: their next read re-answers and re-seeds.
        """
        budget = self.support_budget
        if budget is None or len(self._maintained) <= 1:
            return
        total = sum(len(entry.counts) for entry in self._maintained.values())
        while total > budget and len(self._maintained) > 1:
            victim = min(self._maintained.values(),
                         key=lambda entry: entry.last_used)
            self._maintained.pop(victim.key, None)
            total -= len(victim.counts)
            self.stats.support_evictions += 1

    # -- answering ----------------------------------------------------------

    def read(self, version: Optional[int] = None) -> ReadTransaction:
        """Open a read transaction pinning one published version.

        Every ``answers``/``holds`` call on the transaction observes exactly
        the pinned version, regardless of concurrent updates; the pin also
        shields the version from garbage collection until the transaction
        closes.  ``version=None`` pins the latest published version.
        """
        return ReadTransaction(self.materialized.versions, session=self,
                               version=version)

    def answers(self, query: QueryLike,
                allow_nulls: bool = False) -> Answers:
        """Answers of ``query`` over the latest published version.

        ``allow_nulls=False`` (the default) is the certain-answer
        semantics: tuples containing labeled nulls are dropped.  The result
        is an **immutable tuple**, shared across cache hits — a hit costs
        one dictionary lookup, never a copy of the answer set.  Each call
        is its own (single-read) transaction; hold an explicit
        :meth:`read` transaction to keep several reads on one version.
        """
        with self.read() as transaction:
            return transaction.answers(query, allow_nulls=allow_nulls)

    def _answers_at(self, pinned: InstanceVersion, query: QueryLike,
                    allow_nulls: bool = False) -> Answers:
        cq, key = self._keyed(query)
        return self._answers_keyed(pinned, cq, key, allow_nulls)

    def _answers_keyed(self, pinned: InstanceVersion, cq: ConjunctiveQuery,
                       key: str, allow_nulls: bool) -> Answers:
        entry = self._maintained.get(key)
        if entry is not None and entry.version <= pinned.version:
            self.stats.cache_hits += 1
            self._touch_entry(entry)
            return entry.rows(allow_nulls)
        cache_key = (key, allow_nulls)
        cached = self._answers.get(cache_key)
        if cached is not None and cached[1] <= pinned.version:
            self.stats.cache_hits += 1
            return cached[2]
        self.stats.cache_misses += 1
        instance = pinned.instance
        ordered = self._plan(cq, key, instance)
        counts = evaluate_query_counts(cq, instance, matcher=self._matcher,
                                       plan=ordered)
        result = rows_from_counts(counts, allow_nulls)
        # Store only when this read still sees the latest version; the
        # check-and-store runs under the store lock, which the writer holds
        # across answer maintenance + publication, so a reader of an old
        # version can never re-introduce answers a newer update replaced.
        store = self.materialized.versions
        with store.lock:
            if store.latest().version == pinned.version:
                if self.maintain_answers:
                    existing = self._maintained.get(key)
                    if existing is None or existing.version <= pinned.version:
                        fresh = MaintainedAnswers(cq, counts, pinned.version,
                                                  key=key)
                        fresh._seed_rows(allow_nulls, result)
                        self._touch_entry(fresh)
                        self._maintained[key] = fresh
                        self._evict_support()
                else:
                    previous = self._answers.get(cache_key)
                    if previous is None or previous[1] <= pinned.version:
                        self._answers[cache_key] = (
                            frozenset(cq.body_predicates()), pinned.version,
                            result)
        return result

    def holds(self, query: QueryLike) -> bool:
        """``True`` iff the (boolean) query body matches the materialization."""
        with self.read() as transaction:
            return transaction.holds(query)

    def _holds_at(self, pinned: InstanceVersion, query: QueryLike) -> bool:
        """Boolean reads ride the counted maintenance path.

        ``holds`` is true iff the query body has at least one homomorphism,
        i.e. iff the maintained support counts are non-empty (nulls
        included) — so a boolean read is served from the same
        :class:`MaintainedAnswers` entry as ``answers``, and updates move
        it by delta instead of re-running the join.  Only when maintenance
        is disabled does the session fall back to the first-match
        early-exit scan (cheaper for one-shot probes, but re-done on every
        call).
        """
        cq, key = self._keyed(query)
        entry = self._maintained.get(key)
        if entry is not None and entry.version <= pinned.version:
            self.stats.cache_hits += 1
            self._touch_entry(entry)
            return bool(entry.counts)
        if self.maintain_answers:
            return bool(self._answers_keyed(pinned, cq, key, allow_nulls=True))
        instance = pinned.instance
        ordered = self._plan(cq, key, instance)
        for _ in self._matcher.find_homomorphisms(
                ordered, instance,
                comparisons=cq.comparisons, preordered=True):
            return True
        return False

    def answer_many(self, queries: Sequence[QueryLike],
                    allow_nulls: bool = False) -> BatchAnswers:
        """Answer a whole batch; the result carries the batch's stats delta."""
        before = self.stats.snapshot()
        answers = [self.answers(query, allow_nulls=allow_nulls)
                   for query in queries]
        return BatchAnswers(answers=answers, stats=self.stats.delta(before))

    def ws_answers(self, query: QueryLike,
                   max_depth: Optional[int] = None) -> Answers:
        """Answers via the deterministic weakly-sticky solver (Section IV).

        The solver (with its rules-by-head index) is cached and rebuilt only
        when the EDB version changes.
        """
        from ..datalog.ws_qa import DeterministicWSQAns
        key = (self.materialized.version, max_depth)
        if self._ws_solver is None or self._ws_version != key:
            self.stats.cache_misses += 1
            self._ws_solver = DeterministicWSQAns(
                self.materialized.edb_program(), max_depth=max_depth,
                engine=self.engine)
            self._ws_version = key
        else:
            self.stats.cache_hits += 1
        return self._ws_solver.answers(self.query(query))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"QuerySession({self.materialized!r}, "
                f"{len(self._parsed)} parsed, {len(self._plans)} plans)")
