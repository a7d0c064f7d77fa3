"""Unit tests for counting-based answer maintenance (IVM).

The session layer keeps cached query answers as support-count multisets
(:class:`~repro.engine.session.MaintainedAnswers`) and moves them by every
update's exact fact delta through a compiled
:class:`~repro.engine.matching.DeltaJoinPlan`.  These tests pin down the
mechanics the differential suite (``test_ivm_differential.py``) then
hammers with randomized streams:

* insertions and retraction cones move maintained answers without a
  re-join (``rows_scanned == 0`` at read time, ``answers_maintained``
  counts the in-place updates);
* EGD merges and full re-chases cannot be maintained — the entry is
  dropped, ``maintenance_fallbacks`` counts it, and the next read
  re-answers correctly;
* snapshots persist the support counts, so a restored session answers —
  and keeps maintaining — without a single join;
* ingestion interns constants (pointer-identity hashing/equality);
* cache hits hand out the same immutable answer tuple, never a copy.
"""

from __future__ import annotations

import pytest

from repro.datalog import parse_program, parse_query
from repro.datalog.answering import (evaluate_query, evaluate_query_counts,
                                     rows_from_counts)
from repro.datalog.chase import chase
from repro.engine.matching import DeltaJoinPlan, matcher_for
from repro.engine.session import MaterializedProgram, QuerySession
from repro.relational.csvio import read_relation_csv, write_relation_csv
from repro.relational.instance import Relation
from repro.relational.schema import RelationSchema
from repro.relational.values import Null, ValueInterner, intern_value

ENGINES = ("indexed", "naive")


def _program():
    return parse_program("""
        Derived(X, Y) :- Base(X, Y).
        Joined(X, Z) :- Derived(X, Y), Link(Y, Z).
        Base(a, b). Base(c, d).
        Link(b, t1). Link(d, t2).
    """)


QUERY = "?(X, Z) :- Joined(X, Z)."


def _fresh_answers(materialized, query):
    """Oracle: re-chase the session's own EDB and evaluate from scratch."""
    result = chase(materialized.edb_program(), check_constraints=False)
    return evaluate_query(parse_query(query), result.instance)


# -- maintenance mechanics ----------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_insertions_maintain_answers_without_rejoin(engine):
    materialized = MaterializedProgram(_program(), engine=engine)
    session = materialized.queries()
    assert session.answers(QUERY) == (("a", "t1"), ("c", "t2"))

    before = session.stats.snapshot()
    materialized.add_facts([("Base", ("e", "b"))])
    assert session.stats.delta(before).answers_maintained == 1

    before = session.stats.snapshot()
    assert session.answers(QUERY) == (("a", "t1"), ("c", "t2"), ("e", "t1"))
    delta = session.stats.delta(before)
    assert delta.cache_hits >= 1 and delta.cache_misses == 0
    assert delta.rows_scanned == 0  # no join work at read time
    assert session.answers(QUERY) == _fresh_answers(materialized, QUERY)


@pytest.mark.parametrize("engine", ENGINES)
def test_retraction_cone_decrements_supports(engine):
    materialized = MaterializedProgram(_program(), engine=engine)
    session = materialized.queries()
    session.answers(QUERY)

    before = session.stats.snapshot()
    # Deleting Base(a, b) cones through Derived(a, b) and Joined(a, t1).
    update = materialized.retract_facts([("Base", ("a", "b"))])
    assert update.is_incremental
    assert session.stats.delta(before).answers_maintained == 1

    before = session.stats.snapshot()
    assert session.answers(QUERY) == (("c", "t2"),)
    delta = session.stats.delta(before)
    assert delta.cache_misses == 0 and delta.rows_scanned == 0
    assert session.answers(QUERY) == _fresh_answers(materialized, QUERY)


def test_multi_derivation_support_survives_single_retraction():
    """An answer with two derivations loses one support, not the answer."""
    program = parse_program("""
        Reach(X) :- EdgeA(X).
        Reach(X) :- EdgeB(X).
        Out(X) :- Reach(X), Mark(X).
        EdgeA(n1). EdgeB(n1). Mark(n1).
    """)
    materialized = MaterializedProgram(program)
    session = materialized.queries()
    query = "?(X) :- Reach(X), Mark(X)."
    assert session.answers(query) == (("n1",),)

    # Reach(n1) stays derivable through EdgeB after EdgeA(n1) goes away, so
    # the instance delta is empty and the answer must survive untouched.
    materialized.retract_facts([("EdgeA", ("n1",))])
    assert session.answers(query) == (("n1",),)
    assert session.answers(query) == _fresh_answers(materialized, query)

    materialized.retract_facts([("EdgeB", ("n1",))])
    assert session.answers(query) == ()
    assert session.answers(query) == _fresh_answers(materialized, query)


def test_same_update_retract_and_rederive_nets_out():
    """A fact both extensional and derivable survives retraction of the EDB
    copy — the repair re-derives it and the counts net out exactly."""
    program = parse_program("""
        Stored(X) :- Source(X).
        Source(s1).
        Stored(s1).
    """)
    materialized = MaterializedProgram(program)
    session = materialized.queries()
    query = "?(X) :- Stored(X)."
    assert session.answers(query) == (("s1",),)

    update = materialized.retract_facts([("Stored", ("s1",))])
    assert update.is_incremental
    assert session.answers(query) == (("s1",),)  # re-derived from Source
    assert session.answers(query) == _fresh_answers(materialized, query)


@pytest.mark.parametrize("engine", ENGINES)
def test_comparison_queries_are_maintained(engine):
    program = parse_program("""
        Wide(X, V) :- Narrow(X, V).
        Narrow(p, 5). Narrow(q, 9).
    """)
    materialized = MaterializedProgram(program, engine=engine)
    session = materialized.queries()
    query = "?(X) :- Wide(X, V), V > 4."
    assert session.answers(query) == (("p",), ("q",))

    before = session.stats.snapshot()
    materialized.add_facts([("Narrow", ("r", 2)), ("Narrow", ("s", 7))])
    assert session.stats.delta(before).answers_maintained == 1
    assert session.answers(query) == (("p",), ("q",), ("s",))
    assert session.answers(query) == _fresh_answers(materialized, query)


def test_boolean_query_maintenance():
    materialized = MaterializedProgram(_program())
    session = materialized.queries()
    query = "? :- Joined(X, Z)."
    assert session.answers(query) == ((),)
    materialized.retract_facts([("Base", ("a", "b")), ("Base", ("c", "d"))])
    assert session.answers(query) == ()
    materialized.add_facts([("Base", ("a", "b"))])
    assert session.answers(query) == ((),)


@pytest.mark.parametrize("engine", ENGINES)
def test_holds_is_maintained_not_reanswered(engine):
    """Boolean reads ride the counted path: after the first ``holds`` the
    entry is maintained through updates and served without a join."""
    materialized = MaterializedProgram(_program(), engine=engine)
    session = materialized.queries()
    assert session.holds(QUERY) is True

    before = session.stats.snapshot()
    materialized.add_facts([("Base", ("e", "b"))])
    assert session.stats.delta(before).answers_maintained == 1

    before = session.stats.snapshot()
    assert session.holds(QUERY) is True
    delta = session.stats.delta(before)
    assert delta.cache_hits >= 1 and delta.cache_misses == 0
    assert delta.rows_scanned == 0  # served from maintained counts

    # ``holds`` and ``answers`` share one maintained entry per query.
    before = session.stats.snapshot()
    assert session.answers(QUERY) == (("a", "t1"), ("c", "t2"), ("e", "t1"))
    assert session.stats.delta(before).rows_scanned == 0

    # Retract every support: the maintained counts drain to "does not hold".
    before = session.stats.snapshot()
    materialized.retract_facts([("Base", ("a", "b")), ("Base", ("c", "d")),
                                ("Base", ("e", "b"))])
    assert session.stats.delta(before).answers_maintained == 1
    before = session.stats.snapshot()
    assert session.holds(QUERY) is False
    assert session.stats.delta(before).rows_scanned == 0


def test_holds_fallback_counters_on_egd_merge():
    """A boolean read's maintained entry falls back exactly like an answer
    entry: an EGD merge drops it, counts a maintenance fallback, and the
    next ``holds`` re-answers from scratch — correctly."""
    program = parse_program("""
        exists Z : HasType(X, Z) :- Item(X).
        T = T2 :- HasType(X, T), Declared(X, T2).
        Item(i1).
    """)
    materialized = MaterializedProgram(program)
    session = materialized.queries()
    query = "? :- HasType(i1, T)."
    assert session.holds(query) is True

    before = session.stats.snapshot()
    update = materialized.add_facts([("Declared", ("i1", "widget"))])
    assert update.changed_predicates is None  # the merge poisoned the delta
    delta = session.stats.delta(before)
    assert delta.maintenance_fallbacks == 1 and delta.answers_maintained == 0

    before = session.stats.snapshot()
    assert session.holds(query) is True
    assert session.stats.delta(before).cache_misses >= 1  # re-answered
    assert session.holds("? :- HasType(i1, widget).") is True


def test_holds_without_maintenance_keeps_early_exit():
    """``maintain_answers=False`` restores the one-shot early-exit scan."""
    materialized = MaterializedProgram(_program())
    session = QuerySession(materialized, maintain_answers=False)
    before = session.stats.snapshot()
    assert session.holds(QUERY) is True
    assert session.stats.delta(before).rows_scanned > 0
    assert not session._maintained  # nothing was seeded


# -- fallback triggers --------------------------------------------------------


def test_egd_merge_drops_maintained_answers_and_counts_fallback():
    program = parse_program("""
        exists Z : HasType(X, Z) :- Item(X).
        T = T2 :- HasType(X, T), Declared(X, T2).
        Item(i1).
    """)
    materialized = MaterializedProgram(program)
    session = materialized.queries()
    query = "?(X, T) :- HasType(X, T)."
    session.answers(query, allow_nulls=True)

    before = session.stats.snapshot()
    # The insert fires the EGD: the null type merges with 'widget'.  The
    # instance delta is unreconstructable, so maintenance must fall back.
    update = materialized.add_facts([("Declared", ("i1", "widget"))])
    assert update.changed_predicates is None and update.added_facts is None
    delta = session.stats.delta(before)
    assert delta.maintenance_fallbacks == 1 and delta.answers_maintained == 0

    before = session.stats.snapshot()
    assert session.answers(query) == (("i1", "widget"),)
    # Re-answered from scratch: both the answer entry and its join plan
    # were dropped and had to be rebuilt.
    assert session.stats.delta(before).cache_misses >= 1
    assert session.answers(query) == _fresh_answers(materialized, query)


def test_full_rechase_drops_maintained_answers_and_counts_fallback():
    program = parse_program("""
        exists Z : HasType(X, Z) :- Item(X).
        T = T2 :- HasType(X, T), Declared(X, T2).
        Item(i1).
        Declared(i1, widget).
    """)
    materialized = MaterializedProgram(program)
    session = materialized.queries()
    query = "?(X, T) :- HasType(X, T)."
    assert session.answers(query) == (("i1", "widget"),)

    before = session.stats.snapshot()
    update = materialized.retract_facts([("Item", ("i1",))])
    assert update.strategy == "full"  # merges made provenance ambiguous
    assert session.stats.delta(before).maintenance_fallbacks == 1

    assert session.answers(query) == ()
    assert session.answers(query) == _fresh_answers(materialized, query)


def test_sessions_without_provenance_fall_back():
    materialized = MaterializedProgram(_program(), record_provenance=False)
    session = materialized.queries()
    session.answers(QUERY)
    before = session.stats.snapshot()
    materialized.add_facts([("Base", ("e", "b"))])
    assert session.stats.delta(before).maintenance_fallbacks == 1
    assert session.answers(QUERY) == _fresh_answers(materialized, QUERY)


# -- snapshot persistence -----------------------------------------------------


def test_snapshot_round_trips_maintained_answers(tmp_path):
    materialized = MaterializedProgram(_program())
    session = materialized.queries()
    expected = session.answers(QUERY)
    materialized.add_facts([("Base", ("e", "b"))])
    expected_after = session.answers(QUERY)

    path = materialized.save(tmp_path / "session.snapshot")
    restored = MaterializedProgram.load(path)
    restored_session = restored.queries()

    before = restored_session.stats.snapshot()
    assert restored_session.answers(QUERY) == expected_after
    delta = restored_session.stats.delta(before)
    assert delta.rows_scanned == 0  # answered from restored counts, no join
    assert delta.cache_hits == 1    # the maintained entry (parse is a miss)

    # The restored counts keep maintaining through further updates.
    before = restored_session.stats.snapshot()
    restored.retract_facts([("Base", ("e", "b"))])
    assert restored_session.stats.delta(before).answers_maintained == 1
    assert restored_session.answers(QUERY) == expected
    assert restored_session.answers(QUERY) == _fresh_answers(restored, QUERY)


def test_updates_before_adoption_drop_stale_restored_counts(tmp_path):
    """Restored maintained counts nobody has adopted yet must not survive
    an update that touches their predicates: a session created *after* the
    update would otherwise serve the snapshot's answers as current (the
    serving daemon's replay path hits exactly this ordering)."""
    materialized = MaterializedProgram(_program())
    materialized.queries().answers(QUERY)
    path = materialized.save(tmp_path / "session.snapshot")

    restored = MaterializedProgram.load(path)
    restored.add_facts([("Base", ("e", "b"))])  # before any session exists
    session = restored.queries()  # adopts only what is still valid: nothing
    assert session.answers(QUERY) == (("a", "t1"), ("c", "t2"), ("e", "t1"))
    assert session.answers(QUERY) == _fresh_answers(restored, QUERY)


def test_snapshot_without_maintained_answers_stays_loadable(tmp_path):
    materialized = MaterializedProgram(_program())
    path = materialized.save(tmp_path / "bare.snapshot")  # nothing answered
    restored = MaterializedProgram.load(path)
    assert restored.queries().answers(QUERY) == (("a", "t1"), ("c", "t2"))


# -- delta-join plans ---------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_delta_join_plan_enumerates_only_delta_homomorphisms(engine):
    program = _program()
    result = chase(program, check_constraints=False)
    instance = result.instance
    cq = parse_query("?(X, Z) :- Derived(X, Y), Link(Y, Z).")

    matcher = matcher_for(engine)
    plan = DeltaJoinPlan(matcher, cq.body, variables=cq.body_variables())
    # Pivot on a Link delta: exactly the one homomorphism through Link(b, t1).
    assert len(list(plan.homomorphisms(instance,
                                       [("Link", ("b", "t1"))]))) == 1
    # A homomorphism reachable through several pivots is yielded once.
    assert len(list(plan.homomorphisms(
        instance, [("Link", ("b", "t1")), ("Derived", ("a", "b"))]))) == 1
    # A delta row absent from the live instance is skipped entirely.
    assert list(plan.homomorphisms(instance, [("Link", ("zz", "t9"))])) == []
    # Facts over predicates outside the body are ignored.
    assert list(plan.homomorphisms(instance, [("Joined", ("a", "t1"))])) == []


def test_evaluate_query_counts_matches_evaluation():
    program = _program()
    result = chase(program, check_constraints=False)
    query = parse_query(QUERY)
    counts = evaluate_query_counts(query, result.instance)
    assert all(support >= 1 for support in counts.values())
    assert rows_from_counts(counts) == evaluate_query(query, result.instance)
    assert rows_from_counts(counts, allow_nulls=True) == \
        evaluate_query(query, result.instance, allow_nulls=True)


# -- delta routing: only the entries an update can change are visited --------

ROUTING_ENGINES = ("indexed", "naive", "columnar")


def _routing_session(engine, program_text, queries):
    materialized = MaterializedProgram(parse_program(program_text),
                                       engine=engine)
    session = materialized.queries()
    for query in queries:
        session.answers(query)
    return materialized, session


def _entry(session, query):
    return session._maintained[str(session.query(query))]


def _assert_exact(session, materialized, queries):
    for query in queries:
        assert session.answers(query) == _fresh_answers(materialized, query), \
            query


@pytest.mark.parametrize("engine", ROUTING_ENGINES)
def test_routing_visits_only_entries_a_delta_fact_can_pin(engine):
    """Constants at several positions: an added fact reaches exactly the
    entries whose constants it equals, and only those are joined."""
    queries = ["?(Y, Z) :- R(a, Y, Z).",      # reached (position 0)
               "?(X, Z) :- R(X, b, Z).",      # skipped (position 1 is q)
               "?(X) :- R(X, q, c).",         # skipped (position 2 is r)
               "?(X) :- R(X, q, r).",         # reached (positions 1 and 2)
               "?(X, Y, Z) :- R(X, Y, Z)."]   # reached (no constants)
    materialized, session = _routing_session(
        engine, "R(a, b, c). R(d, b, c).", queries)
    skipped = [_entry(session, query) for query in queries[1:3]]

    before = session.stats.snapshot()
    materialized.add_facts([("R", ("a", "q", "r"))])
    delta = session.stats.delta(before)
    assert delta.answers_maintained == 3
    assert delta.maintenance_fallbacks == 0
    for query, entry in zip(queries[1:3], skipped):
        assert _entry(session, query) is entry and entry.version == 0
    assert _entry(session, queries[0]).version == materialized.version
    _assert_exact(session, materialized, queries)

    # A retraction routes the same way, against the removed facts: only
    # R(X, b, Z) and the constant-free query can pin R(d, b, c).
    before = session.stats.snapshot()
    materialized.retract_facts([("R", ("d", "b", "c"))])
    assert session.stats.delta(before).answers_maintained == 2
    _assert_exact(session, materialized, queries)


@pytest.mark.parametrize("engine", ROUTING_ENGINES)
def test_repeated_variables_never_cause_a_skip(engine):
    """``R(X, X, Z)`` has no constants: every R fact reaches it.  A fact
    breaking the repetition joins to nothing and keeps the entry."""
    query = "?(X) :- R(X, X, Z)."
    materialized, session = _routing_session(engine, "R(a, a, c).", [query])
    entry = _entry(session, query)

    before = session.stats.snapshot()
    materialized.add_facts([("R", ("a", "b", "c"))])
    assert session.stats.delta(before).answers_maintained == 1
    assert _entry(session, query) is entry and entry.version == 0

    materialized.add_facts([("R", ("d", "d", "e"))])
    assert session.answers(query) == (("a",), ("d",))
    _assert_exact(session, materialized, [query])


@pytest.mark.parametrize("engine", ROUTING_ENGINES)
def test_self_join_routes_on_the_atom_a_fact_matches(engine):
    """``E(a, Y), E(Y, c)``: a fact matching only the second atom still
    reaches the entry; a fact matching neither atom is skipped."""
    query = "?(Y) :- E(a, Y), E(Y, c)."
    materialized, session = _routing_session(engine, "E(a, b). E(a, k).",
                                             [query])
    assert session.answers(query) == ()
    entry = _entry(session, query)

    before = session.stats.snapshot()
    materialized.add_facts([("E", ("z", "q"))])  # pins neither atom
    assert session.stats.delta(before).answers_maintained == 0
    assert _entry(session, query) is entry

    before = session.stats.snapshot()
    materialized.add_facts([("E", ("b", "c"))])  # pins E(Y, c) only
    assert session.stats.delta(before).answers_maintained == 1
    assert session.answers(query) == (("b",),)
    _assert_exact(session, materialized, [query])


@pytest.mark.parametrize("engine", ROUTING_ENGINES)
def test_comparison_bound_constants_never_cause_a_wrong_skip(engine):
    """``X = 'a'`` binds X like a constant, but routing ignores it: the
    entry is always reached by R facts, and stays exact."""
    query = "?(Y) :- R(X, Y), X = 'a'."
    materialized, session = _routing_session(engine, "R(a, y1). R(b, y2).",
                                             [query])
    assert session.answers(query) == (("y1",),)

    before = session.stats.snapshot()
    materialized.add_facts([("R", ("a", "y3"))])
    assert session.stats.delta(before).answers_maintained == 1
    assert session.answers(query) == (("y1",), ("y3",))

    entry = _entry(session, query)
    materialized.add_facts([("R", ("b", "y4"))])  # joined, filtered, kept
    assert _entry(session, query) is entry
    materialized.retract_facts([("R", ("a", "y1"))])
    assert session.answers(query) == (("y3",),)
    _assert_exact(session, materialized, [query])


@pytest.mark.parametrize("engine", ROUTING_ENGINES)
def test_null_bearing_deltas_route_exactly(engine):
    """Derived facts carrying labeled nulls reach entries with variables at
    the null's position, never an entry with a constant there."""
    queries = ["?(X) :- S(X, k).", "?(X) :- S(X, Z).", "?(Z) :- S(x1, Z)."]
    program = """
        exists Z : S(X, Z) :- B(X).
        B(x0). S(x0, k).
    """
    materialized, session = _routing_session(engine, program, queries)
    constant_entry = _entry(session, queries[0])

    before = session.stats.snapshot()
    update = materialized.add_facts([("B", ("x1",))])
    assert any(isinstance(value, Null)
               for _, row in update.added_facts for value in row)
    assert session.stats.delta(before).answers_maintained == 2
    assert _entry(session, queries[0]) is constant_entry
    assert session.answers(queries[1]) == (("x0",), ("x1",))
    assert session.answers(queries[2]) == ()  # certain answers drop nulls
    assert len(session.answers(queries[2], allow_nulls=True)) == 1
    _assert_exact(session, materialized, queries)

    materialized.retract_facts([("B", ("x1",))])
    _assert_exact(session, materialized, queries)
    assert session.answers(queries[2], allow_nulls=True) == ()


@pytest.mark.parametrize("engine", ROUTING_ENGINES)
def test_retract_and_rederive_keeps_the_entry_and_its_stamp(engine):
    """The joins run (the delta reaches the entry) but net out: the entry
    stays installed as the same object, with its old stamp."""
    program = """
        Stored(X) :- Source(X).
        Source(s1).
        Stored(s1).
    """
    query = "?(X) :- Stored(X)."
    materialized, session = _routing_session(engine, program, [query])
    entry = _entry(session, query)
    rows = session.answers(query)

    before = session.stats.snapshot()
    update = materialized.retract_facts([("Stored", ("s1",))])
    assert ("Stored", ("s1",)) in update.removed_facts
    assert ("Stored", ("s1",)) in update.added_facts
    assert session.stats.delta(before).answers_maintained == 1
    assert _entry(session, query) is entry and entry.version == 0
    assert session.answers(query) is rows  # the same shared tuple


@pytest.mark.parametrize("engine", ROUTING_ENGINES)
def test_support_moves_without_a_zero_crossing_share_the_rows(engine):
    """A second derivation of an existing answer row moves its support but
    no row: the successor takes the new stamp and shares the rows tuple."""
    query = "?(X) :- R(X, Y)."
    materialized, session = _routing_session(engine, "R(a, y1).", [query])
    entry = _entry(session, query)
    rows = session.answers(query)

    materialized.add_facts([("R", ("a", "y2"))])
    successor = _entry(session, query)
    assert successor is not entry
    assert successor.version == materialized.version
    assert successor.counts == {("a",): 2}
    assert session.answers(query) is rows

    materialized.retract_facts([("R", ("a", "y1"))])
    assert _entry(session, query).counts == {("a",): 1}
    assert session.answers(query) is rows
    _assert_exact(session, materialized, [query])


@pytest.mark.parametrize("engine", ROUTING_ENGINES)
def test_entries_installed_during_maintenance_are_routed_again(
        engine, monkeypatch):
    """A decision applies only to the entry it was made for.  An entry a
    reader installs while the delta joins run is dropped if the delta can
    reach it and kept (same object) if it cannot."""
    reached = "?(Z) :- R(a, Z)."
    unreached = "?(Z) :- R(b, Z)."
    materialized, session = _routing_session(engine, "R(a, z1). R(b, z2).",
                                             [reached, unreached])
    original = session._maintain_answers
    installed = {}

    def maintain_then_reinstall(*args):
        outcomes = original(*args)
        for query in (reached, unreached):  # a reader re-seeds both entries
            session._maintained.pop(str(session.query(query)))
            session.answers(query)
            installed[query] = _entry(session, query)
        return outcomes

    monkeypatch.setattr(session, "_maintain_answers", maintain_then_reinstall)
    materialized.add_facts([("R", ("a", "z3"))])
    assert str(session.query(reached)) not in session._maintained
    assert _entry(session, unreached) is installed[unreached]
    _assert_exact(session, materialized, [reached, unreached])


@pytest.mark.parametrize("engine", ROUTING_ENGINES)
def test_pinned_readers_see_their_version_across_kept_and_moved_entries(
        engine):
    """A reader pinned before an update keeps its version's answers for
    moved and kept entries alike; a reader pinned after sees the update."""
    moved = "?(Z) :- R(a, Z)."
    kept = "?(Z) :- R(b, Z)."
    touched_kept = "?(Y, Z) :- R(Y, Z), R(Z, q)."
    queries = [moved, kept, touched_kept]
    materialized, session = _routing_session(engine, "R(a, z1). R(b, z2).",
                                             queries)
    old = {query: session.answers(query) for query in queries}
    with session.read() as pinned_before:
        materialized.add_facts([("R", ("a", "z3"))])
        assert _entry(session, kept).version == 0
        assert _entry(session, touched_kept).version == 0
        assert _entry(session, moved).version == materialized.version
        with session.read() as pinned_after:
            for query in queries:
                assert pinned_before.answers(query) == old[query]
                assert pinned_after.answers(query) == \
                    _fresh_answers(materialized, query)
    assert session.answers(moved) == (("z1",), ("z3",))


def test_cache_hit_reuses_the_memoized_key(monkeypatch):
    """A cached read does not re-stringify the parsed query, and counts the
    same hits as before the key memo (parse hit + entry hit)."""
    from repro.datalog.rules import ConjunctiveQuery

    materialized = MaterializedProgram(_program())
    session = materialized.queries()
    session.answers(QUERY)
    session.holds(QUERY)
    calls = []
    original = ConjunctiveQuery.__str__

    def counting_str(cq):
        calls.append(cq)
        return original(cq)

    monkeypatch.setattr(ConjunctiveQuery, "__str__", counting_str)
    before = session.stats.snapshot()
    session.answers(QUERY)
    session.holds(QUERY)
    delta = session.stats.delta(before)
    assert calls == []
    assert delta.cache_hits == 4 and delta.cache_misses == 0


# -- satellites: interning and immutable answer sharing -----------------------


def test_cache_hits_share_one_immutable_tuple():
    materialized = MaterializedProgram(_program())
    session = materialized.queries()
    first = session.answers(QUERY)
    second = session.answers(QUERY)
    assert isinstance(first, tuple)
    assert first is second  # O(1) hit: the same object, never a copy


def test_csv_ingestion_interns_constants(tmp_path):
    relation = Relation(RelationSchema("R", ["a", "b"]))
    relation.add(("ward_one", "value_1"))
    relation.add(("ward_one", "value_2"))
    relation.add((Null("n1"), "ward_one"))
    path = tmp_path / "R.csv"
    write_relation_csv(relation, path)

    loaded = read_relation_csv(path)
    values = [value for row in loaded.sorted_rows() for value in row
              if value == "ward_one"]
    assert len(values) == 3
    assert values[0] is values[1] is values[2]  # one object per constant
    assert set(loaded) == set(relation)


def test_value_interner_canonicalizes_and_passes_unhashable_through():
    interner = ValueInterner()
    a = interner.intern("x" * 40)
    b = interner.intern("xxxx" * 10)
    assert a is b
    one = interner.intern(1.5)
    other = interner.intern(1.5)
    assert one is other
    unhashable = [1, 2]
    assert interner.intern(unhashable) is unhashable
    assert intern_value("spam") is intern_value("spam")
    assert interner.intern_row(("p", "q")) == ("p", "q")


def test_value_interner_table_is_bounded():
    interner = ValueInterner(max_entries=3)
    for value in (1.0, 2.0, 3.0, 4.0, 5.0):
        assert interner.intern(value) == value
    assert len(interner) == 3  # overflow values pass through uninterned
    # Values already canonicalized keep deduplicating after the cap.
    assert interner.intern(2.0) is interner.intern(2.0)


def test_snapshot_restore_interns_constants(tmp_path):
    materialized = MaterializedProgram(_program())
    path = materialized.save(tmp_path / "interned.snapshot")
    restored = MaterializedProgram.load(path)
    instance = restored.instance
    stored = [value for relation in instance for row in relation
              for value in row if value == "b"]
    assert len(stored) >= 2
    first = stored[0]
    assert all(value is first for value in stored)
