"""Workload definitions and the seeded schedule compiler.

The benchmark owns this compiler (it does not use
:mod:`repro.workloads`), so a change to the library's traffic harness
cannot change what the benchmark offers.  Everything here is pure: the
same ``(workload, seed, size)`` always compiles to the same
:class:`Schedule`, byte for byte (:meth:`Schedule.encode`).

A run drives one daemon through these phases, in this order:

* ``count`` — a fixed, seed-independent op list on one connection.  Its
  ``stats``-op counter delta repeats exactly from run to run.
* ``warmup`` — fills query caches and, for ``cascade``, adds the
  inspections the measured window later retracts.
* ``open`` — timestamped ops fired at the workload's fixed offered rate.
* ``closed`` — a fixed number of ops two connections drain back to back
  (saturation), in two halves with a checkpoint between them.  A trace run then drains the ``overhead`` ops in short
  slices, traced and untraced in turn, to measure tracing's own cost.
* ``tail`` — a fixed, seed-independent list of writes after an explicit
  checkpoint, so every restart replays the same WAL tail.

Every ``retract`` targets a row present before the measured window (the
initial extension, the count pass's adds or the warm-up's adds) and no
row is retracted twice; every ``add`` is a fresh row never present
before.  Each op is therefore valid in any interleaving, and the final
EDB is a function of which ops were acknowledged, not of their order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: sensor-network sizes (keyword arguments of ``SensorNetSpec``).
#: L: about 10k materialized facts; XL: about 31k.  ``tiny`` is for the
#: benchmark's own tests.
SIZES: Dict[str, Dict[str, int]] = {
    "L": dict(buildings=4, floors_per_building=4, rooms_per_floor=4,
              sensors_per_room=4, days=14, inspections=40, readings=2000),
    "XL": dict(buildings=6, floors_per_building=4, rooms_per_floor=5,
               sensors_per_room=4, days=20, inspections=80, readings=8000),
    "tiny": dict(buildings=2, floors_per_building=2, rooms_per_floor=2,
                 sensors_per_room=2, days=4, inspections=6, readings=60),
}

READINGS = "SensorReadings"
INSPECTIONS = "BuildingInspection"

#: op kinds and the latency class each one reports under
OP_CLASS = {"query": "query", "holds": "query", "add": "write",
            "retract": "write", "quality": "quality", "assess": "quality"}

#: the seed of the count pass: fixed, so its counters repeat exactly
COUNT_SEED = 0

#: ops per stratified block of op kinds (every mix share is a multiple
#: of 1/BLOCK)
BLOCK = 20

#: overhead-phase ops of a trace run, as a share of the closed loop's
OVERHEAD_SHARE = 0.3

#: one in this many cascade adds (and retracts) is a full cascade; low
#: enough that the L size's sole inspections last through every measured
#: retract, so the heavy share holds to the end of the closed loop
HEAVY_EVERY = 8

#: the default compaction policy's records between checkpoints; each
#: measured window starts at a checkpoint and must write fewer
CHECKPOINT_EVERY = 256

#: share of "quality" ops that are a full assess
ASSESS_SHARE = 0.25

#: facts per warm-up add request that only grows the retract pool
POOL_BATCH = 20

#: writes between the last checkpoint and shutdown
TAIL_WRITES = 32


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one data size."""

    name: str
    size: str
    #: the relation add/retract ops target
    relation: str
    #: op-kind fractions ("quality" covers quality_answers and assess)
    mix: Dict[str, float]
    #: fixed open-loop offered rate (ops/s), about 40% of saturation
    rate: float
    #: ops in each of the two closed-loop halves: a few seconds at
    #: saturation, and fewer writes than the records between checkpoints
    closed_ops: int
    #: ops in the fixed count pass
    count_ops: int = 120
    #: ops in the warm-up (on top of adds the retract pool needs)
    warmup_ops: int = 200


#: Three mixes that load different layers (README.md has the map):
#: ``reads`` the request path, ``ingest`` the commit path at the larger
#: size, ``cascade`` the chase, provenance and quality layers.  Rates and
#: closed-loop sizes were set once from saturation on a 2-CPU host
#: (about 800, 85 and 250 ops/s).
WORKLOADS: Dict[str, Workload] = {
    "reads": Workload(
        name="reads", size="L", relation=READINGS,
        mix={"query": 0.85, "holds": 0.10, "add": 0.05},
        rate=280.0, closed_ops=3500),
    "ingest": Workload(
        name="ingest", size="XL", relation=READINGS,
        mix={"add": 0.45, "retract": 0.30, "query": 0.20, "quality": 0.05},
        rate=32.0, closed_ops=330, count_ops=60, warmup_ops=60),
    "cascade": Workload(
        name="cascade", size="L", relation=INSPECTIONS,
        mix={"add": 0.15, "retract": 0.10, "quality": 0.35, "query": 0.40},
        rate=98.0, closed_ops=1000),
}


@dataclass(frozen=True)
class Op:
    """One request of a schedule."""

    #: query, holds, quality, assess, add, add-batch or retract
    kind: str
    #: the query text, or the relation a write targets
    text: str = ""
    #: the written row (a tuple of rows for add-batch)
    row: Tuple = ()

    def as_list(self) -> list:
        return [self.kind, self.text, list(self.row)]


@dataclass
class Schedule:
    """A compiled run: ops per phase plus what the checks need."""

    workload: str
    seed: int
    size: str
    relation: str
    #: the assessed/updated relation's rows before any op
    initial_rows: List[Tuple]
    count: List[Op] = field(default_factory=list)
    warmup: List[Op] = field(default_factory=list)
    #: (due offset in seconds, op)
    open: List[Tuple[float, Op]] = field(default_factory=list)
    closed: List[Op] = field(default_factory=list)
    #: ops a trace run drains to measure its own overhead
    overhead: List[Op] = field(default_factory=list)
    tail: List[Op] = field(default_factory=list)
    #: plain query texts whose final answers are checked
    check_queries: List[str] = field(default_factory=list)
    #: quality query texts whose final answers are checked
    check_quality: List[str] = field(default_factory=list)

    def encode(self) -> bytes:
        """Canonical bytes: equal schedules encode identically."""
        document = {
            "workload": self.workload, "seed": self.seed, "size": self.size,
            "relation": self.relation,
            "initial_rows": [list(row) for row in self.initial_rows],
            "count": [op.as_list() for op in self.count],
            "warmup": [op.as_list() for op in self.warmup],
            "open": [[due, op.as_list()] for due, op in self.open],
            "closed": [op.as_list() for op in self.closed],
            "overhead": [op.as_list() for op in self.overhead],
            "tail": [op.as_list() for op in self.tail],
            "check_queries": self.check_queries,
            "check_quality": self.check_quality,
        }
        return json.dumps(document, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")


def final_rows(initial: Sequence[Tuple], acked: Sequence[Op]) -> set:
    """The relation's rows after the acknowledged writes ``acked``.

    Adds are fresh and retracts target pre-existing rows once, so the
    result does not depend on the order the writes were applied in."""
    rows = set(initial)
    for op in acked:
        if op.kind == "add":
            rows.add(op.row)
        elif op.kind == "add-batch":
            rows.update(op.row)
        elif op.kind == "retract":
            rows.discard(op.row)
    return rows


def scenario_for(size: str):
    """The sensor-network scenario at a named size (public API only)."""
    from repro.scenarios import build_scenario
    from repro.sensornet.data import SensorNetSpec
    return build_scenario("sensornet", spec=SensorNetSpec(**SIZES[size]))


def initial_rows(scenario, relation: str) -> List[Tuple]:
    """The relation's rows at bootstrap, in a deterministic order."""
    if relation == READINGS:
        rows = scenario.instance.relation(READINGS).rows()
    else:
        rows = scenario.context.assemble(scenario.instance).database \
            .relation(relation).rows()
    return sorted((tuple(row) for row in rows), key=repr)


class _Names:
    """The member labels of a scenario, for query and row generation."""

    def __init__(self, scenario):
        from repro.sensornet.data import spec_days, spec_sensors
        from repro.sensornet.dimensions import building_names, room_names
        spec = scenario.spec
        self.sensors = spec_sensors(spec)
        self.days = spec_days(spec)
        self.buildings = building_names(spec.buildings)
        self.rooms = room_names(spec.buildings, spec.floors_per_building,
                                spec.rooms_per_floor)


def _zipf_weights(count: int) -> List[float]:
    return [1.0 / (rank + 1) for rank in range(count)]


class _Deck:
    """Deals from a shuffled multiset, reshuffling when it runs out, so
    every ``len(items)`` draws hold each item exactly once: a seed changes
    the order of choices, not their proportions."""

    def __init__(self, rng: random.Random, items: Sequence):
        self.rng = rng
        self.items = list(items)
        self.hand: List = []

    def draw(self):
        if not self.hand:
            self.hand = list(self.items)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def _pool(rng: random.Random, templates, want: int) -> List[str]:
    """``want`` distinct queries; rank ``i`` always uses template
    ``i % len(templates)`` and the seed picks its constants, so the cost
    profile along the Zipf ranks is the same for every seed."""
    seen: Dict[str, None] = {}
    for index in range(want):
        template = templates[index % len(templates)]
        for _ in range(100):
            text = template(rng)
            if text not in seen:
                seen[text] = None
                break
    return list(seen)


def _read_pool(names: _Names, rng: random.Random, want: int) -> List[str]:
    """Distinct seeded point and two-atom join queries (reads)."""
    def join_audit(rng):
        sensor = rng.choice(names.sensors)
        return (f"?(D, V) :- SensorReadings('{sensor}', D, V), "
                f"SensorAudit('{sensor}', D, W).")
    return _pool(rng, [
        lambda rng: f"?(D, V) :- SensorReadings('{rng.choice(names.sensors)}', D, V).",
        lambda rng: f"?(S, V) :- SensorReadings(S, '{rng.choice(names.days)}', V).",
        lambda rng: (f"?(V) :- SensorReadings('{rng.choice(names.sensors)}', "
                     f"'{rng.choice(names.days)}', V)."),
        join_audit,
        lambda rng: (f"?(S, V) :- SensorReadings(S, '{rng.choice(names.days)}', "
                     "V), CalibratedSensor(S)."),
        lambda rng: f"?(D, I) :- BuildingInspection('{rng.choice(names.buildings)}', D, I).",
        lambda rng: f"?(D) :- SensorAudit('{rng.choice(names.sensors)}', D, W).",
    ], want)


def _derived_pool(names: _Names, rng: random.Random, want: int) -> List[str]:
    """Point queries on the derived SensorAudit / RoomCheck (cascade)."""
    return _pool(rng, [
        lambda rng: f"?(D) :- SensorAudit('{rng.choice(names.sensors)}', D, V).",
        lambda rng: f"?(D) :- RoomCheck('{rng.choice(names.rooms)}', D, W).",
    ], want)


def _quality_pool(names: _Names, rng: random.Random, want: int) -> List[str]:
    return _pool(rng, [
        lambda rng: f"?(D, V) :- SensorReadings('{rng.choice(names.sensors)}', D, V).",
    ], want)


class _Compiler:
    """Stateful op generator: fresh rows and a shrinking retract pool."""

    def __init__(self, workload: Workload, scenario, rng: random.Random,
                 rows: Sequence[Tuple], sequential: bool = False):
        self.workload = workload
        self.scenario = scenario
        self.rng = rng
        self.names = _Names(scenario)
        self.taken = set(rows)
        #: rows a retract may target, not yet targeted
        self.pool: List[Tuple] = list(rows)
        #: ops run in schedule order on one connection, so an add can be
        #: retracted later in the same phase
        self.sequential = sequential
        self.fresh_index = 0
        hot = list(scenario.queries())
        quality_hot = list(scenario.quality_queries())
        if workload.name == "reads":
            # one query in ten is a hot one (the five scenario queries,
            # the full SensorReadings scan among them)
            self.queries = _read_pool(self.names, rng, 400)
            self.hot_deck = _Deck(rng, [True] + [False] * 9)
        elif workload.name == "cascade":
            self.queries = _derived_pool(self.names, rng, 200)
            self.hot_deck = _Deck(rng, [False])
        else:
            self.queries = []
            self.hot_deck = _Deck(rng, [True])
        self.hot = _Deck(rng, hot)
        self.query_weights = _zipf_weights(len(self.queries))
        if workload.name == "ingest":
            self.quality = quality_hot
            self.quality_weights = [1.0] * len(quality_hot)
        else:
            self.quality = quality_hot[1:] + \
                _quality_pool(self.names, rng, 100)
            self.quality_weights = _zipf_weights(len(self.quality))
        share = round(ASSESS_SHARE * BLOCK)
        self.assess_deck = _Deck(rng, [True] * share +
                                 [False] * (BLOCK - share))

    def fresh_row(self) -> Tuple:
        rng, names = self.rng, self.names
        while True:
            row = (rng.choice(names.sensors), rng.choice(names.days),
                   round(15.0 + 10.0 * rng.random(), 2))
            if row not in self.taken:
                self.taken.add(row)
                return row

    def query_text(self) -> str:
        if self.hot_deck.draw():
            return self.hot.draw()
        return self.rng.choices(self.queries, self.query_weights)[0]

    def op(self, kind: str) -> Op:
        relation = self.workload.relation
        if kind in ("query", "holds"):
            return Op(kind, self.query_text())
        if kind == "quality":
            if self.assess_deck.draw():
                return Op("assess")
            return Op("quality", self.rng.choices(
                self.quality, self.quality_weights)[0])
        if kind == "retract" and self.pool:
            return Op("retract", relation, self.retract_row())
        if kind == "retract" and not self.sequential:
            raise ValueError(f"{self.workload.name}: retract pool exhausted")
        row = self.add_row()
        if self.sequential:
            self.pool.append(row)
        return Op("add", relation, row)

    def add_row(self) -> Tuple:
        return self.fresh_row()

    def retract_row(self) -> Tuple:
        return self.pool.pop(self.rng.randrange(len(self.pool)))

    def exclude(self, before: Sequence[Op], after: Sequence[Op]) -> None:
        """Leave alone the rows of another compiler's ops that run
        ``before`` and ``after`` this compiler's, except adds that run
        before and that nothing retracts: those join the pool."""
        rows = {op.row for op in list(before) + list(after) if op.row}
        retracted = {op.row for op in list(before) + list(after)
                     if op.kind == "retract"}
        self.taken |= rows
        self.pool = [row for row in self.pool if row not in rows] + \
            [op.row for op in before
             if op.kind == "add" and op.row not in retracted]

    def warmup_writes(self, retracts: int) -> List[Op]:
        """Warm-up adds that grow the pool to cover ``retracts``."""
        return self._pool_adds(max(0, retracts - len(self.pool)),
                               self.add_row)

    def _pool_adds(self, count: int, make) -> List[Op]:
        rows = [make() for _ in range(count)]
        self.pool.extend(rows)
        size = POOL_BATCH
        return [Op("add-batch", self.workload.relation,
                   tuple(rows[start:start + size]))
                for start in range(0, len(rows), size)]

    def kinds(self, count: int, writes_only: bool = False) -> List[str]:
        """``count`` op kinds in the workload's mix, stratified: every
        block of :data:`BLOCK` ops holds the mix exactly, shuffled, so
        seeds change which ops run but not how many of each kind."""
        mix = self.workload.mix
        if writes_only:
            mix = {kind: share for kind, share in mix.items()
                   if kind in ("add", "retract")}
        total = sum(mix.values())
        block = [kind for kind in sorted(mix)
                 for _ in range(round(BLOCK * mix[kind] / total))]
        kinds: List[str] = []
        while len(kinds) < count:
            shuffled = list(block)
            self.rng.shuffle(shuffled)
            kinds.extend(shuffled)
        return kinds[:count]


class _CascadeCompiler(_Compiler):
    """Inspection writes with a fixed share of full cascades.

    An inspection of a building on a day nobody else inspected cascades
    down to every sensor (about 85 facts), and retracting the sole
    inspection of a (building, day) pair undoes that.  An inspection of
    an already inspected pair adds four floor facts, and retracting one
    that was not the first undoes only those.  How many writes cascade
    would otherwise hang on which pairs a seed draws, so the pairs are
    split once, from the bootstrap data:

    * *light* pairs (a quarter, all inspected at bootstrap) take the
      light adds, and light retracts target rows added to them later;
    * every other pair holds exactly one inspection when the measured
      window opens (the warm-up inspects the empty ones).  One retract
      in :data:`HEAVY_EVERY` retracts such a sole inspection, and one add
      in :data:`HEAVY_EVERY` re-inspects a pair a heavy retract emptied.
    """

    def __init__(self, workload: Workload, scenario, rng: random.Random,
                 rows: Sequence[Tuple], sequential: bool = False):
        super().__init__(workload, scenario, rng, rows, sequential)
        by_pair: Dict[Tuple, List[Tuple]] = {}
        for row in rows:
            by_pair.setdefault(row[:2], []).append(row)
        pairs = [(building, day) for building in self.names.buildings
                 for day in self.names.days]
        covered = sorted((pair for pair in pairs if pair in by_pair),
                         key=lambda pair: (-len(by_pair[pair]), pair))
        self.light_pairs = covered[:max(1, len(pairs) // 4)]
        light = set(self.light_pairs)
        #: (pair, its only inspection) for every heavy pair
        self.sole = [(pair, by_pair[pair][0]) for pair in pairs
                     if pair not in light and len(by_pair.get(pair, ())) == 1]
        self.uninspected = [pair for pair in pairs
                            if pair not in light and pair not in by_pair]
        #: heavy pairs whose sole inspection a heavy retract removed
        self.emptied: List[Tuple] = []
        self.pool = []
        heavy = [True] + [False] * (HEAVY_EVERY - 1)
        self.heavy_add = _Deck(rng, heavy if not sequential else [False])
        self.heavy_retract = _Deck(rng, heavy if not sequential else [False])

    def inspection(self, pair: Tuple) -> Tuple:
        row = (pair[0], pair[1], f"auditor{self.fresh_index}")
        self.fresh_index += 1
        self.taken.add(row)
        return row

    def add_row(self) -> Tuple:
        if self.heavy_add.draw() and self.emptied:
            return self.inspection(
                self.emptied.pop(self.rng.randrange(len(self.emptied))))
        return self.inspection(self.rng.choice(self.light_pairs))

    def retract_row(self) -> Tuple:
        if self.heavy_retract.draw():
            if not self.sole:
                raise ValueError("cascade: no sole inspection left for a "
                                 "heavy retract; shorten --seconds")
            pair, row = self.sole.pop(self.rng.randrange(len(self.sole)))
            self.emptied.append(pair)
            return row
        return super().retract_row()

    def warmup_writes(self, retracts: int) -> List[Op]:
        """Inspect every empty heavy pair once, then grow the light pool."""
        soles = [self.inspection(pair) for pair in self.uninspected]
        self.sole.extend(zip(self.uninspected, soles))
        size = POOL_BATCH
        ops = [Op("add-batch", self.workload.relation,
                  tuple(soles[start:start + size]))
               for start in range(0, len(soles), size)]
        return ops + self._pool_adds(
            max(0, retracts - len(self.pool)),
            lambda: self.inspection(self.rng.choice(self.light_pairs)))


def open_window(run_seconds: float) -> float:
    """Seconds of the open-loop phase: two thirds of ``--seconds``.  The
    closed loop runs a fixed op count, however long that takes."""
    return round(run_seconds * 2.0 / 3.0, 3)


def compile_schedule(workload_name: str, seed: int, run_seconds: float,
                     size: str = "") -> Schedule:
    """Compile one run's full schedule (deterministic in its arguments)."""
    workload = WORKLOADS[workload_name]
    size = size or workload.size
    scenario = scenario_for(size)
    rows = initial_rows(scenario, workload.relation)
    scale = 1.0 if size == workload.size else 0.1
    schedule = Schedule(workload=workload.name, seed=seed, size=size,
                        relation=workload.relation, initial_rows=list(rows))

    make = _CascadeCompiler if workload.relation == INSPECTIONS else _Compiler
    # Count pass and WAL tail: their own fixed seed, so the count pass's
    # counters repeat exactly and every restart replays the same records.
    counter = make(workload, scenario, random.Random(COUNT_SEED), rows,
                   sequential=True)
    count_ops = max(BLOCK, int(workload.count_ops * scale))
    schedule.count = [counter.op(kind) for kind in counter.kinds(count_ops)]
    schedule.tail = [counter.op(kind) for kind in
                     counter.kinds(max(4, int(TAIL_WRITES * scale)),
                                   writes_only=True)]

    compiler = make(workload, scenario,
                    random.Random(f"perfbench:{workload.name}:{seed}"), rows)
    compiler.exclude(schedule.count, schedule.tail)
    compiler.fresh_index = counter.fresh_index

    # Evenly spaced arrivals at the fixed rate: a seed changes the ops,
    # not the arrival pattern.
    rate = workload.rate * scale
    arrivals = [round(index / rate, 6)
                for index in range(int(rate * open_window(run_seconds)))]
    open_kinds = compiler.kinds(len(arrivals))
    closed_ops = max(BLOCK, int(workload.closed_ops * scale))
    closed_kinds = compiler.kinds(2 * closed_ops)
    windows = [("open", open_kinds), ("closed", closed_kinds[:closed_ops]),
               ("closed", closed_kinds[closed_ops:])]
    for phase, kinds in windows:
        writes = sum(kind in ("add", "retract") for kind in kinds)
        if writes >= CHECKPOINT_EVERY:
            raise ValueError(
                f"{workload.name}: {writes} writes in one {phase} window "
                f"would fire a checkpoint (every {CHECKPOINT_EVERY} "
                "records); shorten --seconds")
    overhead_kinds = compiler.kinds(int(closed_ops * OVERHEAD_SHARE))
    warm_kinds = compiler.kinds(max(BLOCK, int(workload.warmup_ops * scale)))
    retracts = sum(kinds.count("retract") for kinds in
                   (open_kinds, closed_kinds, overhead_kinds))
    # The warm-up grows the pool until it covers every measured retract.
    warmup = compiler.warmup_writes(retracts)
    warmup.extend(compiler.op(kind) for kind in warm_kinds
                  if kind != "retract")
    compiler.pool.extend(op.row for op in warmup if op.kind == "add")
    schedule.warmup = warmup
    schedule.open = [(due, compiler.op(kind))
                     for due, kind in zip(arrivals, open_kinds)]
    schedule.closed = [compiler.op(kind) for kind in closed_kinds]
    schedule.overhead = [compiler.op(kind) for kind in overhead_kinds]
    schedule.check_queries = sorted(set(compiler.hot.items) |
                                    set(compiler.queries))
    schedule.check_quality = sorted(set(compiler.quality))
    return schedule
