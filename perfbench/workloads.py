"""The benchmark's workloads: ``sweep`` and ``serve``.

Every workload builds the program's default substrate
(``ScalabilityConfig()``), draws its groups, queries and deltas from the
seed, and drives the program with its defaults (``ExecutionPolicy()`` via
``run_records``, ``ServiceConfig()`` for the service) so that a later change
of a default shows up here.  Set-up is repeated :data:`SETUP_REPS` times and
``setup_s`` is the median.  Correctness checks run outside the timed window.

Every workload reports every end-to-end metric, none of them 0.  Each
workload exists to measure a subset (``perfbench/RATIONALE.md``); the
sweep's ``colstore_mb`` comes from a short side phase after its timed phase
and checks, which never feeds its own metrics.

The program must be importable (``src`` on ``sys.path``) before this module
is imported; ``perfbench/run.py`` sees to that.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import random
import statistics
import subprocess
import time
from dataclasses import dataclass, field

import numpy

from perfbench.measure import Gate, best_of, open_loop, schedule, scores_match, timing_summary
from repro.core.baseline import NaiveFullScan
from repro.core.consensus import make_consensus
from repro.experiments.scalability import (
    EnvironmentSubstrate,
    ScalabilityConfig,
    ScalabilityEnvironment,
)
from repro.parallel import SharedArrayRegistry, available_cpus
from repro.service import GrecaService, GroupQuery, ServiceConfig
from repro.service.__main__ import leaked_segments
from repro.updates import random_deltas

SETUP_REPS = 3

# sweep: the Figure 5-8 knobs, one seeded pass of serial runs repeated.
# Every point draws its groups from its own seeded partitions of the
# participants, so a pass averages over 200 different groups rather than a
# few, and 200 runs leave ten beyond the 95th percentile.
SWEEP_K = (5, 15, 30)
SWEEP_ITEM_FRACTIONS = (0.25, 0.75)
# The five earlier query periods; every other point queries the current one.
SWEEP_PERIODS = (0, 1, 2, 3, 4)
SWEEP_GROUP_SIZES = (3, 9, 12)
SWEEP_GROUPS_PER_POINT = 13
# PD V1/V2 cost three to six times the other runs, so the consensus sweep
# runs on a quarter of the catalogue, with fewer groups than the other
# points.  PD V2, the slowest and tightest block, gets 16 of the 200 runs:
# the 95th percentile then sits inside that block, not on the edge between
# two blocks of very different cost.
SWEEP_CONSENSUS_GROUPS = {"MO": 9, "PD V1": 6, "PD V2": 16}
SWEEP_CONSENSUS_ITEM_FRACTION = 0.25
# Each run's time is the least of its timed passes: on a shared host other
# tenants only ever add time, and a run's fastest pass is the one they
# disturbed least.  The pass count is fixed by the measuring time, not by
# how fast the host happens to be, so every run takes its best of the same
# number of tries: one pass per SWEEP_PASS_S seconds (a pass of 200 runs
# took 6-10 s on a 2-vCPU Xeon VM), and at least three.
SWEEP_PASS_S = 8.0
SWEEP_MIN_PASSES = 3

# serve: open loop on a two-rung ladder of single arrivals.  The base
# rung gives the latency metrics: at least 200 queries, so the 95th
# percentile has ten beyond it, at a rate that keeps the dispatch thread
# under half busy, so queries seldom queue and each one's latency is its own
# cold or warm path.  The top rung offers about four times what the service
# answers on two CPUs; the backlog it builds is drained in full batches, and
# the rate the service answers it at is ``max_qps``.
SERVE_RATES = (10.0, 128.0)
SERVE_SHARES = (0.85, 0.1)
SERVE_LIMIT_MS = 500.0
SERVE_POPULAR = 8
SERVE_K = (5, 10, 15)
SERVE_CONSENSUS = ("AP", "MO")

# A traced serve run ends its traced phase with one delta through
# GrecaService.submit_delta, so that the updates layer gets its per-layer
# split: 24 ratings touch enough users that every cached participant is
# refreshed on nearly every item, plus 8 page likes and an appended period.
DELTA_RATINGS = 24
DELTA_LIKES = 8


@dataclass
class Result:
    """What a workload hands back to the runner."""

    metrics: dict[str, float]
    gate: Gate
    record: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


# -- shared pieces --------------------------------------------------------------------------------


def generate_substrate():
    """The program's default synthetic substrate (input generation, untimed)."""
    config = ScalabilityConfig()
    return config, EnvironmentSubstrate.generate(config)


def build_environment(config, substrate) -> ScalabilityEnvironment:
    """Environment construction (CF fit, affinities) plus participant apref warm-up."""
    environment = ScalabilityEnvironment(config, substrate=substrate)
    for user in environment.participants:
        environment.recommender.aprefs_of(user)
    return environment


def partition(pool, size: int, rng: random.Random) -> list[tuple[int, ...]]:
    """A seeded partition of ``pool`` into disjoint groups of ``size``."""
    members = list(pool)
    rng.shuffle(members)
    return [tuple(members[i : i + size]) for i in range(0, len(members) - size + 1, size)]


def segment_bytes(names) -> int:
    """Bytes held by column-store segments: shm names or spool-file paths."""
    total = 0
    for name in names:
        path = name if os.path.isabs(name) else os.path.join("/dev/shm", name.lstrip("/"))
        try:
            total += os.stat(path).st_size
        except FileNotFoundError:
            pass
    return total


def _descendants(root: int) -> list[int]:
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live descendant."""
    pids = [os.getpid()] + _descendants(os.getpid())
    return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0


def source_revision(root: str) -> str:
    """The git revision, or a digest of ``src/`` where there is no repository."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha1()
        for folder, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
        return "src-sha1:" + digest.hexdigest()[:16]


def run_metadata(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    service = ServiceConfig()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "revision": source_revision(root),
        "n_cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workers": 1 if workload == "sweep" else service.n_workers,
        "executor": "serial" if workload == "sweep" else service.executor,
        "setup_reps": SETUP_REPS,
    }


def ms(values) -> list[float]:
    return [value * 1000.0 for value in values]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- sweep ----------------------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """One sweep point: groups plus the knobs a figure varies."""

    label: str
    groups: tuple[tuple[int, ...], ...]
    k: int | None = None
    consensus: str | None = None
    period_index: int | None = None
    n_items: int | None = None


def sweep_points(environment, seed: int) -> list[Point]:
    """The seeded figure grid: k, item count, period, group size and consensus."""
    rng = random.Random(seed)
    n_items = len(environment.ratings.items)

    def groups(size: int = environment.config.group_size, count: int = SWEEP_GROUPS_PER_POINT):
        if size > len(environment.participants):
            raise ValueError(f"too few participants for groups of {size}")
        drawn: list[tuple[int, ...]] = []
        while len(drawn) < count:
            drawn += partition(environment.participants, size, rng)
        return tuple(drawn[:count])

    points = [Point(f"k={k}", groups(), k=k) for k in SWEEP_K]
    points += [
        Point(f"items={fraction}", groups(), n_items=int(n_items * fraction))
        for fraction in SWEEP_ITEM_FRACTIONS
    ]
    points += [Point(f"period={index}", groups(), period_index=index) for index in SWEEP_PERIODS]
    points += [Point(f"size={size}", groups(size)) for size in SWEEP_GROUP_SIZES]
    points += [
        Point(
            f"consensus={name}",
            groups(count=count),
            consensus=name,
            n_items=int(n_items * SWEEP_CONSENSUS_ITEM_FRACTION),
        )
        for name, count in SWEEP_CONSENSUS_GROUPS.items()
    ]
    return points


def _period(environment, point: Point):
    return None if point.period_index is None else list(environment.timeline)[point.period_index]


def _sweep_pass(environment, runs) -> tuple[list, list[float]]:
    records, latencies = [], []
    for point, period, group in runs:
        start = time.perf_counter()
        record = environment.run_records(
            [group], k=point.k, consensus=point.consensus, period=period, n_items=point.n_items
        )[0]
        latencies.append(time.perf_counter() - start)
        records.append(record)
    return records, latencies


def sweep_passes(seconds: float) -> int:
    """The number of timed passes for a measuring time of ``seconds``."""
    return max(SWEEP_MIN_PASSES, round(seconds / SWEEP_PASS_S))


def _sweep_phase(environment, runs, seconds: float, seed: int) -> dict:
    """Timed passes, each over the runs in its own seeded order.

    Shuffling spreads every point's runs over the whole pass, so a slow
    spell of the host slows a few runs of many points rather than every run
    of one point.  Records and times come back in run order.
    """
    rng = random.Random(seed)
    order = list(range(len(runs)))
    passes, latencies, walls = [], [], []
    for _pass in range(sweep_passes(seconds)):
        rng.shuffle(order)
        pass_start = time.perf_counter()
        shuffled_records, shuffled_times = _sweep_pass(environment, [runs[i] for i in order])
        walls.append(time.perf_counter() - pass_start)
        records, times = [None] * len(runs), [0.0] * len(runs)
        for position, index in enumerate(order):
            records[index] = shuffled_records[position]
            times[index] = shuffled_times[position]
        passes.append(records)
        latencies.append(times)
    best = best_of(latencies)
    return {"passes": passes, "latencies": latencies, "best": best, "pass_walls": walls}


def run_sweep(seed: int, seconds: int, tracer) -> Result:
    config, substrate = generate_substrate()
    gate = Gate()
    setups, environment = [], None
    for _rep in range(SETUP_REPS):
        if environment is not None:
            environment.close()
            environment = None
            gc.collect()
        start = time.perf_counter()
        environment = build_environment(config, substrate)
        points = sweep_points(environment, seed)
        runs = [(p, _period(environment, p), group) for p in points for group in p.groups]
        for point, period, group in runs:  # fill the factory and index memos
            environment.cached_index(group, period=period, n_items=point.n_items)
        setups.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.end_setup()
    # One untimed pass builds the per-index state the engine caches lazily
    # and gives the records every timed pass must reproduce exactly.
    reference, _ = _sweep_pass(environment, runs)

    phases = _timed_phases(tracer, lambda: _sweep_phase(environment, runs, seconds, seed))
    checks_start = time.perf_counter()
    for phase in phases.values():
        for number, records in enumerate(phase["passes"]):
            for position, (expected, actual) in enumerate(zip(reference, records)):
                gate.check(expected == actual, f"pass {number} run {position} differs")
    _check_against_naive(environment, runs, reference, gate)
    checks_s = time.perf_counter() - checks_start

    phase = phases["untraced"]
    latency = timing_summary(ms(phase["best"]))
    per_point: dict[str, list[float]] = {}
    for (point, _when, _group), seconds_taken in zip(runs, phase["best"]):
        per_point.setdefault(point.label, []).append(seconds_taken * 1000.0)
    every = [value for pass_latencies in phase["latencies"] for value in pass_latencies]
    record = {
        "runs_per_pass": len(runs),
        "passes": len(phase["passes"]),
        "distinct_groups": len({group for _p, _when, group in runs}),
        "point_mean_ms": {label: statistics.mean(v) for label, v in per_point.items()},
        "latency_ms": latency,
        "latency_ms_every_pass": timing_summary(ms(every)),
        "pass_runs_per_s": [len(runs) / wall for wall in phase["pass_walls"]],
        "setup_s_each": setups,
        "phase_s": {name: sum(p["pass_walls"]) for name, p in phases.items()},
        "checks_s": checks_s,
    }
    metrics: dict[str, float] = {}
    layers: dict[str, float] = {}
    if tracer is None:
        # Runs per second at each run's best time over the passes.
        runs_per_s = len(runs) / sum(phase["best"])
        metrics = {
            "setup_s": median(setups),
            "runs_per_s": runs_per_s,
            "query_p50_ms": latency["p50"],
            "query_p95_ms": latency["p95"],
            # A serial closed loop's highest sustained rate is its run rate.
            "max_qps": runs_per_s,
            "peak_rss_mb": tree_peak_rss_mb(),
        }
        metrics["colstore_mb"], record["side_colstore"] = _side_colstore(environment, runs)
    else:
        traced = phases["traced"]
        layers["trace.overhead_pct"] = 100.0 * (sum(traced["best"]) / sum(phase["best"]) - 1.0)
        layers["trace.window"] = traced["window"]
    environment.close()
    return Result(metrics=metrics, gate=gate, record=record, layers=layers)


def _check_against_naive(environment, runs, reference, gate: Gate) -> None:
    """Each run's top-k exact scores equal the exhaustive scan's within 1e-9."""
    for (point, period, group), record in zip(runs, reference):
        consensus = make_consensus(point.consensus or environment.config.consensus)
        index = environment.cached_index(group, period=period, n_items=point.n_items)
        naive = NaiveFullScan(consensus, k=point.k or environment.config.k).run(index)
        exact = index.exact_scores_for(record.items, consensus)
        gate.check(
            len(record.items) == len(naive.items)
            and scores_match(list(naive.scores.values()), list(exact.values())),
            f"{point.label} group {group}: top-k scores differ from the naive scan",
        )


def _side_colstore(environment, runs) -> tuple[float, dict]:
    """MB the sweep's memoised factories occupy once exported to the column store."""
    registry = SharedArrayRegistry()
    try:
        for group in sorted({group for _point, _period, group in runs}):
            registry.export(environment.index_factory(group))
        names = list(registry.segment_names)
        size = segment_bytes(names)
    finally:
        registry.close()
    return size / 2**20, {"segments": len(names), "bytes": size}


def _timed_phases(tracer, phase) -> dict:
    """One untraced timed phase, plus a traced one when tracing."""
    gc.collect()
    phases = {"untraced": phase()}
    if tracer is not None:
        gc.collect()
        tracer.begin_phase()
        start = time.perf_counter()
        try:
            traced = phase()
        finally:
            tracer.end_phase()
        traced["window"] = (start, time.perf_counter())
        phases["traced"] = traced
    return phases


# -- service workloads ----------------------------------------------------------------------------


async def _start_service(config, substrate, warm_queries):
    """One set-up: environment, service start, pool start and warm-up dispatch."""
    start = time.perf_counter()
    environment = build_environment(config, substrate)
    service = GrecaService(environment=environment, config=ServiceConfig())
    await service.start()
    for query in warm_queries(environment):
        await service.submit(query)
    return environment, service, time.perf_counter() - start


async def _stop_service(environment, service, gate: Gate) -> None:
    """Drain, release, and check no column-store segment outlived the run."""
    names = list(environment.shm_segment_names())
    await service.stop()
    environment.close()
    gate.check(not environment.shm_segment_names(), "segments still owned after close")
    leaked = set(leaked_segments(names))
    for name in names:
        gate.check(name not in leaked, f"segment {name} leaked")


async def _set_up(config, substrate, warm_queries, gate: Gate, tracer):
    """Set up :data:`SETUP_REPS` times; keep the last service running."""
    seconds = []
    environment = service = None
    for _rep in range(SETUP_REPS):
        if service is not None:
            await _stop_service(environment, service, gate)
            environment = service = None
            gc.collect()
        environment, service, elapsed = await _start_service(config, substrate, warm_queries)
        seconds.append(elapsed)
    if tracer is not None:
        tracer.end_setup()
    gc.collect()
    return environment, service, seconds


async def _traced(tracer, phase):
    gc.collect()
    tracer.begin_phase()
    try:
        return await phase()
    finally:
        tracer.end_phase()


def _rung(samples, rate: float, outstanding: int, limit_ms: float) -> dict:
    """One ladder rung: latency from due time, and whether it met the limit.

    The backlog counts as growing when more requests were still in flight
    at the last send than the rate lets through within the limit (Little's
    law: in flight = rate x time in system).
    """
    ok = [sample for sample in samples if sample.error is None]
    latencies = ms(sample.latency for sample in ok)
    summary = timing_summary(latencies) if latencies else {"n": 0}
    span = max(sample.done for sample in samples) - samples[0].due
    backlog = outstanding > rate * limit_ms / 1000.0
    meets = bool(latencies) and len(ok) == len(samples) and summary["p95"] <= limit_ms
    return {
        "rate": rate,
        "sent": len(samples),
        "failed": len(samples) - len(ok),
        "latency_ms": summary,
        "late_ms": timing_summary(ms(sample.late for sample in samples)),
        "in_flight_at_last_send": outstanding,
        "growing_backlog": backlog,
        "meets_limit": meets and not backlog,
        "goodput_qps": len(ok) / span if span > 0 else 0.0,
    }


def _service_layers(samples, service, first_batch: int) -> dict[str, float]:
    latencies = [sample.result.latency for sample in samples if sample.error is None]
    sizes = service.batch_sizes[first_batch:]
    late = ms(sample.late for sample in samples)
    queue = ms(latency.queue_seconds for latency in latencies)
    dispatch = ms(latency.dispatch_seconds for latency in latencies)
    return {
        "service.queue_p50_ms": median(queue),
        "service.queue_p95_ms": timing_summary(queue).get("p95", 0.0),
        "service.dispatch_ms": statistics.mean(dispatch) if dispatch else 0.0,
        "service.batch_size_mean": statistics.mean(sizes) if sizes else 0.0,
        "service.batch_size_max": float(max(sizes)) if sizes else 0.0,
        "service.gen_late_p95_ms": timing_summary(late).get("p95", 0.0),
        "service.gen_late_max_ms": max(late) if late else 0.0,
    }


def _busy_per_query(samples) -> float:
    """Dispatch seconds per answered query (each batch's time shared by its queries)."""
    latencies = [sample.result.latency for sample in samples if sample.error is None]
    return sum(l.dispatch_seconds / l.batch_size for l in latencies) / max(1, len(latencies))


def _report_layers(environment, first_report: int) -> dict[str, float]:
    reports = environment.dispatch_reports[first_report:]
    skews = []
    for report in reports:
        seconds = list(report.shard_seconds().values())
        if seconds and sum(seconds) > 0:
            skews.append(max(seconds) / (sum(seconds) / len(seconds)))
    return {
        "parallel.shard_skew": statistics.mean(skews) if skews else 0.0,
        "parallel.retries": float(sum(report.retries for report in reports)),
        "parallel.rebuilds": float(sum(report.rebuilds for report in reports)),
        "parallel.degraded": float(sum(len(report.degraded) for report in reports)),
    }


def _delta_layers(report, environment) -> dict[str, float]:
    return {
        "updates.changed_share": len(report.changed_users) / len(environment.participants),
        "updates.invalidated_groups": float(len(report.invalidated_groups)),
        "updates.full_rebuilds": float(report.full_rebuild),
    }


# -- serve ----------------------------------------------------------------------------------------


class ServeLoad:
    """The seeded query stream.

    Every other query repeats one of a few popular groups and the rest ask
    for unseen groups, so the repeat share is exact.  Repeats and unseen
    queries each get (k, consensus, period) dealt in seeded order from the
    full grid, so every seed asks both kinds for the same mix; the seed
    picks the groups and the order.
    """

    def __init__(self, environment, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pool = tuple(environment.participants)
        self.size = environment.config.group_size
        periods = range(len(list(environment.timeline)))
        self.grid = [(k, c, p) for k in SERVE_K for c in SERVE_CONSENSUS for p in periods]
        self.dealt: dict[bool, list[tuple]] = {True: [], False: []}
        self.popular = [self._draw() for _ in range(SERVE_POPULAR)]
        self.seen = set(self.popular)

    def _draw(self) -> tuple[int, ...]:
        return tuple(sorted(self.rng.sample(self.pool, self.size)))

    def _unseen(self) -> tuple[int, ...]:
        while True:
            group = self._draw()
            if group not in self.seen:
                self.seen.add(group)
                return group

    def _knobs(self, repeat: bool) -> tuple:
        if not self.dealt[repeat]:
            self.dealt[repeat] = list(self.grid)
            self.rng.shuffle(self.dealt[repeat])
        return self.dealt[repeat].pop()

    def queries(self, count: int) -> list[GroupQuery]:
        queries = []
        for index in range(count):
            repeat = index % 2 == 0
            group = self.rng.choice(self.popular) if repeat else self._unseen()
            k, consensus, period_index = self._knobs(repeat)
            queries.append(
                GroupQuery(group=group, k=k, consensus=consensus, period_index=period_index)
            )
        return queries


async def _serve_ladder(service, load: ServeLoad, seconds: int) -> dict:
    rungs, samples_all = [], []
    first_batch = len(service.batch_sizes)
    first_report = len(service.environment.dispatch_reports)
    start = time.perf_counter()
    for rate, share in zip(SERVE_RATES, SERVE_SHARES):
        dues = schedule(time.perf_counter() + 0.05, rate, seconds * share)
        queries = load.queries(len(dues))
        samples, outstanding = await open_loop(dues, lambda i: service.submit(queries[i]))
        for sample in samples:
            sample.query = queries[sample.index]
        rungs.append((_rung(samples, rate, outstanding, SERVE_LIMIT_MS), samples))
        samples_all.extend(samples)
    return {
        "rungs": rungs,
        "samples": samples_all,
        "window": (start, time.perf_counter()),
        "first_batch": first_batch,
        "first_report": first_report,
        "colstore_bytes": segment_bytes(service.environment.shm_segment_names()),
    }


async def _ladder_then_delta(service, load: ServeLoad, seconds: int, substrate, seed: int) -> dict:
    """The traced phase: the ladder, then one delta for the updates layer's split."""
    phase = await _serve_ladder(service, load, seconds)
    (delta,) = random_deltas(
        substrate.ratings,
        substrate.social,
        substrate.timeline,
        n_deltas=1,
        seed=seed,
        ratings_per_delta=DELTA_RATINGS,
        likes_per_delta=DELTA_LIKES,
        new_period_every=1,
    )
    phase["delta_report"] = await service.submit_delta(delta)
    return phase


async def run_serve(seed: int, seconds: int, tracer) -> Result:
    config, substrate = generate_substrate()
    gate = Gate()
    loads = {}

    def warm(environment):
        load = loads[id(environment)] = ServeLoad(environment, seed)
        return [GroupQuery(group=group) for group in load.popular]

    environment, service, setups = await _set_up(config, substrate, warm, gate, tracer)
    load = loads[id(environment)]
    phases = {"untraced": await _serve_ladder(service, load, seconds)}
    if tracer is not None:
        phases["traced"] = await _traced(
            tracer, lambda: _ladder_then_delta(service, load, seconds, substrate, seed)
        )

    # The traced phase's delta lands after every query of both phases, so
    # the references are taken at the epoch the ladders ran on, before it.
    checks_start = time.perf_counter()
    references: dict = {}
    if tracer is not None:
        reference_env = ScalabilityEnvironment(config, substrate=substrate)
        reference = GrecaService(environment=reference_env)
    else:
        reference = service
    for phase in phases.values():
        for sample in phase["samples"]:
            if sample.query not in references:
                references[sample.query] = reference.reference_record(sample.query)
            ok = sample.error is None and sample.result.record == references[sample.query]
            gate.check(ok, f"query {sample.query} differs from the serial reference")
    checks_s = time.perf_counter() - checks_start

    phase = phases["untraced"]
    base = phase["rungs"][0][0]
    answered = sum(1 for sample in phase["samples"] if sample.error is None)
    record = {
        "rates_qps": list(SERVE_RATES),
        "rung_seconds": [seconds * share for share in SERVE_SHARES],
        "limit_ms": SERVE_LIMIT_MS,
        "repeat_share": statistics.mean(
            sample.query.group in load.popular for sample in phase["samples"]
        ),
        "popular_groups": SERVE_POPULAR,
        "distinct_groups": len(load.seen),
        "rungs": [rung for rung, _samples in phase["rungs"]],
        "setup_s_each": setups,
        "phase_s": {name: p["window"][1] - p["window"][0] for name, p in phases.items()},
        "checks_s": checks_s,
    }
    metrics: dict[str, float] = {}
    layers: dict[str, float] = {}
    if tracer is None:
        metrics = {
            "setup_s": median(setups),
            "runs_per_s": answered / (phase["window"][1] - phase["window"][0]),
            "query_p50_ms": base["latency_ms"]["p50"],
            "query_p95_ms": base["latency_ms"]["p95"],
            # What the service answers while saturated: capacity, not the offered rate.
            "max_qps": phase["rungs"][-1][0]["goodput_qps"],
            "colstore_mb": phase["colstore_bytes"] / 2**20,
            "peak_rss_mb": tree_peak_rss_mb(),
        }
    else:
        traced = phases["traced"]
        layers.update(_service_layers(traced["samples"], service, traced["first_batch"]))
        layers.update(_report_layers(environment, traced["first_report"]))
        layers["trace.overhead_pct"] = 100.0 * (
            _busy_per_query(traced["samples"]) / _busy_per_query(phase["samples"]) - 1.0
        )
        layers["trace.window"] = traced["window"]
        report = traced["delta_report"]
        layers.update(_delta_layers(report, environment))
        # After the delta the service must answer at the new epoch.
        query = load.queries(1)[0]
        response = await service.submit(query)
        gate.check(
            report.epoch == environment.epoch
            and response.record == service.reference_record(query),
            "the service's answer after the delta differs from the serial reference",
        )
        reference_env.close()
    await _stop_service(environment, service, gate)
    return Result(metrics=metrics, gate=gate, record=record, layers=layers)


WORKLOADS = {"sweep": run_sweep, "serve": run_serve}
