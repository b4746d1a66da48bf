"""The repo benchmark: oracle-checked closed-loop runs of three workloads.

Each workload is a closed loop (paper Section 4.6): ``clients`` clients with
no think time, each drawing its next request as soon as the previous one
commits; an aborted attempt backs off and retries through
``BenchmarkRunner``.  Every timed run has the isolation oracle on and fails
when its verdict is not ``ok``; ``ycsb-hot`` also replays its write-ahead
log after the window and fails unless recovery returns every committed
transaction and the store's latest state.

The amount of simulated work is fixed by ``--seconds`` (each workload
simulates ``virtual_per_second * seconds`` virtual seconds after a fixed
warm-up), so the simulated metrics are a pure function of the seed and the
run length, and only the wall-clock metrics vary between runs of one seed.
See README.md for the workloads, the metrics and the layer mapping.
"""

import gc
import json
import random
import resource
import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.core.engine import EngineOptions
from repro.harness.configs import tpcc_tebaldi_3layer, ycsb_2layer, ycsb_monolithic_ssi
from repro.harness.runner import BenchmarkRunner
from repro.storage.durability import DurabilityConfig
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.ycsb import YCSBWorkload
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 7
DEFAULT_SECONDS = 30
#: Virtual warm-up before the measurement window (not in the metrics).
WARMUP_S = 0.2
#: Before the i-th simulation of a timed run (from 0), unused runner builds
#: are timed until the run's builds add up to (i + 1) / simulations of
#: SETUP_MIN_S of wall time (a ``ycsb-hot`` build takes ~20 ms).
#: ``setup_s`` is the median of those builds and the simulations' own, so
#: its samples come from the whole run, not from one moment of it.
SETUP_MIN_S = 3.0
#: Size of the ``HostProbe`` table and lookups per probe.
PROBE_ENTRIES = 300_000
PROBE_LOOKUPS = 4000
#: Duration of a probe on the 2-vCPU x86-64 VM the benchmark was calibrated
#: on, when nothing else slowed it.  The wall-clock metrics count time in
#: probe durations measured next to it and convert it to seconds at this
#: rate (see "Wall-clock metrics" in README.md).
PROBE_NOMINAL_S = 0.0024
#: A slice's host speed is the median duration of this many probes on
#: each side of it.
PROBE_NEIGHBOURS = 3
#: Wall-clock cap of a run of DEFAULT_SECONDS.  A run past its cap is
#: stopped and fails.  The cap grows with the square of the run length,
#: as ycsb-scan's wall time does (see "Known defects" in README.md).
CAP_S = 150.0
#: The traced run (and its untraced reference) simulate this share of the
#: untraced run's measurement window, so both fit the same time budget.
TRACE_SHARE = 0.25
TRACE_DIR = BENCH_DIR / "traces"


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: inputs, CC tree, load and run length."""

    name: str
    make_workload: object
    tree: object
    clients: int
    durable: bool
    #: Virtual seconds measured per requested wall second.  Calibrated so a
    #: run takes about ``--seconds`` on a 2-vCPU x86-64 VM.
    virtual_per_second: float
    #: Requests committed per timed slice of the measurement window (a
    #: slice takes ~0.1 s of wall time; see ``commit_rate``).
    slice_commits: int
    #: Simulations per timed run, each with its own seed derived from the
    #: run's and an equal share of the window.  Their metrics are pooled,
    #: which evens out what one seed or one build does to them.
    simulations: int


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="tpcc-3layer",
            make_workload=lambda seed: TPCCWorkload(warehouses=2, seed=seed),
            tree=tpcc_tebaldi_3layer,
            clients=40,
            durable=False,
            virtual_per_second=0.4,
            slice_commits=80,
            simulations=3,
        ),
        WorkloadSpec(
            name="ycsb-scan",
            make_workload=lambda seed: YCSBWorkload(records=100_000, profile="e"),
            tree=ycsb_2layer,
            clients=40,
            durable=False,
            virtual_per_second=0.04,
            slice_commits=400,
            # The simulator's scaled speed varies more between simulations
            # of one seed here (cv ~0.1), so more and shorter ones.
            simulations=6,
        ),
        WorkloadSpec(
            name="ycsb-hot",
            make_workload=lambda seed: YCSBWorkload(
                records=2000, profile="a", distribution="zipfian", zipf_theta=0.99
            ),
            tree=ycsb_monolithic_ssi,
            clients=64,
            durable=True,
            virtual_per_second=0.16,
            slice_commits=500,
            simulations=3,
        ),
    )
}


class RunCapExceeded(Exception):
    """Raised (from a timer signal) when a run passes its wall-clock cap."""


def _resident_mb():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 2**20


class HostProbe:
    """Fixed memory-bound interpreter work that does not touch the program.

    A probe looks up PROBE_LOOKUPS random keys in a table of PROBE_ENTRIES
    tuples (~55 MB) and adds up their first items.  Between probes the
    simulator evicts the table from the caches, so a probe, like the
    simulator, mostly waits on memory, and slows down with it when the
    host's neighbours load the shared caches and memory.  Its duration,
    timed next to the program, tells how fast the host was.  The table
    holds only atomic values, so the garbage collector stops tracking it
    after one pass.
    """

    def __init__(self):
        before = _resident_mb()
        self.table = {key: (key, str(key)) for key in range(PROBE_ENTRIES)}
        gc.collect()  # untracks the tuples, and with them the table
        rng = random.Random(1)
        self.keys = [rng.randrange(PROBE_ENTRIES) for _ in range(PROBE_LOOKUPS)]
        #: Resident memory of the table, left out of ``peak_rss_mb``.
        self.resident_mb = _resident_mb() - before

    def __call__(self):
        """``(start, end)`` of one probe, with no garbage collection in it."""
        table = self.table
        gc.disable()
        try:
            start = time.perf_counter()
            total = 0
            for key in self.keys:
                total += table[key][0]
            return start, time.perf_counter()
        finally:
            gc.enable()


class FullCollectionClock:
    """``gc`` callback adding up the wall time of full (generation 2) collections."""

    def __init__(self):
        self.paused_s = 0.0
        self._started = 0.0

    def __call__(self, phase, info):
        if info["generation"] == 2:
            if phase == "start":
                self._started = time.perf_counter()
            else:
                self.paused_s += time.perf_counter() - self._started

    @contextmanager
    def installed(self):
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)


class LatencyRunner(BenchmarkRunner):
    """``BenchmarkRunner`` whose clients also time each request end to end.

    A request's latency runs from the client drawing it to the commit of
    its successful attempt, so it includes every aborted attempt, backoff
    and wait before it.  Requests committing before ``window_start`` (the
    warm-up) are not recorded.
    """

    def __init__(self, *args, window_start, slice_commits, probe, **kwargs):
        self.window_start = window_start
        self.slice_commits = slice_commits
        self.probe = probe
        self.latencies = []
        #: ``(probe start, probe end, full-collection seconds so far)`` at
        #: the window's first commit and after every ``slice_commits`` more
        #: (none without a ``probe``).
        self.marks = []
        self.gc_clock = FullCollectionClock()
        super().__init__(*args, **kwargs)

    def _client(self, client_id, rng, mix):
        env = self.env
        latencies = self.latencies
        marks = self.marks
        slice_commits = self.slice_commits
        probe = self.probe
        gc_clock = self.gc_clock
        while not self._stop_event.triggered:
            txn_type, args = self.workload.next_transaction(rng, mix)
            drawn = env.now
            txn = yield from self._run_with_retries(txn_type, args, client_id)
            if txn is not None and txn.end_time >= self.window_start:
                latencies.append(round(txn.end_time - drawn, 9))
                if probe is not None and len(latencies) % slice_commits == 1:
                    marks.append((*probe(), gc_clock.paused_s))


def build_runner(spec, seed, probe=None):
    """Build the checked runner of one workload (everything ``setup_s`` times).

    With a ``HostProbe``, the runner marks slices of its measurement window.
    """
    return LatencyRunner(
        spec.make_workload(seed),
        spec.tree(),
        options=EngineOptions(durability=DurabilityConfig(enabled=spec.durable)),
        seed=seed,
        check_isolation=True,
        window_start=WARMUP_S,
        slice_commits=spec.slice_commits,
        probe=probe,
    )



def check_recovery(runner):
    """Replay the WAL and compare it with the run: ``(ok, description)``.

    Every committed transaction must be recovered, no transaction that did
    not commit may be, every key a transaction wrote must be recovered with
    the store's latest writer, and every recovered key must hold the
    store's latest committed value.
    """
    engine = runner.engine
    store = runner.store
    durability = engine.durability
    durability.advance_gcp_epoch()
    recovered = durability.recover()
    committed = engine.committed_ids
    missing = len(committed - recovered.recovered_transactions)
    ghosts = len(recovered.recovered_transactions - committed)
    absent = object()
    written = dropped = 0
    for key in store.keys():
        writer = store.latest_committed(key).writer
        if writer > 0:
            written += 1
            if key not in recovered.state or recovered.state_writers.get(key) != writer:
                dropped += 1
    latest = store.latest_state()
    mismatched = sum(
        1 for key, value in recovered.state.items() if latest.get(key, absent) != value
    )
    ok = bool(committed) and missing == ghosts == dropped == mismatched == 0
    text = (
        f"recovery: {len(committed) - missing}/{len(committed)} committed transactions "
        f"recovered, {ghosts} uncommitted recovered, {dropped}/{written} written keys "
        f"lost or with another writer, {mismatched}/{len(recovered.state)} keys mismatched"
    )
    return ok, text


def wal_bytes_per_user_byte(durability):
    """Persisted WAL bytes (JSON-encoded records) per byte of committed values."""
    wal_bytes = 0
    user_bytes = 0
    for backend in durability.backends:
        for _key, record in backend.scan("wal/"):
            wal_bytes += len(json.dumps(record, default=str))
            if record["kind"] == "precommit":
                for _encoded_key, value in record["payload"]["writes"]:
                    user_bytes += len(json.dumps(value, default=str))
    return wal_bytes / user_bytes if user_bytes else 0.0


class Simulation:
    """One checked simulation: build, warm up, measure, verdict, recovery."""

    def __init__(self, spec, seed, measure_s, probe=None):
        self.spec = spec
        self.seed = seed
        self.measure_s = measure_s
        self.probe = probe
        self.runner = None
        self.result = None
        self.report = None
        self.recovery = None
        self.latencies = None
        self.marks = None
        self.setup_s = None
        self.run_wall_s = None
        self.section_wall_s = None
        #: Finished attempts and commits over the whole run (warm-up included).
        self.attempts = 0
        self.commits = 0

    def execute(self):
        started = time.perf_counter()
        self.runner = runner = build_runner(self.spec, self.seed, self.probe)
        built = time.perf_counter()
        try:
            with runner.gc_clock.installed():
                self.result = runner.run(
                    self.spec.clients,
                    duration=self.measure_s,
                    warmup=WARMUP_S,
                    raise_on_violation=False,
                )
            ran = time.perf_counter()
            self.report = self.result.extra["isolation"]
            if self.spec.durable:
                self.recovery = check_recovery(runner)
        finally:
            runner.stop()
            self.commits = len(runner.engine.committed_ids)
            self.attempts = self.commits + len(runner.engine.aborted_ids)
        finished = time.perf_counter()
        self.latencies = runner.latencies
        self.marks = runner.marks
        self.setup_s = built - started
        self.run_wall_s = ran - built
        self.section_wall_s = finished - started
        return self

    def release(self):
        """Drop the runner (keeping the results), so its memory can be reused."""
        self.runner = None
        gc.collect()

    def problems(self):
        """Why this simulation's outputs are wrong (empty when they are right)."""
        problems = []
        if not self.report.ok:
            problems.append(self.report.describe())
        if self.recovery is not None and not self.recovery[0]:
            problems.append(self.recovery[1])
        if self.result.commits == 0:
            problems.append("no transaction committed in the measurement window")
        if not self.latencies:
            problems.append("no request latency recorded in the measurement window")
        if self.probe is not None and len(self.marks) < 2:
            problems.append("the measurement window is shorter than one timed slice")
        return problems

    def describe(self, out):
        result = self.result
        attempts = result.commits + result.aborts
        out(
            f"seed={self.seed}: commits={result.commits} aborts={result.aborts} "
            f"abort_rate={result.aborts / attempts if attempts else 0.0:.4f} "
            f"(measurement window); total commits={self.commits} attempts={self.attempts}; "
            f"wall: build {self.setup_s:.3f}s, run {self.run_wall_s:.3f}s"
        )
        if result.abort_reasons:
            out(f"  abort reasons: {dict(sorted(result.abort_reasons.items()))}")
        out(f"  oracle: {self.report.describe()}")
        if self.recovery is not None:
            out(f"  {self.recovery[1]}")


def _arm_cap(cap_s):
    def expire(_signum, _frame):
        raise RunCapExceeded(f"run exceeded its {cap_s:.0f} s wall-clock cap")

    previous = signal.signal(signal.SIGALRM, expire)
    # Re-fire every second: the simulator turns an exception raised inside
    # a process that someone waits on into a failed event, so one alarm
    # can be absorbed; a repeating one eventually escapes the event loop.
    signal.setitimer(signal.ITIMER_REAL, cap_s, 1.0)
    return previous


def _disarm_cap(previous):
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def mid_quantile(values, p):
    """The ``p`` quantile of ``values``, interpolated on their mid-CDF.

    Simulated latencies take few distinct values (sums of constant delays),
    so an order-statistic quantile jumps from one of them to the next as a
    seed moves a few requests across it, and reads the same value on every
    seed where it does not.  The mid-CDF of a value is the share of samples
    below it plus half the share equal to it (Parzen's mid-distribution);
    interpolating it gives a quantile that moves with those shares.  On
    distinct values it is the Hazen quantile.
    """
    points = []
    below = 0
    for value, count in sorted(Counter(values).items()):
        points.append((value, (below + count / 2) / len(values)))
        below += count
    if p <= points[0][1]:
        return points[0][0]
    for (low, low_p), (high, high_p) in zip(points, points[1:]):
        if p < high_p:
            return low + (p - low_p) / (high_p - low_p) * (high - low)
    return points[-1][0]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_slices(marks):
    """Each slice's seconds at nominal host speed: ``(outside full collections, in them)``.

    A slice runs from the end of one mark's probe to the start of the
    next.  Its wall time is scaled by PROBE_NOMINAL_S over the median
    probe of the PROBE_NEIGHBOURS marks on each side of it.
    """
    probes = [end - start for start, end, _ in marks]
    slices = []
    for index, ((_, end, paused), (start, _, paused_next)) in enumerate(zip(marks, marks[1:])):
        near = probes[max(0, index + 1 - PROBE_NEIGHBOURS):index + 1 + PROBE_NEIGHBOURS]
        scale = PROBE_NOMINAL_S / statistics.median(near)
        collecting = paused_next - paused
        slices.append(((start - end - collecting) * scale, collecting * scale))
    return slices


def commit_rate(sims):
    """Commits per second of the measurement windows, at nominal host speed.

    A slice's time outside full collections is taken at the lower quartile
    over the run's slices, which drops slices slowed by what the probes
    missed; the time in full collections, which lands in a few slices, at
    its mean.
    """
    slices = [piece for sim in sims for piece in scaled_slices(sim.marks)]
    outside = [piece[0] for piece in slices]
    if len(outside) > 1:
        lower = statistics.quantiles(outside, n=4, method="inclusive")[0]
    else:
        lower = outside[0]
    inside = statistics.fmean(piece[1] for piece in slices)
    return sims[0].spec.slice_commits / (lower + inside)


def host_speed(sims):
    """PROBE_NOMINAL_S over the run's median probe duration (1: nominal speed)."""
    probes = [end - start for sim in sims for start, end, _ in sim.marks]
    return PROBE_NOMINAL_S / statistics.median(probes)


def end_to_end_metrics(sims, setups, probe):
    """The end-to-end metrics of a timed run's simulations.

    The wall-clock metrics are taken at nominal host speed: the commit rate
    slice by slice (``commit_rate``), the builds' median at the run's
    ``host_speed``.  ``peak_rss_mb`` leaves out the probe's table.  The
    simulated metrics pool the simulations.
    """
    latencies = [latency for sim in sims for latency in sim.latencies]
    commits = sum(sim.result.commits for sim in sims)
    aborts = sum(sim.result.aborts for sim in sims)
    return {
        "sim_commits_per_wall_s": _metric(commit_rate(sims), "txn/s"),
        "setup_s": _metric(statistics.median(setups) * host_speed(sims), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb() - probe.resident_mb, "MB"),
        "sim_tput_txn_s": _metric(statistics.fmean(sim.result.throughput for sim in sims),
                                  "txn/s"),
        "sim_latency_p50_ms": _metric(mid_quantile(latencies, 0.5) * 1000.0, "ms"),
        "sim_latency_p90_ms": _metric(mid_quantile(latencies, 0.9) * 1000.0, "ms"),
        "attempts_per_commit": _metric((commits + aborts) / commits, "ratio"),
    }


def layer_metrics(tracer, traced, reference):
    """The per-layer metrics of a traced simulation (see README.md)."""
    runner = traced.runner
    engine = runner.engine
    store = runner.store
    durability = engine.durability
    recorder = runner.recorder
    commits = traced.commits
    window = traced.result
    stat = tracer.stat
    metrics = {}

    def put(name, value, unit):
        metrics[name] = _metric(value, unit)

    def calls_and_self(prefix, span):
        put(f"{prefix}.calls", stat("calls", span), "count")
        put(f"{prefix}.self_s", stat("self_s", span), "s")

    env = runner.env
    scheduled = next(env._seq)
    put("sim.self_s", stat("self_s", "sim"), "s")
    put("sim.events_per_commit", (scheduled - len(env._queue)) / commits, "ratio")

    for op in ("begin", "read", "write", "scan", "txn", "depends_transitively"):
        calls_and_self(f"core.{op}", f"core.{op}")
    put("core.wait.calls", stat("calls", "core.wait"), "count")
    put("core.wait.virtual_s", stat("wait_virtual_s", "core.wait"), "s")
    put("core.commit_ratio", window.commits / (window.commits + window.aborts), "ratio")

    for mechanism in ("2pl", "rp", "ssi"):
        prefix = f"cc.{mechanism}."
        put(f"cc.{mechanism}.calls", tracer.stat_prefix("calls", prefix), "count")
        put(f"cc.{mechanism}.self_s", tracer.stat_prefix("self_s", prefix), "s")
        put(f"cc.{mechanism}.wait_virtual_s",
            tracer.stat_prefix("wait_virtual_s", prefix), "s")
        put(f"cc.{mechanism}.aborts", tracer.stat_prefix("aborts", prefix), "count")
    requests = tracer.counters["locks.requests"]
    put("cc.locks.requests", requests, "count")
    put("cc.locks.blocked_share",
        tracer.counters["locks.blocked"] / requests if requests else 0.0, "ratio")

    for method in ("install", "commit_transaction", "abort_transaction",
                   "latest_committed_before", "latest_committed", "own_uncommitted",
                   "uncommitted_map", "range_keys"):
        calls_and_self(f"storage.mvstore.{method}", f"storage.mvstore.{method}")
    rows = tracer.counters["scan.rows"]
    put("storage.scan.keys_per_row",
        tracer.counters["scan.keys"] / rows if rows else 0.0, "ratio")
    put("storage.versions_per_key", store.version_count() / len(store.keys()), "ratio")
    put("storage.gc.collected", engine.gc.collected_versions, "count")
    put("storage.load.self_s", stat("self_s", "storage.load"), "s")

    for method in ("precommit", "log_operation", "advance_gcp_epoch"):
        calls_and_self(f"storage.durability.{method}", f"storage.durability.{method}")
    put("storage.wal.records_per_commit", durability.records_written / commits, "ratio")
    put("storage.wal.bytes_per_user_byte", wal_bytes_per_user_byte(durability), "ratio")

    calls_and_self("isolation.recorder.on_commit", "isolation.recorder.on_commit")
    put("isolation.dsg.on_commit.self_s", stat("self_s", "isolation.dsg.on_commit"), "s")
    put("isolation.dsg.edges_per_commit",
        recorder.streaming_checker.num_edges / recorder.recorded_commits, "ratio")
    put("isolation.verdict_s", stat("total_s", "isolation.verdict"), "s")

    calls_and_self("workloads.next_transaction", "workloads.next_transaction")
    put("workloads.populate_s", stat("total_s", "workloads.populate"), "s")
    put("harness.runner_init.self_s", stat("self_s", "harness.runner_init"), "s")

    put("trace.overhead", traced.section_wall_s / reference.section_wall_s, "ratio")
    put("trace.coverage", tracer.total_self_s() / traced.section_wall_s, "ratio")
    put("trace.spans", tracer.span_count, "count")
    return metrics


def _print_metrics(metrics, out, samples=None):
    for name, metric in metrics.items():
        line = f"{name} = {metric['value']:.6g} {metric['unit']}"
        if samples is not None and name.startswith("sim_latency_"):
            line += f" (n={samples})"
        out(line)


def _extra_setups(spec, seed, min_s):
    """Wall times of runner builds, stopped unused, until they add up to ``min_s``."""
    setups = []
    while sum(setups) < min_s:
        started = time.perf_counter()
        runner = build_runner(spec, seed)
        setups.append(time.perf_counter() - started)
        runner.stop()
        del runner
        gc.collect()
    return setups


def _simulate(spec, seed, measure_s, sims, problems, out, probe=None):
    """Execute one simulation, adding it to ``sims`` and its faults to ``problems``."""
    sim = Simulation(spec, seed, measure_s, probe)
    sims.append(sim)
    sim.execute()
    sim.describe(out)
    problems.extend(sim.problems())
    return sim


def simulation_seed(seed, index, simulations):
    """Seed of the ``index``-th of a run's ``simulations`` (distinct for distinct run seeds)."""
    return seed * simulations + index


def run_cap_s(seconds):
    """Wall-clock cap of a run of ``seconds``."""
    return CAP_S * max(1.0, seconds / DEFAULT_SECONDS) ** 2


def run_workload(name, seed=DEFAULT_SEED, seconds=DEFAULT_SECONDS, trace=False,
                 cap_s=None, simulations=None, setup_min_s=SETUP_MIN_S, out=print):
    """Run one workload; return the result object the command prints last."""
    spec = WORKLOADS[name]
    simulations = simulations or spec.simulations
    measure_s = spec.virtual_per_second * seconds
    if trace:
        measure_s *= TRACE_SHARE
        simulations = 1
    out(
        f"workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
        f"clients={spec.clients} simulations={simulations} warmup={WARMUP_S}s "
        f"measure={measure_s / simulations:.4g}s (virtual, per simulation) "
        f"durability={'on' if spec.durable else 'off'} oracle=on"
    )
    sims = []
    setups = []
    problems = []
    previous = _arm_cap(run_cap_s(seconds) if cap_s is None else cap_s)
    try:
        if trace:
            first = simulation_seed(seed, 0, spec.simulations)
            # An unused build first, so that the reference does not pay the
            # process's first-build costs, which the traced simulation skips.
            build_runner(spec, first).stop()
            reference = _simulate(spec, first, measure_s, sims, problems, out)
            reference.release()
            tracer = Tracer()
            with tracer.install(type(spec.make_workload(first))):
                traced = _simulate(spec, first, measure_s, sims, problems, out)
        else:
            probe = HostProbe()
            for index in range(simulations):
                sub_seed = simulation_seed(seed, index, simulations)
                target_s = (index + 1) * setup_min_s / simulations
                setups += _extra_setups(spec, sub_seed, target_s - sum(setups))
                sim = _simulate(spec, sub_seed, measure_s / simulations, sims, problems, out,
                                probe)
                setups.append(sim.setup_s)
                sim.release()
                if problems:
                    break
    except RunCapExceeded as exc:
        problems.append(str(exc))
    finally:
        _disarm_cap(previous)
    attempted = max(sum(sim.attempts for sim in sims), 1)
    if trace and not problems:
        if (reference.result.commits, reference.result.aborts) != (
            traced.result.commits,
            traced.result.aborts,
        ):
            problems.append("the traced run diverged from its untraced reference")
    if problems:
        for problem in problems:
            out(f"FAILED: {problem}")
        return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}
    if trace:
        metrics = layer_metrics(tracer, traced, reference)
        path = tracer.write(TRACE_DIR / f"{name}-seed{seed}.spans")
        out(f"spans: {tracer.span_count} written to {path.relative_to(BENCH_DIR.parent)}")
        top = sorted(zip(tracer.self_s, tracer.names), reverse=True)[:8]
        out("top self time: " + ", ".join(f"{n}={t:.3f}s" for t, n in top))
        _print_metrics(metrics, out)
    else:
        out(f"setup samples: {len(setups)}, wall min {min(setups):.4f}s, "
            f"median {statistics.median(setups):.4f}s, max {max(setups):.4f}s")
        out(f"slices: {sum(len(sim.marks) - 1 for sim in sims)} of {spec.slice_commits} "
            f"commits; host speed {host_speed(sims):.3f} of nominal")
        metrics = end_to_end_metrics(sims, setups, probe)
        _print_metrics(metrics, out, samples=sum(len(sim.latencies) for sim in sims))
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}
