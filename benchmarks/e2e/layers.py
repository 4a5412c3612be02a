"""The traced run: per-layer metrics, measured from outside the package.

Each workload replays a shortened loop in which one request is decomposed
into the public calls of each layer, every call inside a span, next to the
same request issued whole through ``Session``/``Server``.  A layer's time is
the self time of its spans; what the whole request takes beyond its parts is
glue in ``session``/``serving``.  One traced run measures every layer on its
home workload, so its output does not depend on which workload was named.

Counts (``*_total``) come from fixed-length replays and must repeat exactly;
timings are medians over however many sweeps fit the time budget.
"""

from __future__ import annotations

import re
import time
from collections import defaultdict
from statistics import geometric_mean as geomean, median

import numpy as np
from scipy.stats import spearmanr

from repro.baselines import ScipySystem
from repro.baselines.base import output_shape
from repro.core.compose import compose
from repro.core.optimizer import Optimizer
from repro.core.statistics import Statistics
from repro.execution.engine import ExecutionEngine, PlanCache, result_to_dense
from repro.kernels import KERNELS
from repro.sdqlite.ast import node_count
from repro.sdqlite.debruijn import alpha_equivalent, to_debruijn_safe
from repro.sdqlite.parser import parse_expr
from repro.sdqlite.pretty import pretty
from repro.serving import AdmissionGate, SharedPlan, SharedPlanCache, plan_key
from repro.session import Session
from repro.storage import (
    Catalog,
    COOFormat,
    CSCFormat,
    CSRFormat,
    DOKFormat,
    TrieFormat,
)

from stats import percentile
from trace import Tracer
from workloads import BACKEND, BETAS, TABLE3, TEMPLATES, WORKLOADS
from yardstick import REFERENCE_S

LAYERS = ("sdqlite", "core", "egraph", "execution", "storage", "ivm")
#: Share of the traced run's seconds each workload's replay may use; the cold
#: sweep is the longest (two saturations of six programs).
BUDGET = {"warm_kernels": 0.2, "cold_oneshot": 0.4, "serve_mixed": 0.2,
          "update_views": 0.2}
#: Requests of the fixed-length served replay (counts must repeat exactly).
SERVE_REPLAY = {"full": 1024, "smoke": 128}


def clock(call):
    """``(result, milliseconds)`` of one call."""
    start = time.perf_counter()
    result = call()
    return result, (time.perf_counter() - start) * 1e3


def plan_text(plan) -> str:
    """Plan text that repeats exactly: nameless, gensym counters dropped.

    Greedy plans carry binder names such as ``_row42`` drawn from a
    process-wide counter, so two optimizations of one input differ in them;
    everything downstream keys on the de Bruijn form, which ignores names."""
    text = pretty(to_debruijn_safe(plan), resolve_indices=False)
    return re.sub(r"\b_([A-Za-z]+)\d+\b", r"_\1", text)


def sweeps(budget_s: float):
    """Yield sweep numbers until the budget is used; always at least one."""
    deadline = time.perf_counter() + budget_s
    number = 0
    while number < 1 or time.perf_counter() < deadline:
        yield number
        number += 1


# -- warm_kernels -----------------------------------------------------------------


def trace_warm(w, tracer: Tracer, m: dict, budget_s: float) -> None:
    run_ms, dense_ms, prepare_ms = defaultdict(list), defaultdict(list), {}
    traced_s = untraced_s = 0.0
    counters = defaultdict(int)
    table3_formats = list(w.built.values())
    prepared = {}
    for row, spec in w.rows.items():
        source = KERNELS[spec["kernel"]].source
        prepare_ms[row] = median([clock(lambda: Session(
            spec["catalog"], backend=BACKEND, cache=PlanCache()).prepare(
                source, dense_shape=spec["shape"]))[1] for _ in range(3)])
        env = spec["catalog"].globals()
        engine = ExecutionEngine(env=env, backend=BACKEND, cache=PlanCache())
        prepared[row] = (engine.prepare(spec["statement"].plan), env)
        stats: dict = {}
        dense = spec["statement"].execute_with_stats(stats)
        for name in ("fallback_sums", "fallback_merges", "sum_loops"):
            counters[name] += stats.get(name, 0)
        counters["out_entries"] += int(np.count_nonzero(dense))
    for _ in sweeps(budget_s):
        for row, spec in w.rows.items():
            w.yardstick.fresh_factor()
            plan, env = prepared[row]
            with tracer.span(row, "bench", kind="warm_kernels/parts"):
                with tracer.span("PreparedPlan.run", "execution") as ran:
                    raw = plan.run(env)
                with tracer.span("result_to_dense", "execution") as converted:
                    dense = result_to_dense(raw, spec["shape"])
            run_ms[row].append(ran.duration * 1e3)
            dense_ms[row].append(converted.duration * 1e3)
            w.attempted += 1
            w.check(row, dense, spec["expected"])
            with tracer.span(row, "session", kind="warm_kernels/whole") as whole:
                spec["statement"].execute()
            traced_s += whole.duration
            untraced_s += clock(spec["statement"].execute)[1] / 1e3
    for row in w.rows:
        m[f"execution.run_ms.{row}"] = median(run_ms[row])
    m["execution.run_ms_geomean"] = geomean([median(v) for v in run_ms.values()])
    m["execution.run_ms_p95_geomean"] = geomean([percentile(v, 0.95) for v in run_ms.values()])
    m["execution.to_dense_ms_geomean"] = geomean([median(v) for v in dense_ms.values()])
    m["execution.fallback_sums_total"] = counters["fallback_sums"]
    m["execution.fallback_merges_total"] = counters["fallback_merges"]
    m["execution.sum_loops_total"] = counters["sum_loops"]
    m["execution.out_entries_total"] = counters["out_entries"]
    m["session.prepare_ms_geomean"] = geomean(list(prepare_ms.values()))
    m["trace.overhead_share.warm_kernels"] = traced_s / untraced_s - 1.0
    nbytes = sum(buffer.nbytes for fmt in table3_formats
                 for buffer in fmt.to_buffers().values())
    m["storage.bytes_per_nnz"] = nbytes / sum(fmt.nnz for fmt in table3_formats)

    # The paper's Fig. 7 column: SciPy on the matrix kernels, same inputs.
    scipy_ms = {}
    for row in ("MMM-csr", "SUMMM-csc", "BATAX-csr"):
        call = ScipySystem().prepare(KERNELS[w.rows[row]["kernel"]], w.rows[row]["catalog"])
        scipy_ms[row] = median([clock(call)[1] for _ in range(9)])
    m["baselines.scipy_ms_geomean"] = geomean(list(scipy_ms.values()))
    m["baselines.storel_over_scipy"] = (
        geomean([median(run_ms[row]) for row in scipy_ms]) / m["baselines.scipy_ms_geomean"])

    # Does the cost model rank storages the way the typed backend runs them?
    rhos = []
    for kernel in ("MMM", "BATAX"):
        data = w.data[kernel]
        costs, times = [], []
        for cls in (CSRFormat, CSCFormat, COOFormat, DOKFormat, TrieFormat):
            catalog = w.catalog(data, {**TABLE3[kernel], "A": cls})
            statement = Session(catalog, backend=BACKEND, cache=PlanCache()).prepare(
                KERNELS[kernel].source, dense_shape=output_shape(KERNELS[kernel], catalog))
            statement.execute()
            costs.append(statement.cost)
            times.append(median([clock(statement.execute)[1] for _ in range(5)]))
        rhos.append(float(spearmanr(costs, times)[0]))
    m["core.cost_rank_corr"] = sum(rhos) / len(rhos)


# -- cold_oneshot -----------------------------------------------------------------


def trace_cold(w, tracer: Tracer, m: dict, budget_s: float) -> None:
    by = defaultdict(lambda: defaultdict(list))   # metric -> row -> samples
    egraph_totals = defaultdict(list)             # per sweep, over the egraph rows
    plan_chars, repeats, rows_seen = [], 0, 0
    traced_s = untraced_s = 0.0
    for _ in sweeps(budget_s):
        totals = defaultdict(float)
        chars = 0
        for row, (kernel, method) in w.rows.items():
            w.yardstick.fresh_factor()
            spec = w.programs[kernel]
            catalog = spec["catalog"]
            kind = f"cold_oneshot/parts/{method}"
            with tracer.span(row, "bench", kind=kind):
                with tracer.span("parse_expr", "sdqlite"):
                    program = parse_expr(spec["source"])
                with tracer.span("Statistics.from_catalog", "core"):
                    statistics = Statistics.from_catalog(catalog)
                with tracer.span("Catalog.mappings", "storage"):
                    mappings = catalog.mappings()
                with tracer.span("Optimizer.optimize", "core") as optimized:
                    result = Optimizer(statistics, **w.options).optimize(
                        program, mappings, method=method)
                    stages = [s for s in (result.stage1, result.stage2) if s is not None]
                    for stage in stages:
                        tracer.derived(f"saturate:{stage.name}", "egraph",
                                       stage.runner.time_ms / 1e3)
                with tracer.span("Catalog.globals", "storage"):
                    env = catalog.globals()
                with tracer.span("ExecutionEngine.prepare", "execution") as lowered:
                    plan = ExecutionEngine(env=env, backend=BACKEND,
                                           cache=PlanCache()).prepare(result.plan)
                with tracer.span("PreparedPlan.run", "execution"):
                    raw = plan.run()
                with tracer.span("result_to_dense", "execution"):
                    dense = result_to_dense(raw, spec["shape"])
            w.attempted += 1
            w.check(row, dense, spec["expected"])
            by[f"optimize_{method}"][row].append(optimized.duration * 1e3)
            by["lower"][row].append(lowered.duration * 1e3)
            if stages:
                by["stage1"][row].append(result.stage1.runner.time_ms)
                by["stage2"][row].append(result.stage2.runner.time_ms)
                by["optimize_self"][row].append(
                    optimized.duration * 1e3 - sum(s.runner.time_ms for s in stages))
                for stage in stages:
                    report = stage.runner
                    totals["nodes"] += report.nodes
                    totals["classes"] += report.classes
                    totals["iterations"] += report.iterations
                    totals["matches"] += report.total_matches
                    totals["stages"] += 1
                    totals["saturated"] += report.stop_reason == "saturated"
                    for iteration in report.per_iteration:
                        totals["search_ms"] += iteration.search_ms
                        totals["apply_ms"] += iteration.apply_ms
                        totals["rebuild_ms"] += iteration.rebuild_ms
            # The same request whole, which also optimizes the same input a
            # second time: the two plans must be the same text.
            session = Session(catalog, backend=BACKEND, cache=PlanCache(),
                              optimizer_options=w.options)
            with tracer.span(row, "session", kind=f"cold_oneshot/whole/{method}") as whole:
                outcome = session.run_detailed(spec["source"], method=method,
                                               dense_shape=spec["shape"])
            traced_s += whole.duration
            untraced_s += clock(lambda: w.oneshot(kernel, method))[1] / 1e3
            text = plan_text(result.plan)
            chars += len(text)
            rows_seen += 1
            repeats += alpha_equivalent(result.plan, outcome.optimization.plan)
        plan_chars.append(chars)
        for name, value in totals.items():
            egraph_totals[name].append(value)
    for name in ("optimize_greedy", "optimize_egraph", "stage1", "stage2", "optimize_self"):
        m[f"core.{name}_ms_geomean"] = geomean([median(v) for v in by[name].values()])
    m["execution.lower_ms_geomean"] = geomean([median(v) for v in by["lower"].values()])
    m["core.statistics_ms_p50"] = median(tracer.durations_ms("Statistics.from_catalog"))
    m["storage.mappings_ms_p50"] = median(tracer.durations_ms("Catalog.mappings"))
    m["storage.globals_ms_p50"] = median(tracer.durations_ms("Catalog.globals"))
    m["core.plan_chars_total"] = plan_chars[0]
    m["core.plan_repeat_share"] = repeats / rows_seen
    for name in ("nodes", "classes", "iterations", "matches"):
        m[f"egraph.{name}_total"] = int(egraph_totals[name][0])
    m["egraph.saturated_share"] = egraph_totals["saturated"][0] / egraph_totals["stages"][0]
    for name in ("search_ms", "apply_ms", "rebuild_ms"):
        m[f"egraph.{name}_total"] = median(egraph_totals[name])
    m["trace.overhead_share.cold_oneshot"] = traced_s / untraced_s - 1.0
    composed = []
    for spec in w.programs.values():
        program = to_debruijn_safe(parse_expr(spec["source"]))
        mappings = {name: to_debruijn_safe(mapping)
                    for name, mapping in spec["catalog"].mappings().items()}
        composed.append(median([clock(lambda: compose(program, mappings))[1]
                                for _ in range(5)]))
    m["core.compose_ms_geomean"] = geomean(composed)


# -- serve_mixed ------------------------------------------------------------------


class ServedParts:
    """One served request rebuilt from the public parts ``Server`` is made of."""

    def __init__(self, catalog, tracer: Tracer):
        self.catalog = catalog
        self.tracer = tracer
        self.plans = SharedPlanCache(maxsize=256)
        self.lowered = PlanCache(maxsize=256)
        self.gate = AdmissionGate(8, 64, 10.0)
        self._env = {}          # catalog version -> globals, as the server memoizes
        self._statistics = {}

    def env_for(self, snapshot):
        if snapshot.version not in self._env:
            with self.tracer.span("Catalog.globals", "storage"):
                self._env[snapshot.version] = snapshot.globals()
        return self._env[snapshot.version]

    def build(self, key, program, snapshot) -> SharedPlan:
        span = self.tracer.span
        if snapshot.version not in self._statistics:
            with span("Statistics.from_catalog", "core"):
                self._statistics[snapshot.version] = Statistics.from_catalog(snapshot)
        with span("Catalog.mappings", "storage"):
            mappings = snapshot.mappings()
        with span("Optimizer.optimize", "core"):
            optimization = Optimizer(self._statistics[snapshot.version]).optimize(
                program, mappings, method="greedy")
        engine = ExecutionEngine(env=self.env_for(snapshot), backend=BACKEND,
                                 cache=self.lowered)
        with span("ExecutionEngine.prepare", "execution"):
            prepared = engine.prepare(optimization.plan)
        return SharedPlan(key=key, optimization=optimization, prepared=prepared,
                          schema_version=snapshot.schema_version)

    def request(self, text: str, shape, beta: float, kind: str):
        """Returns ``(dense result, the PreparedPlan.run span)``."""
        span = self.tracer.span
        with span("request", "bench", kind=kind):
            with span("parse_expr", "sdqlite"):
                program = parse_expr(text)
            with span("to_debruijn_safe", "sdqlite"):
                query = to_debruijn_safe(program)
            with span("AdmissionGate.acquire", "serving"):
                self.gate.acquire()
            try:
                with span("Catalog.snapshot", "storage"):
                    snapshot = self.catalog.snapshot()
                with span("SharedPlanCache.get_or_prepare", "serving"):
                    key = plan_key(query, method="greedy", backend=BACKEND,
                                   optimizer_options={}, snapshot=snapshot)
                    entry, _ = self.plans.get_or_prepare(
                        key, lambda: self.build(key, program, snapshot))
                env = dict(self.env_for(snapshot))
                env["beta"] = beta
                with span("PreparedPlan.run", "execution") as ran:
                    raw = entry.run(env)
                with span("result_to_dense", "execution"):
                    dense = result_to_dense(raw, shape)
            finally:
                with span("AdmissionGate.release", "serving"):
                    self.gate.release()
        return dense, ran


def trace_serve(w, tracer: Tracer, m: dict, budget_s: float) -> None:
    replay_requests = SERVE_REPLAY[w.scale]
    parts = ServedParts(w.catalog_, tracer)
    for template, literal in w.pool:     # warm the replay's caches like the server's
        parts.request(w.text(template, literal), w.shapes[template], 0.5, "warmup")
    rng = np.random.default_rng([w.seed, 7])
    picks = rng.choice(len(w.pool), size=replay_requests, p=w.weights)
    betas = rng.choice(BETAS, size=replay_requests)
    templates = list(TEMPLATES)
    whole_ms = {"hit": [], "miss": []}
    overhead_ms = []
    traced_s = untraced_s = 0.0
    for i in range(1, replay_requests + 1):
        w.yardstick.fresh_factor()
        beta = float(betas[i - 1])
        missing = i % w.size["miss_every"] == 0
        if missing:
            template = templates[(i // w.size["miss_every"]) % len(templates)]
            literal = 500_000_000 + i
        else:
            template, literal = w.pool[picks[i - 1]]
        text, shape = w.text(template, literal), w.shapes[template]
        group = "miss" if missing else "hit"
        dense, ran = parts.request(text, shape, beta, f"serve_mixed/parts/{group}")
        w.attempted += 1
        w.check(group, dense, literal * beta * w.expected[template])
        with tracer.span("request", "serving", kind=f"serve_mixed/whole/{group}") as whole:
            w.server.execute(text, dense_shape=shape, beta=beta)
        whole_ms[group].append(whole.duration * 1e3)
        if not missing:
            overhead_ms.append((whole.duration - ran.duration) * 1e3)
            traced_s += whole.duration
            untraced_s += clock(lambda: w.server.execute(
                text, dense_shape=shape, beta=beta))[1] / 1e3
    stats = w.server.stats.snapshot()
    m["serving.hit_ms_p50"] = median(whole_ms["hit"])
    m["serving.miss_ms_p50"] = median(whole_ms["miss"])
    m["serving.request_overhead_ms_p50"] = median(overhead_ms)
    m["serving.plan_hit_share"] = stats["plan_hits"] / (stats["plan_hits"] + stats["plan_misses"])
    m["serving.plan_misses_total"] = stats["plan_misses"]
    lowered = w.server.lowered
    m["execution.plan_cache_hit_share"] = lowered.hits / max(lowered.hits + lowered.misses, 1)
    m["storage.snapshot_ms_p50"] = median(tracer.durations_ms("Catalog.snapshot"))
    m["sdqlite.parse_ms_p50"] = median(tracer.durations_ms("parse_expr"))
    m["sdqlite.debruijn_ms_p50"] = median(tracer.durations_ms("to_debruijn_safe"))
    m["trace.overhead_share.serve_mixed"] = traced_s / untraced_s - 1.0

    # Lowering when the artifact is already cached, over the pool's plans.
    env = w.catalog_.globals()
    engine = ExecutionEngine(env=env, backend=BACKEND, cache=parts.lowered)
    plans = [entry.optimization.plan for entry in
             (parts.plans.get(key) for key in parts.plans.keys()) if entry is not None]
    m["execution.lower_hit_ms_p50"] = median(
        [clock(lambda: engine.prepare(plan))[1] for plan in plans for _ in range(3)])

    # A Session over the same catalog: what execute() and a re-bind add to the kernel.
    session = Session(w.catalog_, backend=BACKEND, cache=PlanCache())
    glue_ms, rebind_ms = [], []
    for template in TEMPLATES:
        shape = w.shapes[template]
        statement = session.prepare(w.text(template, 2), dense_shape=shape)
        plan = ExecutionEngine(env=env, backend=BACKEND, cache=PlanCache()).prepare(statement.plan)
        for _ in range(24):
            plain = clock(statement.execute)[1]
            rebound = clock(lambda: statement.execute(beta=0.75))[1]
            kernel = clock(lambda: result_to_dense(plan.run(env), shape))[1]
            glue_ms.append(plain - kernel)
            rebind_ms.append(rebound - plain)
    m["session.execute_overhead_ms_p50"] = median(glue_ms)
    m["session.rebind_ms_p50"] = median(rebind_ms)

    # Closed-loop client phases: one client, then as many as the workload uses.
    rates = []
    for clients in (1, w.size["clients"]):
        w.reset()
        w.clients = clients
        w.run_clients(budget_s / 3)
        rates.append(w.throughput_rps())
    stats = w.server.stats.snapshot()
    m["serving.scaling_2c"] = rates[1] / rates[0]
    m["serving.request_ms_p99"] = percentile(
        [ms for values in w.raw.values() for ms in values], 0.99)
    m["serving.peak_in_flight"] = stats["peak_in_flight"]
    m["serving.rejected_total"] = stats["rejected_full"] + stats["rejected_timeout"]


# -- update_views -----------------------------------------------------------------


def trace_update(w, tracer: Tracer, m: dict, budget_s: float) -> None:
    session, reader = w.session, w.reader
    twin = Catalog()             # the same data without views: storage's share
    for fmt in w.catalog_.tensors.values():
        twin.add(fmt)
    views = [session.view("mmm"), session.view("rowsum")]
    reader_plan = ExecutionEngine(env=w.catalog_.globals(), backend=BACKEND,
                                  cache=PlanCache()).prepare(reader.plan)
    update_ms, delta_ms, after_ms, steady_ms = [], [], [], []
    traced_s = untraced_s = 0.0
    refreshes = [(view.delta_refreshes, view.full_refreshes) for view in views]
    span = tracer.span
    for _ in sweeps(budget_s):
        w.yardstick.fresh_factor()
        coords, values = w.delta()
        with span("update", "ivm", kind="update_views/whole/update") as whole:
            session.update("A", coords, values)
        w.replay.apply(coords, values)
        with span("update", "bench", kind="update_views/parts/update"):
            with span("Catalog.update", "storage") as applied:
                twin.update("A", coords, values)
            # View maintenance cannot be called apart from the catalog update;
            # it is what the whole update takes beyond the update on the twin.
            tracer.derived("ViewRegistry.maintain", "ivm",
                           max(whole.duration - applied.duration, 0.0))
        update_ms.append(whole.duration * 1e3)
        delta_ms.append(applied.duration * 1e3)
        expected = w.replay.summm()
        with span("read_after_update", "session", kind="update_views/whole/read") as whole:
            value = reader.execute()
        after_ms.append(whole.duration * 1e3)
        w.attempted += 1
        w.check("read_after_update", value, expected)
        with span("read_after_update", "bench", kind="update_views/parts/read"):
            with span("Catalog.globals", "storage"):
                env = w.catalog_.globals()
            with span("PreparedPlan.run", "execution"):
                raw = reader_plan.run(env)
            with span("result_to_dense", "execution"):
                value = result_to_dense(raw, ())
        w.attempted += 1
        w.check("read_parts", value, expected)
        with span("read_steady", "session", kind="update_views/whole/read") as whole:
            reader.execute()
        steady_ms.append(whole.duration * 1e3)
        traced_s += whole.duration
        untraced_s += clock(reader.execute)[1] / 1e3
        with span("read_steady", "bench", kind="update_views/parts/read"):
            with span("PreparedPlan.run", "execution"):
                raw = reader_plan.run(env)
            with span("result_to_dense", "execution"):
                result_to_dense(raw, ())
    done = [(view.delta_refreshes, view.full_refreshes) for view in views]
    by_delta = sum(after[0] - before[0] for before, after in zip(refreshes, done))
    in_full = sum(after[1] - before[1] for before, after in zip(refreshes, done))
    w.checkpoint()
    m["ivm.update_ms_p50"] = median(update_ms)
    m["ivm.update_ms_p95"] = percentile(update_ms, 0.95)
    m["storage.apply_delta_ms_p50"] = median(delta_ms)
    m["storage.apply_delta_ms_p95"] = percentile(delta_ms, 0.95)
    m["ivm.maintain_ms_p50"] = m["ivm.update_ms_p50"] - m["storage.apply_delta_ms_p50"]
    m["ivm.delta_share"] = by_delta / max(by_delta + in_full, 1)
    m["session.revalidate_ms_p50"] = median(after_ms) - median(steady_ms)
    m["trace.overhead_share.update_views"] = traced_s / untraced_s - 1.0
    # Full refreshes last: they replace the merged results the updates maintain.
    refresh_ms = [sum(clock(view.refresh)[1] for view in views) for _ in range(5)]
    m["ivm.full_refresh_ms_p50"] = median(refresh_ms)
    m["ivm.delta_over_refresh"] = m["ivm.maintain_ms_p50"] / m["ivm.full_refresh_ms_p50"]
    create_ms = list(w.create_view_ms)
    for _ in range(2):
        scratch = Session(twin, backend=BACKEND, cache=PlanCache())
        for view in views:
            create_ms.append(clock(lambda: scratch.create_view(
                view.name, view.program, dense_shape=view.dense_shape))[1])
    m["ivm.create_view_ms_p50"] = median(create_ms)


# -- the traced run ---------------------------------------------------------------


def shares(workload: str, tracer: Tracer, m: dict, lines: list[str]) -> None:
    """Layer shares of request time: metrics per workload, lines per row group."""
    groups = sorted({span.kind.split("/", 2)[2] for span in tracer.spans
                     if span.parent is None and (span.kind or "").startswith(f"{workload}/parts/")})
    for group in [""] + groups:
        suffix = f"/{group}" if group else ""
        whole_s = tracer.request_seconds(f"{workload}/whole{suffix}")
        layer_s = tracer.layer_seconds(f"{workload}/parts{suffix}")
        covered = sum(seconds for layer, seconds in layer_s.items() if layer != "bench")
        cells = "  ".join(f"{layer} {layer_s.get(layer, 0.0) / whole_s:.3f}" for layer in LAYERS)
        lines.append(f"  {workload + suffix:<28} {cells}  covered {covered / whole_s:.3f}")
        if not group:
            for layer in LAYERS:
                m[f"{layer}.time_share.{workload}"] = layer_s.get(layer, 0.0) / whole_s
            m[f"trace.coverage_share.{workload}"] = covered / whole_s


def run_traced(seed: int, scale: str, seconds: float, out_dir) -> dict:
    tracer = Tracer()
    m: dict = {}
    lines = ["== layer shares of request time (parts' self time / the same requests whole)"]
    replays = {"warm_kernels": trace_warm, "cold_oneshot": trace_cold,
               "serve_mixed": trace_serve, "update_views": trace_update}
    attempted = failed = 0
    errors: list[str] = []
    build_s = 0.0
    yardsticks: list[float] = []
    for name, replay in replays.items():
        w = WORKLOADS[name](seed, scale)
        w.prepare_reference()
        w.yardstick.history.clear()
        measured: dict = {}
        replay(w, tracer, measured, seconds * BUDGET[name])
        # Timings at reference speed, as in the untraced runs (yardstick.py):
        # one factor per replay, from the yardstick timed all through it.
        # Every timing a replay measures has "_ms" in its name.
        factor = REFERENCE_S / median(w.yardstick.history)
        yardsticks += w.yardstick.history
        for key, value in measured.items():
            m[key] = value * factor if "_ms" in key else value
        shares(name, tracer, m, lines)
        attempted += w.attempted
        failed += w.failed
        errors += w.errors[:5]
        build_s += w.build_s * factor
    sources = [KERNELS[kernel].source for kernel in TABLE3]
    sources += [text.format(c=2) for text in TEMPLATES.values()]
    m["sdqlite.ast_nodes_total"] = sum(node_count(parse_expr(text)) for text in sources)
    m["storage.build_s"] = build_s
    m["trace.yardstick_ms_p50"] = median(yardsticks) * 1e3    # wall-clock, not scaled
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / "spans.json")
    return {"metrics": m, "attempted": attempted, "failed": failed, "errors": errors,
            "layer_report": lines, "spans": len(tracer.spans)}
