"""The advisor's search: candidate enumeration, pruned scoring, measurement.

The search is deliberately polynomial (Sec. 5's cost model is cheap but not
free, and the raw configuration space is the product of per-tensor menus):

1. **Per-tensor independence** — each advisable tensor is varied alone, all
   other tensors pinned to their current formats.  This ranks every legal
   format per tensor and measures how *sensitive* the workload is to that
   tensor's storage (cost spread between its best and worst format).
2. **Beam over interacting tensors** — tensors are visited in decreasing
   sensitivity order; a small beam of partial configurations is extended
   with each tensor's top independent formats and re-scored jointly (this is
   where interactions like "A as CSC only pays off when B is CSR" surface).
   Unassigned tensors are scored at their independent best, so every score
   is the cost of one *complete* configuration.
3. **Optional measurement** — ``measure=True`` executes a small probe set
   for real (on the ``typed`` backend by default — see ``docs/backends.md``)
   and re-ranks by measured time.  The probe set is the top-k estimated
   configurations plus one uniform configuration per storage *family*
   (dense / coo / compressed / dok / trie), followed by a short
   measurement-driven local search over single format swaps.  Rationale:
   the Fig. 6 cost model ranks plans *within* a configuration and
   configurations *within* a family reliably, but its γ constants were
   calibrated for compiled scalar loops — the relative constants of batched
   NumPy kernels differ, so cross-family ordering is exactly what real
   executions are needed for.  Probes and swap candidates whose
   estimated cost exceeds ``probe_cost_cap`` times the best estimate are
   never executed (the estimates *are* trusted to rule out catastrophes),
   which keeps measurement time bounded and the search polynomial.

Costing one configuration = for every workload program, run the cost-based
optimizer (``method="greedy"`` by default: the cheapest strategy-generated
candidate, exactly the harness's plan-quality mode) against hypothetical
statistics (:meth:`~repro.core.statistics.Statistics.with_formats`) and the
candidate formats' storage mappings, then weight-sum the plan costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..core.optimizer import Optimizer
from ..execution.engine import check_backend
from ..sdqlite.ast import Expr, Sym, children
from ..sdqlite.errors import StorageError
from ..sdqlite.parser import parse_expr
from ..storage.catalog import Catalog
from ..storage.convert import candidate_formats, reformat
from ..storage.formats import StorageFormat, TensorStats


@dataclass(frozen=True)
class WorkloadQuery:
    """One program of a workload: SDQLite source (or AST), weight, and a label.

    The weight is the query's relative frequency in the workload; the
    advisor minimizes the weighted sum of estimated plan costs.
    """

    program: "str | Expr"
    weight: float = 1.0
    name: str = ""

    @property
    def expr(self) -> Expr:
        return parse_expr(self.program) if isinstance(self.program, str) else self.program


def as_workload(programs, weights: Sequence[float] | None = None) -> list[WorkloadQuery]:
    """Normalize the many accepted workload spellings into ``WorkloadQuery`` rows.

    ``programs`` may be a single program (source text or AST), a sequence of
    programs, a sequence of ``(program, weight)`` pairs, or ready
    :class:`WorkloadQuery` objects; ``weights`` optionally overrides the
    per-query weights positionally.
    """
    if isinstance(programs, (str, Expr)) or isinstance(programs, WorkloadQuery):
        programs = [programs]
    queries: list[WorkloadQuery] = []
    for position, entry in enumerate(programs):
        if isinstance(entry, WorkloadQuery):
            query = entry
        elif isinstance(entry, tuple):
            program, weight = entry
            query = WorkloadQuery(program, float(weight))
        else:
            query = WorkloadQuery(entry)
        if weights is not None:
            query = WorkloadQuery(query.program, float(weights[position]), query.name)
        if not query.name:
            query = WorkloadQuery(query.program, query.weight, f"q{position + 1}")
        queries.append(query)
    if not queries:
        raise StorageError("advise() needs at least one workload program")
    return queries


@dataclass
class Candidate:
    """One storage configuration with its estimated (and maybe measured) merit.

    ``formats`` maps every advisable tensor to a format name;
    ``estimated_cost`` is the weighted workload plan cost under that
    configuration; ``measured_ms`` is filled by ``measure=True`` runs.
    """

    formats: dict[str, str]
    estimated_cost: float
    per_query: dict[str, float] = field(default_factory=dict)
    measured_ms: float | None = None

    def label(self) -> str:
        return ", ".join(f"{t}:{f}" for t, f in sorted(self.formats.items()))


@dataclass
class Recommendation:
    """The advisor's verdict: a top pick plus the ranked alternatives.

    Hand it to :meth:`repro.session.Session.apply_recommendation` (or
    ``storel.advise(..., apply=True)``) to re-store the catalog's tensors in
    the recommended formats in place.
    """

    #: tensor -> format name of the top-ranked configuration.
    formats: dict[str, str]
    #: The current configuration, scored identically for comparison.
    baseline: Candidate
    #: All complete configurations the search scored, best first.
    ranked: list[Candidate]
    #: Per-tensor menu the search considered (legality-filtered).
    candidates_per_tensor: dict[str, list[str]]
    #: Number of distinct configurations that were cost-estimated.
    searched: int = 0
    #: True when the top-k ranking was validated by real executions.
    measured: bool = False

    @property
    def best(self) -> Candidate:
        return self.ranked[0]

    @property
    def estimated_speedup(self) -> float:
        """Baseline estimated cost over the recommendation's estimated cost."""
        if self.best.estimated_cost <= 0:
            return 1.0
        return self.baseline.estimated_cost / self.best.estimated_cost

    def changes(self, catalog: Catalog) -> dict[str, tuple[str, str]]:
        """``{tensor: (current_format, recommended_format)}`` for actual changes."""
        out = {}
        for name, kind in self.formats.items():
            current = catalog.tensors[name].format_name
            if current != kind:
                out[name] = (current, kind)
        return out

    def summary(self) -> str:
        """A small human-readable report (the ``EXPLAIN`` of the advisor)."""
        lines = [
            "== storage recommendation ==",
            f"baseline : {self.baseline.label()}  (est. cost {self.baseline.estimated_cost:.1f})",
            f"advised  : {self.best.label()}  (est. cost {self.best.estimated_cost:.1f}, "
            f"est. speedup {self.estimated_speedup:.2f}x)",
            f"searched {self.searched} configurations over "
            f"{len(self.candidates_per_tensor)} tensor(s)"
            + (", top-k validated by measurement" if self.measured else ""),
        ]
        for rank, candidate in enumerate(self.ranked[:5], start=1):
            measured = ("  measured "
                        f"{candidate.measured_ms:.3f} ms" if candidate.measured_ms is not None
                        else "")
            lines.append(f"  #{rank} {candidate.label()}  est. "
                         f"{candidate.estimated_cost:.1f}{measured}")
        return "\n".join(lines)


def _tensor_symbols(expr: Expr, catalog: Catalog) -> set[str]:
    """Catalog tensors referenced by ``expr`` (scalars and free symbols skipped)."""
    names: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym) and node.name in catalog.tensors:
            names.add(node.name)
        stack.extend(children(node))
    return names


class Advisor:
    """Searches storage configurations for a catalog under a workload.

    Parameters
    ----------
    session:
        The :class:`repro.session.Session` whose catalog is being advised
        (statistics and scalar values are read through it; the catalog is
        never mutated — applying a recommendation is a separate, explicit
        step).
    method:
        Optimization method used for cost estimates (``"greedy"`` default:
        same plans as saturation on the paper's kernels, far cheaper — or
        ``"egraph"``).
    backend:
        Execution backend for ``measure=True`` validation runs
        (``"typed"`` default); checked at construction.
    beam_width / per_tensor_top:
        Pruning knobs of the beam stage: how many partial configurations
        survive each step, and how many of a tensor's independently-ranked
        formats are tried per step.
    optimizer_options:
        Extra keyword arguments for every :class:`~repro.core.optimizer.Optimizer`
        built while scoring (e.g. ``iter_limit``).
    shard_counts:
        Shard counts to offer as sharded-format candidates
        (``sharded_coo@k`` / ``sharded_csr@k``, see ``docs/sharding.md``).
        Empty (the default) keeps sharded specs out of the menu entirely;
        counts are only offered for tensors large enough to matter
        (``nnz >= _SHARD_ADVISE_MIN_NNZ``), so small-catalog searches are
        unperturbed.
    """

    #: Below this many stored entries a tensor never gets sharded candidates:
    #: per-shard overheads dominate and the search space doubles for nothing.
    _SHARD_ADVISE_MIN_NNZ = 1 << 15

    def __init__(self, session, *, method: str = "greedy", backend: str = "typed",
                 beam_width: int = 4, per_tensor_top: int = 3,
                 optimizer_options: Mapping[str, Any] | None = None,
                 shard_counts: Sequence[int] = ()):
        self.session = session
        self.method = method
        self.backend = check_backend(backend)
        self.beam_width = max(1, int(beam_width))
        self.per_tensor_top = max(1, int(per_tensor_top))
        self.optimizer_options = dict(optimizer_options or {})
        self.shard_counts = tuple(int(count) for count in shard_counts)
        self._converted: dict[tuple[str, str], StorageFormat] = {}
        self._converted_version = -1
        self._config_costs: dict[frozenset, tuple[float, dict[str, float]]] = {}

    # -- candidate construction ------------------------------------------------

    def _format_for(self, name: str, kind: str) -> StorageFormat:
        """The tensor ``name`` re-stored as ``kind`` (converted once, cached)."""
        current = self.session.catalog.tensors[name]
        if kind in (current.format_name, current.spec_name):
            return current
        key = (name, kind)
        fmt = self._converted.get(key)
        if fmt is None:
            fmt = self._converted[key] = reformat(current, kind)
        return fmt

    def _menu(self, tensors: Iterable[str], include_special: bool) -> dict[str, list[str]]:
        """Legal format names per advisable tensor."""
        catalog = self.session.catalog
        menu = {}
        for name in tensors:
            fmt = catalog.tensors[name]
            stats = TensorStats.of(fmt)
            counts = (self.shard_counts
                      if stats.nnz >= self._SHARD_ADVISE_MIN_NNZ else ())
            menu[name] = candidate_formats(fmt, include_special=include_special,
                                           stats=stats, shard_counts=counts)
        return menu

    # -- configuration scoring -------------------------------------------------

    def _score(self, assignment: Mapping[str, str],
               workload: Sequence[WorkloadQuery]) -> tuple[float, dict[str, float]]:
        """Weighted workload cost of one complete configuration (memoized)."""
        key = frozenset(assignment.items())
        cached = self._config_costs.get(key)
        if cached is not None:
            return cached
        catalog = self.session.catalog
        swaps = []
        mappings = dict(catalog.mappings())
        for name, kind in assignment.items():
            current = catalog.tensors[name]
            if kind in (current.format_name, current.spec_name):
                continue
            candidate = self._format_for(name, kind)
            swaps.append((current, candidate))
            mappings[name] = candidate.mapping()
        stats = self.session.statistics().with_formats(swaps)
        optimizer = Optimizer(stats, **self.optimizer_options)
        per_query: dict[str, float] = {}
        total = 0.0
        for query in workload:
            result = optimizer.optimize(query.expr, mappings, method=self.method)
            per_query[query.name] = result.cost
            total += query.weight * result.cost
        self._config_costs[key] = (total, per_query)
        return total, per_query

    # -- measurement -----------------------------------------------------------

    #: Storage-family representative per rank, used by the measurement
    #: probes: the uniform configurations a human would try first.
    _FAMILIES = {
        "dense": {1: "dense", 2: "dense", 3: "dense"},
        "coo": {1: "coo", 2: "coo", 3: "coo"},
        "compressed": {1: "coo", 2: "csr", 3: "csf"},
        "dok": {1: "dok", 2: "dok", 3: "dok"},
        "trie": {1: "trie", 2: "trie", 3: "trie"},
    }

    def _family_probes(self, menu: Mapping[str, list[str]]) -> list[dict[str, str]]:
        """One uniform ``{tensor: format}`` assignment per storage family.

        A family probe is only offered when every tensor's representative is
        legal for it (rank-appropriate and in the tensor's menu).
        """
        probes = []
        ranks = {name: len(self.session.catalog.tensors[name].shape) for name in menu}
        for representatives in self._FAMILIES.values():
            assignment = {}
            for name, kinds in menu.items():
                kind = representatives.get(ranks[name])
                if kind is None or kind not in kinds:
                    assignment = None
                    break
                assignment[name] = kind
            if assignment:
                probes.append(assignment)
        return probes

    def _measure(self, candidate: Candidate, workload: Sequence[WorkloadQuery],
                 repeats: int, fast_bar_ms: float | None = None) -> float:
        """Real weighted execution time (ms) of one configuration.

        ``fast_bar_ms`` bounds wasted wall-clock: when a first execution
        already lands an order of magnitude above the best configuration
        measured so far, the remaining repeats are skipped — the candidate
        has lost, extra precision on *how badly* buys nothing.
        """
        from ..session import Session
        from ..workloads.harness import time_callable

        catalog = Catalog()
        for name in self.session.catalog.tensors:
            kind = candidate.formats.get(name)
            fmt = (self._format_for(name, kind) if kind is not None
                   else self.session.catalog.tensors[name])
            catalog.add(fmt)
        for name, value in self.session.catalog.scalars.items():
            catalog.add_scalar(name, value)
        session = Session(catalog, method=self.method, backend=self.backend)
        statements = [session.prepare(query.expr) for query in workload]
        first = 0.0
        for query, statement in zip(workload, statements):
            once, _ = time_callable(statement.execute, repeats=1)
            first += query.weight * once
        if repeats <= 1 or (fast_bar_ms is not None and first > 10.0 * fast_bar_ms):
            return first
        # Best-of-N: the minimum is the stable statistic for ranking (mean
        # absorbs GC pauses and scheduler jitter on millisecond runs).
        best = first
        for _ in range(repeats - 1):
            total = 0.0
            for query, statement in zip(workload, statements):
                once, _ = time_callable(statement.execute, repeats=1)
                total += query.weight * once
            best = min(best, total)
        return best

    def _measured_ranking(self, ranked: list[Candidate],
                          workload: Sequence[WorkloadQuery],
                          menu: Mapping[str, list[str]], *, top_k: int,
                          repeats: int, probe_families: bool, cost_cap: float,
                          refine_steps: int) -> list[Candidate]:
        """Measure a probe set, locally refine by measurement, re-rank.

        Measured configurations come first (sorted by measured time), the
        remaining estimate-only configurations after (sorted by estimate).
        """
        best_estimate = max(ranked[0].estimated_cost, 1e-9)
        by_key: dict[frozenset, Candidate] = {
            frozenset(c.formats.items()): c for c in ranked}

        def candidate_for(assignment: dict[str, str]) -> Candidate:
            key = frozenset(assignment.items())
            existing = by_key.get(key)
            if existing is None:
                cost, per_query = self._score(assignment, workload)
                existing = by_key[key] = Candidate(dict(assignment), cost, per_query)
            return existing

        to_measure = list(ranked[:top_k])
        if probe_families:
            for assignment in self._family_probes(menu):
                probe = candidate_for(assignment)
                if probe.estimated_cost <= cost_cap * best_estimate:
                    to_measure.append(probe)

        measured: dict[frozenset, Candidate] = {}
        best_ms: list[float | None] = [None]

        def run(candidate: Candidate) -> Candidate:
            key = frozenset(candidate.formats.items())
            if key not in measured:
                candidate.measured_ms = self._measure(candidate, workload, repeats,
                                                      fast_bar_ms=best_ms[0])
                measured[key] = candidate
                if best_ms[0] is None or candidate.measured_ms < best_ms[0]:
                    best_ms[0] = candidate.measured_ms
            return measured[key]

        # Cheapest estimates first, so the fast bar is established early.
        to_measure.sort(key=lambda c: c.estimated_cost)
        best = min((run(c) for c in to_measure), key=lambda c: c.measured_ms)

        # Local search: swap one tensor's format at a time, guided by real
        # executions (estimate-gated).  Best-improvement steps: all of the
        # current optimum's neighbors are measured before moving, so one
        # noisy early win cannot steer the walk away from a better
        # neighborhood.  Stops at a measured local optimum.
        for _ in range(refine_steps):
            neighbors = []
            for name in menu:
                for kind in menu[name]:
                    if kind == best.formats[name]:
                        continue
                    assignment = dict(best.formats)
                    assignment[name] = kind
                    neighbor = candidate_for(assignment)
                    if neighbor.estimated_cost > cost_cap * best_estimate:
                        continue
                    neighbors.append(run(neighbor))
            step = min(neighbors, key=lambda c: c.measured_ms, default=None)
            if step is None or step.measured_ms >= best.measured_ms:
                break
            best = step

        measured_list = sorted(measured.values(), key=lambda c: c.measured_ms)
        rest = [c for c in by_key.values()
                if frozenset(c.formats.items()) not in measured]
        rest.sort(key=lambda c: c.estimated_cost)
        return measured_list + rest

    # -- the search ------------------------------------------------------------

    def advise(self, programs, *, weights: Sequence[float] | None = None,
               tensors: Iterable[str] | None = None, include_special: bool = True,
               measure: bool = False, top_k: int = 3, measure_repeats: int = 3,
               probe_families: bool = True, probe_cost_cap: float = 5000.0,
               refine_steps: int = 2) -> Recommendation:
        """Search storage configurations for ``programs``; return the ranking.

        Parameters
        ----------
        programs:
            The workload — anything :func:`as_workload` accepts.
        tensors:
            Restrict the search to these tensors (default: every catalog
            tensor referenced by the workload).
        include_special:
            Offer the Sec. 4 special formats where their structural
            preconditions hold.
        measure:
            Validate estimates with real executions on :attr:`backend` and
            rank by measured time: the ``top_k`` estimated-best
            configurations are measured, plus (``probe_families``) one
            uniform configuration per storage family, then ``refine_steps``
            rounds of measurement-driven single-swap local search.
            Candidates whose estimated cost exceeds ``probe_cost_cap`` times
            the best estimate are never executed.
        """
        workload = as_workload(programs, weights)
        catalog = self.session.catalog
        if tensors is None:
            referenced: set[str] = set()
            for query in workload:
                referenced |= _tensor_symbols(query.expr, catalog)
            tensors = sorted(referenced)
        else:
            tensors = sorted(tensors)
            missing = [name for name in tensors if name not in catalog.tensors]
            if missing:
                raise StorageError(f"cannot advise on unregistered tensor(s) {missing}")
        if not tensors:
            raise StorageError("the workload references no registered tensors")

        self._config_costs.clear()
        # Converted formats are cached across advise() calls, but only while
        # the catalog's contents stand still — any mutation invalidates them.
        if self._converted_version != catalog.version:
            self._converted.clear()
            self._converted_version = catalog.version
        menu = self._menu(tensors, include_special)
        current = {name: catalog.tensors[name].format_name for name in tensors}
        baseline_cost, baseline_per_query = self._score(current, workload)
        baseline = Candidate(dict(current), baseline_cost, baseline_per_query)

        # Stage 1: per-tensor independence — rank each tensor's menu alone.
        independent: dict[str, list[tuple[str, float]]] = {}
        for name in tensors:
            ranking = []
            for kind in menu[name]:
                assignment = dict(current)
                assignment[name] = kind
                cost, _ = self._score(assignment, workload)
                ranking.append((kind, cost))
            ranking.sort(key=lambda pair: pair[1])
            independent[name] = ranking
        independent_best = {name: ranking[0][0] for name, ranking in independent.items()}
        # Most cost-sensitive tensors first: their format choice moves the
        # workload cost the most, so the beam commits to them early.
        sensitivity = {name: ranking[-1][1] - ranking[0][1]
                       for name, ranking in independent.items()}
        ordered = sorted(tensors, key=lambda name: -sensitivity[name])

        # Stage 2: beam over interacting tensors.  A partial assignment is
        # completed with the independent bests, so every score is comparable.
        def completed(partial: dict[str, str]) -> dict[str, str]:
            assignment = dict(independent_best)
            assignment.update(partial)
            return assignment

        beam: list[dict[str, str]] = [{}]
        for name in ordered:
            extended: list[tuple[float, dict[str, str]]] = []
            options = [kind for kind, _ in independent[name][:self.per_tensor_top]]
            if current[name] not in options:
                options.append(current[name])
            for partial in beam:
                for kind in options:
                    trial = dict(partial)
                    trial[name] = kind
                    cost, _ = self._score(completed(trial), workload)
                    extended.append((cost, trial))
            extended.sort(key=lambda pair: pair[0])
            beam = [partial for _, partial in extended[:self.beam_width]]

        # Collect every complete configuration the search scored, best first.
        ranked_map: dict[frozenset, Candidate] = {}
        for key, (cost, per_query) in self._config_costs.items():
            formats = dict(key)
            ranked_map[key] = Candidate(formats, cost, per_query)
        ranked = sorted(ranked_map.values(), key=lambda c: c.estimated_cost)

        measured = False
        if measure:
            ranked = self._measured_ranking(
                ranked, workload, menu, top_k=max(1, top_k),
                repeats=measure_repeats, probe_families=probe_families,
                cost_cap=probe_cost_cap, refine_steps=max(0, refine_steps))
            measured = True

        return Recommendation(
            formats=dict(ranked[0].formats),
            baseline=baseline,
            ranked=ranked,
            candidates_per_tensor=menu,
            searched=len(self._config_costs),
            measured=measured,
        )
