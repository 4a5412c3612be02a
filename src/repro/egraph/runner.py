"""The equality-saturation runner.

Repeatedly applies a collection of rewrite rules to the e-graph until either
no rule changes the graph anymore (*saturation*) or a limit is hit (number of
iterations, number of e-nodes, wall-clock time) — the loop Egg runs for the
paper's optimizer.  The report exposes the metrics of Table 4 (iterations,
e-nodes, e-classes, memo size, elapsed time) plus per-iteration and per-rule
search/apply timing.

Three things keep the loop cheap:

* rules probe the e-graph's operator index and only visit classes that
  contain a node with the pattern's root label;
* after the first iteration a rule re-matches only against classes dirtied
  since it last ran (plus their ancestor closure, where new matches can be
  rooted);  matches are produced by a generator and collection stops at the
  match budget instead of materializing everything first;
* an egg-style backoff scheduler bans rules whose match counts explode: the
  offending iteration still applies up to the budget, then the rule sits
  out a geometrically growing number of iterations while its threshold
  doubles.

An iteration in which at least one rule was banned never reports
``saturated``: the loop keeps going until the banned rules have been given a
final chance (or another limit fires).

The wall-clock limit is a deadline, not an end-of-iteration check: it is
read before every rule's search and before every match application, so one
iteration over an exploding graph overruns it by at most one rule's search
or one application.  The interrupted iteration still ends with a rebuild —
the graph a caller extracts from is always congruent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Iterable, Sequence

from .egraph import EGraph
from .rewrite import Rewrite


@dataclass
class RuleStats:
    """Cumulative per-rule counters over a whole saturation run."""

    name: str
    matches: int = 0
    applied: int = 0
    search_ms: float = 0.0
    apply_ms: float = 0.0
    bans: int = 0
    #: Applications that left the graph as it was: a side condition failed,
    #: the transform returned ``None``, or what it produced was already in
    #: the matched class.
    declined: int = 0
    #: Dynamic applications skipped because the same (e-node, representative
    #: term) was transformed before in this run.
    memo_hits: int = 0
    #: E-nodes this rule's applications added (before the rebuild merges
    #: congruent ones).
    new_nodes: int = 0

    def as_row(self) -> dict:
        return {
            "rule": self.name, "matches": self.matches, "applied": self.applied,
            "search_ms": round(self.search_ms, 3), "apply_ms": round(self.apply_ms, 3),
            "bans": self.bans,
        }


@dataclass
class IterationStats:
    """Statistics of a single saturation iteration."""

    index: int
    matches: int
    applied: int
    nodes: int
    classes: int
    search_ms: float = 0.0
    apply_ms: float = 0.0
    rebuild_ms: float = 0.0
    banned: tuple[str, ...] = ()


@dataclass
class RunnerReport:
    """Outcome of one equality-saturation run (the Table 4 metrics)."""

    iterations: int = 0
    nodes: int = 0
    classes: int = 0
    memo: int = 0
    time_ms: float = 0.0
    stop_reason: str = "saturated"
    per_iteration: list[IterationStats] = field(default_factory=list)
    rule_stats: dict[str, RuleStats] = field(default_factory=dict)

    @property
    def total_matches(self) -> int:
        return sum(stats.matches for stats in self.per_iteration)

    def as_row(self) -> dict:
        return {
            "time_ms": round(self.time_ms, 3),
            "iterations": self.iterations,
            "nodes": self.nodes,
            "classes": self.classes,
            "memos": self.memo,
            "stop_reason": self.stop_reason,
        }


class BackoffScheduler:
    """Egg-style exponential backoff on rules whose match counts explode.

    Each rule starts with a match threshold (its own ``match_limit`` or the
    runner-wide budget).  When a search produces more matches than the
    threshold the rule is banned for ``ban_length`` iterations and both the
    threshold and the ban length double — rules with small, precise match
    sets run every iteration while expansive rules are throttled
    geometrically.
    """

    name = "backoff"

    def __init__(self, rules: Sequence[Rewrite], match_limit: int,
                 ban_length: int = 4):
        self._threshold = [rule.match_limit or match_limit for rule in rules]
        self._ban_length = [ban_length] * len(rules)
        self._banned_until = [0] * len(rules)

    def allow(self, rule_index: int, iteration: int) -> bool:
        return iteration >= self._banned_until[rule_index]

    def record(self, rule_index: int, iteration: int, matches: int) -> bool:
        if matches <= self._threshold[rule_index]:
            return False
        self._banned_until[rule_index] = iteration + 1 + self._ban_length[rule_index]
        self._threshold[rule_index] *= 2
        self._ban_length[rule_index] *= 2
        return True

    def threshold(self, rule_index: int) -> int:
        """Current ban threshold — the runner collects one match past it so
        repeated explosions keep triggering (doubled) bans."""
        return self._threshold[rule_index]


class Runner:
    """Drives rule application until saturation or a limit is reached."""

    def __init__(self, egraph: EGraph, rules: Sequence[Rewrite], *,
                 iter_limit: int = 30, node_limit: int = 50_000,
                 time_limit: float = 10.0, match_limit_per_rule: int = 2_000,
                 ban_length: int = 4):
        self.egraph = egraph
        self.rules = list(rules)
        self.iter_limit = iter_limit
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.match_limit_per_rule = match_limit_per_rule
        self.scheduler = BackoffScheduler(self.rules, match_limit_per_rule,
                                          ban_length=ban_length)

    # ------------------------------------------------------------------

    def _candidates(self, rule: Rewrite, pool: dict[int, None] | None):
        """Candidate root classes for one rule's search.

        ``pool`` is ``None`` on the first (full) iteration; afterwards it is
        the dirty-ancestor pool of this iteration.  The operator index cuts
        either set down to classes that contain the pattern's root label.
        """
        label = rule.root_label
        if label is None:
            # A variable root: every class (or every pooled one) is a candidate.
            return None if pool is None else sorted(pool)
        labelled = self.egraph.classes_with_label(label)
        if pool is not None:
            labelled = [identifier for identifier in labelled if identifier in pool]
        # Ascending class id = creation order = the order a full scan visits
        # classes in (``Pattern.search``), so extraction tie-breaks do not
        # depend on how the index happens to store a bucket.
        labelled.sort()
        return labelled

    def run(self) -> RunnerReport:
        report = RunnerReport()
        report.rule_stats = {rule.name: RuleStats(rule.name) for rule in self.rules}
        egraph = self.egraph
        scheduler = self.scheduler
        start = perf_counter()
        deadline = start + self.time_limit
        timed_out = False
        # Marks accumulated while the caller built the graph are irrelevant:
        # the first iteration searches everything.
        egraph.take_dirty()
        pool: dict[int, None] | None = None
        carry: list[int] = []
        # Dynamic-application memo: re-transforming an unchanged (rule, node,
        # term) is a guaranteed no-op.
        apply_memo: dict = {}
        # Dirty classes a banned rule missed while sitting out; replayed
        # into its candidate set when the ban expires.
        banned_backlog: dict[int, dict[int, None]] = {}
        for iteration in range(1, self.iter_limit + 1):
            if iteration > 1:
                # Classes dirtied during the previous iteration (apply phase
                # and rebuild), widened to their ancestors: only there can a
                # rule that already ran find a new match.
                pool = egraph.ancestors_closure(carry)
                carry = []
            matches_found = 0
            applied = 0
            changed = False
            banned_names: list[str] = []
            iter_search_ms = 0.0
            iter_apply_ms = 0.0
            for rule_index, rule in enumerate(self.rules):
                stats = report.rule_stats[rule.name]
                if perf_counter() >= deadline:
                    timed_out = True
                    break
                if not scheduler.allow(rule_index, iteration):
                    banned_names.append(rule.name)
                    if pool is not None:
                        banned_backlog.setdefault(rule_index, {}).update(pool)
                    continue
                # Pick up classes dirtied by earlier rules this iteration so
                # in-iteration cascades are not delayed to the next one.
                fresh = egraph.take_dirty()
                if fresh:
                    carry.extend(fresh)
                    if pool is not None:
                        egraph.ancestors_closure(fresh, visited=pool)
                limit = rule.match_limit or self.match_limit_per_rule
                rule_pool = pool
                backlog = banned_backlog.pop(rule_index, None)
                if backlog and pool is not None:
                    # The rule comes back from a ban: also re-match the
                    # classes that were dirtied while it sat out.
                    rule_pool = dict(backlog)
                    rule_pool.update(pool)
                t0 = perf_counter()
                candidates = self._candidates(rule, rule_pool)
                # Collect one match beyond the scheduler's current ban
                # threshold (which doubles per ban) so "hit the budget" and
                # "exploded past it" stay distinguishable and repeated
                # explosions keep triggering bans.
                cap = max(limit, scheduler.threshold(rule_index))
                matches = list(islice(rule.search_iter(egraph, candidates), cap + 1))
                t1 = perf_counter()
                if scheduler.record(rule_index, iteration, len(matches)):
                    stats.bans += 1
                    # The unapplied tail of this explosion lives in the
                    # candidate set just searched; remember it so the rule
                    # revisits those classes when the ban expires (they may
                    # never be re-dirtied otherwise).
                    backlog = banned_backlog.setdefault(rule_index, {})
                    if candidates is None:
                        backlog.update(
                            (eclass.identifier, None) for eclass in list(egraph.classes()))
                    else:
                        backlog.update(dict.fromkeys(candidates))
                # Matches *materialized* by the search: the collected budget,
                # not every match the graph holds.
                found = len(matches)
                matches_found += found
                nodes_before = egraph.num_nodes
                for identifier, subst in matches[:limit]:
                    if perf_counter() >= deadline:
                        timed_out = True
                        break
                    if rule.apply_match(egraph, identifier, subst, memo=apply_memo,
                                        stats=stats):
                        applied += 1
                        stats.applied += 1
                        changed = True
                stats.new_nodes += egraph.num_nodes - nodes_before
                t2 = perf_counter()
                stats.matches += found
                stats.search_ms += (t1 - t0) * 1_000.0
                stats.apply_ms += (t2 - t1) * 1_000.0
                iter_search_ms += (t1 - t0) * 1_000.0
                iter_apply_ms += (t2 - t1) * 1_000.0
            t3 = perf_counter()
            egraph.rebuild()
            rebuild_ms = (perf_counter() - t3) * 1_000.0
            carry.extend(egraph.take_dirty())
            report.iterations = iteration
            report.per_iteration.append(IterationStats(
                index=iteration,
                matches=matches_found,
                applied=applied,
                nodes=egraph.num_nodes,
                classes=egraph.num_classes,
                search_ms=round(iter_search_ms, 3),
                apply_ms=round(iter_apply_ms, 3),
                rebuild_ms=round(rebuild_ms, 3),
                banned=tuple(banned_names),
            ))
            if timed_out:
                # Cut short: ``changed`` says nothing about saturation.
                report.stop_reason = "time_limit"
                break
            if not changed and not banned_names:
                report.stop_reason = "saturated"
                break
            if egraph.num_nodes >= self.node_limit:
                report.stop_reason = "node_limit"
                break
            if perf_counter() >= deadline:
                report.stop_reason = "time_limit"
                break
        else:
            report.stop_reason = "iter_limit"
        report.nodes = egraph.num_nodes
        report.classes = egraph.num_classes
        report.memo = egraph.memo_size
        report.time_ms = (perf_counter() - start) * 1_000.0
        return report


def saturate(expr_class: int, egraph: EGraph, rules: Iterable[Rewrite],
             **limits) -> RunnerReport:
    """Convenience wrapper: run the rules on an already-populated e-graph."""
    runner = Runner(egraph, list(rules), **limits)
    return runner.run()
