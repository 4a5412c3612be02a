"""Rewrite rules over the e-graph.

Two kinds of rules exist, mirroring how the paper's optimizer is built on Egg
(Sec. 5.2–5.4):

* **Syntactic rules** — left-hand side and right-hand side are both patterns;
  every match of the LHS instantiates the RHS and unions the two classes.
  Optional *conditions* receive the e-graph and the substitution (used, e.g.,
  to consult the free-variable analysis).
* **Dynamic rules** — the right-hand side is a Python function of the
  e-graph and a concrete representative term of the matched e-node (built
  from the children's best terms); it returns a new term (or ``None`` to
  decline).  Dynamic rules implement the binder-crossing
  rewrites (loop factorization D2–D4, loop fusion F1–F4, let inlining), where
  index-shifted substitution cannot be expressed as a pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from ..sdqlite.ast import Expr, Var, children
from ..sdqlite.debruijn import to_debruijn
from .egraph import EGraph
from .language import Label, label_to_ast
from .pattern import Pattern, Subst

Condition = Callable[[EGraph, Subst], bool]
DynamicApplier = Callable[[EGraph, Expr], Expr | None]


@dataclass
class Rewrite:
    """A named rewrite rule ``lhs -> rhs`` (with optional side conditions)."""

    name: str
    searcher: Pattern
    applier: Pattern | None = None
    dynamic: DynamicApplier | None = None
    conditions: tuple[Condition, ...] = ()
    bidirectional: bool = False
    #: Per-rule override of the runner's ``match_limit_per_rule`` (and of the
    #: backoff scheduler's initial ban threshold).  Expansive rules — e.g.
    #: commutativity, whose match count grows with the whole graph — set a
    #: lower budget so they cannot starve the selective rules.
    match_limit: int | None = None

    def __post_init__(self) -> None:
        if (self.applier is None) == (self.dynamic is None):
            raise ValueError(f"rule {self.name}: exactly one of applier/dynamic is required")

    @property
    def root_label(self) -> Label | None:
        """Label the operator index is probed with (None: variable root)."""
        return self.searcher.root_label

    # -- construction helpers --------------------------------------------------

    @classmethod
    def syntactic(cls, name: str, lhs: str | Expr, rhs: str | Expr,
                  *conditions: Condition) -> "Rewrite":
        """A pattern-to-pattern rule."""
        return cls(name, Pattern(lhs), applier=Pattern(rhs), conditions=tuple(conditions))

    @classmethod
    def make_dynamic(cls, name: str, lhs: str | Expr, applier: DynamicApplier,
                     *conditions: Condition) -> "Rewrite":
        """A rule whose right-hand side is computed by a Python function."""
        return cls(name, Pattern(lhs), dynamic=applier, conditions=tuple(conditions))

    # -- application ------------------------------------------------------------

    def search(self, egraph: EGraph) -> list[tuple[int, Subst]]:
        return self.searcher.search(egraph)

    def search_iter(self, egraph: EGraph,
                    candidates: Iterable[int] | None = None, *,
                    use_index: bool = True) -> Iterator[tuple[int, Subst]]:
        """Lazily yield matches, optionally restricted to candidate classes."""
        return self.searcher.search_iter(egraph, candidates, use_index=use_index)

    def apply_match(self, egraph: EGraph, identifier: int, subst: Subst,
                    memo: dict | None = None, stats=None) -> bool:
        """Apply the rule to one match; returns True when the e-graph changed.

        ``memo`` (optional, per saturation run) records dynamic applications
        already performed.  Re-running a dynamic transform on the same e-node
        with the same representative term is a guaranteed no-op — the
        produced term is already in the graph and unioned — so the
        incremental runner passes a memo to skip the recomputation: one
        application per (rule, e-node, term) covers every match rooted at
        the class.  The key includes the representative term (as the
        children's best terms, which determine it): when a class's best term
        improves, the transform runs again, exactly as a full rescan would.

        ``stats`` (a :class:`~repro.egraph.runner.RuleStats`, optional)
        receives the ``declined`` / ``memo_hits`` counts.
        """
        for condition in self.conditions:
            if not condition(egraph, subst):
                if stats is not None:
                    stats.declined += 1
                return False
        find = egraph.find
        before = find(identifier)
        if self.applier is not None:
            new_id = self.applier.instantiate(egraph, subst)
            merged = egraph.union(before, new_id)
            changed = merged != before or find(new_id) != new_id
            if stats is not None and not changed:
                stats.declined += 1
            return changed
        # Dynamic rule: rebuild a concrete term for the matched node and let
        # the applier produce a transformed term.
        changed = False
        root_label = self.searcher.root.label
        best_term = egraph.best_term
        for enode in [node for node in egraph[before].nodes if node.label == root_label]:
            kids = [best_term(child) for child in enode.children]
            if memo is not None:
                key = (id(self), enode, tuple(kids))
                if key in memo:
                    if stats is not None:
                        stats.memo_hits += 1
                    continue
                memo[key] = True
            matched_term = label_to_ast(enode.label, kids)
            produced = self.dynamic(egraph, matched_term)
            if produced is not None:
                if _mentions_variable(produced, egraph):
                    produced = to_debruijn(produced)
                new_id = egraph.add_expr(produced)
                if find(new_id) != find(identifier):
                    egraph.union(identifier, new_id)
                    changed = True
                    continue
            if stats is not None:
                stats.declined += 1
        return changed

    def __repr__(self) -> str:
        return f"Rewrite({self.name})"


def _mentions_variable(term: Expr, egraph: EGraph) -> bool:
    """True when a named variable occurs in ``term`` outside the subterms the
    e-graph handed out (those are nameless, see :meth:`EGraph.has_term`)."""
    stack = [term]
    while stack:
        node = stack.pop()
        if egraph.has_term(node):
            continue
        if type(node) is Var:
            return True
        stack.extend(children(node))
    return False


def bidirectional(name: str, lhs: str | Expr, rhs: str | Expr,
                  *conditions: Condition) -> list[Rewrite]:
    """The two rules ``lhs -> rhs`` and ``rhs -> lhs`` (paper notation ``<->``)."""
    return [
        Rewrite.syntactic(f"{name}", lhs, rhs, *conditions),
        Rewrite.syntactic(f"{name}-rev", rhs, lhs, *conditions),
    ]


# -- common side conditions ------------------------------------------------


def var_independent_of(variable: str, *indices: int) -> Condition:
    """Condition: the class bound to ``variable`` does not depend on the given indices.

    This is how the paper's "``k, v`` not free in ``e``" side conditions are
    checked: the e-graph's free-variable analysis gives, per class, the
    indices its value can depend on.
    """

    def check(egraph: EGraph, subst: Subst) -> bool:
        free = egraph.free_vars(subst[variable])
        return all(index not in free for index in indices)

    return check


def vars_distinct(first: str, second: str) -> Condition:
    """Condition: two pattern variables are bound to different e-classes."""

    def check(egraph: EGraph, subst: Subst) -> bool:
        return egraph.find(subst[first]) != egraph.find(subst[second])

    return check
