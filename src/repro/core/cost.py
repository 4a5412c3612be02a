"""The cost model (Fig. 6 of the paper) and cost-based extraction.

Costs are estimated from cardinalities (Fig. 5) plus γ parameters that depend
on the *collection kind* being accessed: iterating or probing a dense array
is cheaper than a hash-map, materializing a dictionary costs more than
binding a scalar, and a **logical** dictionary — one the optimizer has not
yet annotated ``@dense`` or ``@hash`` — costs ∞, which forces the extraction
step to choose a physical representation (Sec. 5.6).

Two entry points:

* :meth:`CostModel.plan_cost` — cost of a concrete SDQLite term,
* :meth:`CostModel.extract` — cost-based extraction of the cheapest term
  represented in an e-graph (the paper's Egg extraction, but implemented
  top-down so the environment-dependent cardinalities of bound variables can
  be tracked).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..sdqlite.ast import (
    Add,
    And,
    Cmp,
    Const,
    DictExpr,
    Div,
    Expr,
    Get,
    IfThen,
    Idx,
    Let,
    Merge,
    Mul,
    Neg,
    Not,
    Or,
    RangeExpr,
    SliceGet,
    Sub,
    Sum,
    Sym,
    Var,
)
from ..sdqlite.errors import OptimizationError
from ..egraph.egraph import EGraph
from ..egraph.language import label_to_ast
from .cardinality import Card, CardinalityEstimator
from .statistics import Statistics

INFINITY = math.inf

#: Collection kinds used by the cost model.
K_ARRAY = "array"
K_HASH = "hash"
K_TRIE = "trie"
K_RANGE = "range"
K_DENSE = "dense"
K_LOGICAL = "logical"
K_SCALAR = "scalar"


@dataclass(frozen=True)
class Gamma:
    """The γ parameters of Fig. 6, keyed by collection kind."""

    lookup: dict = field(default_factory=lambda: {
        K_ARRAY: 1.0, K_DENSE: 1.0, K_RANGE: 0.5, K_HASH: 3.0, K_TRIE: 3.0,
        # Looking up a dictionary that exists only as a logical expression
        # implies materializing it first: heavily penalized but finite, so the
        # logical cost model (stage 1) can still rank such plans.
        K_LOGICAL: 50.0, K_SCALAR: 10.0,
    })
    iterate: dict = field(default_factory=lambda: {
        K_ARRAY: 1.0, K_DENSE: 1.0, K_RANGE: 0.8, K_HASH: 2.5, K_TRIE: 2.5,
        K_LOGICAL: 4.0, K_SCALAR: 25.0,
    })
    insert: dict = field(default_factory=lambda: {
        K_DENSE: 1.0, K_ARRAY: 1.0, K_HASH: 4.0, K_TRIE: 4.0,
        K_LOGICAL: 2.0, K_RANGE: INFINITY, K_SCALAR: 1.0,
    })
    materialize_scalar: float = 1.0
    materialize_dict: float = 2.0

    def for_lookup(self, kind: str) -> float:
        return self.lookup.get(kind, 3.0)

    def for_iterate(self, kind: str) -> float:
        return self.iterate.get(kind, 2.5)

    def for_insert(self, kind: str) -> float:
        return self.insert.get(kind, 4.0)


@dataclass(frozen=True)
class CostInfo:
    """The result of costing one (sub)expression."""

    cost: float
    card: Card
    kind: str

    def __repr__(self) -> str:
        return f"CostInfo(cost={self.cost:.3g}, card={self.card!r}, kind={self.kind})"


#: Environment entry for one bound variable: its cardinality and collection kind.
Binding = tuple[Card, str]
Env = tuple[Binding, ...]

_LEAF_COST = 0.1
_OP_COST = 0.2


class CostModel:
    """Estimates the cost of SDQLite plans and extracts cheapest plans from e-graphs."""

    def __init__(self, stats: Statistics, *, require_physical: bool = False,
                 gamma: Gamma | None = None):
        self.stats = stats
        self.require_physical = require_physical
        self.gamma = gamma or Gamma()
        self._cards = CardinalityEstimator(stats)
        #: (expr, env) -> CostInfo, for the life of the model.  The
        #: statistics are read as a snapshot: build a new model after
        #: changing them (the optimizer builds its models per ``optimize``).
        self._analyses: dict[tuple, CostInfo] = {}

    # ------------------------------------------------------------------
    # Term-level costing
    # ------------------------------------------------------------------

    def plan_cost(self, expr: Expr, env: Env = ()) -> float:
        """The estimated cost of a concrete plan."""
        return self.analyze(expr, env).cost

    def analyze(self, expr: Expr, env: Env = ()) -> CostInfo:
        """Cost, cardinality, and collection kind of ``expr``.

        When the statistics carry runtime observations (adaptive feedback),
        an observed cardinality for this exact closed sub-expression replaces
        the estimated one — the node's own cost formula is unchanged, but
        every enclosing loop now multiplies by the *measured* size.
        """
        key = (expr, env)
        info = self._analyses.get(key)
        if info is not None:
            return info
        info = self._analyze(expr, env)
        observations = getattr(self.stats, "observations", None)
        if observations:
            observed = observations.get(expr)
            if observed is not None and observed is not info.card:
                info = CostInfo(info.cost, observed, info.kind)
        self._analyses[key] = info
        return info

    def _analyze(self, expr: Expr, env: Env = ()) -> CostInfo:
        if isinstance(expr, (Const,)):
            return CostInfo(_LEAF_COST, Card.scalar(), K_SCALAR)
        if isinstance(expr, Sym):
            card = self.stats.profile(expr.name) or Card.scalar()
            kind = self._symbol_kind(expr.name, card)
            return CostInfo(_LEAF_COST, card, kind)
        if isinstance(expr, Var):
            return CostInfo(_LEAF_COST, Card.scalar(), K_SCALAR)
        if isinstance(expr, Idx):
            if expr.index < len(env):
                card, kind = env[-1 - expr.index]
                return CostInfo(_LEAF_COST, card, kind)
            return CostInfo(_LEAF_COST, Card.scalar(), K_SCALAR)
        if isinstance(expr, (Neg, Not)):
            inner = self.analyze(expr.operand, env)
            return CostInfo(inner.cost + _OP_COST, inner.card, inner.kind)
        if isinstance(expr, (Cmp, And, Or)):
            left = self.analyze(expr.left, env)
            right = self.analyze(expr.right, env)
            return CostInfo(left.cost + right.cost + _OP_COST, Card.scalar(), K_SCALAR)
        if isinstance(expr, (Add, Sub, Mul, Div)):
            left = self.analyze(expr.left, env)
            right = self.analyze(expr.right, env)
            card = self._cards.estimate(expr, tuple(card for card, _ in env))
            kind = self._combine_kinds(left, right, card)
            extra = 0.0
            if not card.is_scalar:
                # Element-wise dictionary arithmetic touches every key of the
                # larger operand.
                extra = max(left.card.size(), right.card.size())
            return CostInfo(left.cost + right.cost + _OP_COST + extra, card, kind)
        if isinstance(expr, DictExpr):
            key = self.analyze(expr.key, env)
            value = self.analyze(expr.value, env)
            kind = self._dict_kind(expr)
            insert = self.gamma.for_insert(kind)
            if kind == K_LOGICAL and self.require_physical:
                insert = INFINITY
            cost = key.cost + value.cost + insert
            return CostInfo(cost, Card(1.0, value.card), kind)
        if isinstance(expr, Get):
            target = self.analyze(expr.target, env)
            key = self.analyze(expr.key, env)
            lookup = self.gamma.for_lookup(target.kind)
            card = target.card.elem()
            kind = self._element_kind(target.kind, card)
            return CostInfo(target.cost + key.cost + lookup, card, kind)
        if isinstance(expr, RangeExpr):
            lo = self.analyze(expr.lo, env)
            hi = self.analyze(expr.hi, env)
            card = self._cards.estimate(expr, tuple(card for card, _ in env))
            return CostInfo(lo.cost + hi.cost + _OP_COST, card, K_RANGE)
        if isinstance(expr, SliceGet):
            target = self.analyze(expr.target, env)
            lo = self.analyze(expr.lo, env)
            hi = self.analyze(expr.hi, env)
            card = self._cards.estimate(expr, tuple(card for card, _ in env))
            return CostInfo(target.cost + lo.cost + hi.cost + _OP_COST, card, K_ARRAY)
        if isinstance(expr, IfThen):
            cond = self.analyze(expr.cond, env)
            then = self.analyze(expr.then, env)
            card = then.card if then.card.is_scalar else then.card.scale(self.stats.selectivity)
            cost = cond.cost + self.stats.selectivity * then.cost
            return CostInfo(cost, card, then.kind)
        if isinstance(expr, Let):
            value = self.analyze(expr.value, env)
            gamma = (self.gamma.materialize_scalar if value.card.is_scalar
                     else self.gamma.materialize_dict)
            body = self.analyze(expr.body, env + ((value.card, value.kind),))
            return CostInfo(gamma * value.cost + body.cost, body.card, body.kind)
        if isinstance(expr, Sum):
            source = self.analyze(expr.source, env)
            body_env = env + ((Card.scalar(), K_SCALAR), (source.card.elem(),
                              self._element_kind(source.kind, source.card.elem())))
            body = self.analyze(expr.body, body_env)
            iterate = self.gamma.for_iterate(source.kind)
            cost = source.cost + iterate * source.card.size() * body.cost
            if body.card.is_scalar:
                card = Card.scalar()
            else:
                card = Card(source.card.size() * body.card.size(), body.card.elem())
            return CostInfo(cost, card, body.kind)
        if isinstance(expr, Merge):
            left = self.analyze(expr.left, env)
            right = self.analyze(expr.right, env)
            body_env = env + (
                (Card.scalar(), K_SCALAR),
                (Card.scalar(), K_SCALAR),
                (Card.scalar(), K_SCALAR),
            )
            body = self.analyze(expr.body, body_env)
            iterate = (self.gamma.for_iterate(left.kind) * left.card.size()
                       + self.gamma.for_iterate(right.kind) * right.card.size())
            cost = left.cost + right.cost + iterate * body.cost
            matches = min(left.card.size(), right.card.size())
            card = Card.scalar() if body.card.is_scalar else Card(
                matches * body.card.size(), body.card.elem())
            return CostInfo(cost, card, body.kind)
        raise OptimizationError(f"cannot cost expression node {type(expr).__name__}")

    # ------------------------------------------------------------------
    # E-graph extraction
    # ------------------------------------------------------------------

    def extract(self, egraph: EGraph, root: int) -> tuple[Expr, float]:
        """Extract the cheapest plan for ``root`` under this cost model."""
        extractor = _Extraction(self, egraph)
        result = extractor.best(root, ())
        if result is None:
            raise OptimizationError("no finite-cost plan could be extracted")
        info, expr = result
        return expr, info.cost

    # ------------------------------------------------------------------
    # kind helpers
    # ------------------------------------------------------------------

    def _symbol_kind(self, name: str, card: Card) -> str:
        kind = self.stats.kind(name)
        if card.is_scalar:
            return K_SCALAR
        if kind in (K_ARRAY, K_HASH, K_TRIE, K_SCALAR):
            return kind if kind != K_SCALAR else K_SCALAR
        return K_HASH

    @staticmethod
    def _element_kind(container_kind: str, element_card: Card) -> str:
        if element_card.is_scalar:
            return K_SCALAR
        if container_kind in (K_TRIE, K_HASH):
            return K_HASH
        return container_kind

    def _dict_kind(self, expr: DictExpr) -> str:
        if expr.annot == "dense":
            return K_DENSE
        if expr.annot == "hash":
            return K_HASH
        return K_LOGICAL

    @staticmethod
    def _combine_kinds(left: CostInfo, right: CostInfo, card: Card) -> str:
        if card.is_scalar:
            return K_SCALAR
        for candidate in (left, right):
            if not candidate.card.is_scalar:
                return candidate.kind
        return K_HASH


#: A class may appear at most this many times on one extraction path.  The
#: ``(class, env)`` stack guard below cannot terminate cycles that pass
#: through a *binder* (``let`` / ``sum`` / ``merge``): the environment grows
#: at every level, so the stack key never repeats and the recursion would be
#: unbounded (found by the differential fuzzer, :mod:`repro.fuzz`).  Pruning
#: a path that re-enters the same class this often only forgoes plans that
#: nest a class inside itself repeatedly — every term still extracted is a
#: member of its class, so correctness is unaffected.
_CLASS_REVISIT_LIMIT = 3

#: Absolute bound on the extraction path length (second safety net for the
#: same binder-cycle problem; generous — curated workloads stay far below).
#: Also keeps extracted plans shallow enough for the tree-walking backends:
#: the interpreter spends ~8 Python frames per nesting level, so this must
#: leave ample headroom under the default recursion limit regardless of how
#: deep the caller's own stack already is.
_MAX_EXTRACTION_DEPTH = 64


class _Extraction:
    """Top-down, memoized, environment-aware extraction from an e-graph."""

    def __init__(self, model: CostModel, egraph: EGraph):
        self.model = model
        self.egraph = egraph
        self.memo: dict[tuple[int, Env], Optional[tuple[CostInfo, Expr]]] = {}
        self.on_stack: set[tuple[int, Env]] = set()
        self._class_visits: dict[int, int] = {}
        self._prunes = 0  # bumped whenever a path is cut by a cycle / limit

    def best(self, identifier: int, env: Env) -> Optional[tuple[CostInfo, Expr]]:
        identifier = self.egraph.find(identifier)
        key = (identifier, env)
        if key in self.memo:
            return self.memo[key]
        if key in self.on_stack:
            self._prunes += 1
            return None  # cycle: no finite plan down this path
        if (len(self.on_stack) >= _MAX_EXTRACTION_DEPTH
                or self._class_visits.get(identifier, 0) >= _CLASS_REVISIT_LIMIT):
            self._prunes += 1
            return None
        self.on_stack.add(key)
        self._class_visits[identifier] = self._class_visits.get(identifier, 0) + 1
        prunes_before = self._prunes
        try:
            best: Optional[tuple[CostInfo, Expr]] = None
            for enode in self.egraph[identifier].nodes:
                candidate = self._node(enode, env)
                if candidate is None or not math.isfinite(candidate[0].cost):
                    continue
                if best is None or candidate[0].cost < best[0].cost:
                    best = candidate
        finally:
            self.on_stack.discard(key)
            self._class_visits[identifier] -= 1
        # A None computed while some path beneath was cut by a cycle or a
        # limit is only valid in *this* stack context — memoizing it would
        # poison extraction from contexts where the path is open (a real
        # "no finite-cost plan" failure mode found by the differential
        # fuzzer).  Successes are always safe to memoize.
        if best is not None or self._prunes == prunes_before:
            self.memo[key] = best
        return best

    def _node(self, enode, env: Env) -> Optional[tuple[CostInfo, Expr]]:
        head = enode.head
        model = self.model
        # Leaves and simple scalar operators reuse the term-level analyzer on
        # the reconstructed node once children are extracted.
        if head == "sum":
            source = self.best(enode.children[0], env)
            if source is None:
                return None
            source_info, source_expr = source
            body_env = env + (
                (Card.scalar(), K_SCALAR),
                (source_info.card.elem(),
                 CostModel._element_kind(source_info.kind, source_info.card.elem())),
            )
            body = self.best(enode.children[1], body_env)
            if body is None:
                return None
            body_info, body_expr = body
            expr = label_to_ast(enode.label, [source_expr, body_expr])
            iterate = model.gamma.for_iterate(source_info.kind)
            cost = source_info.cost + iterate * source_info.card.size() * body_info.cost
            card = (Card.scalar() if body_info.card.is_scalar
                    else Card(source_info.card.size() * body_info.card.size(),
                              body_info.card.elem()))
            return CostInfo(cost, card, body_info.kind), expr
        if head == "let":
            value = self.best(enode.children[0], env)
            if value is None:
                return None
            value_info, value_expr = value
            body = self.best(enode.children[1], env + ((value_info.card, value_info.kind),))
            if body is None:
                return None
            body_info, body_expr = body
            expr = label_to_ast(enode.label, [value_expr, body_expr])
            gamma = (model.gamma.materialize_scalar if value_info.card.is_scalar
                     else model.gamma.materialize_dict)
            cost = gamma * value_info.cost + body_info.cost
            return CostInfo(cost, body_info.card, body_info.kind), expr
        if head == "merge":
            left = self.best(enode.children[0], env)
            right = self.best(enode.children[1], env)
            if left is None or right is None:
                return None
            body_env = env + ((Card.scalar(), K_SCALAR),) * 3
            body = self.best(enode.children[2], body_env)
            if body is None:
                return None
            left_info, left_expr = left
            right_info, right_expr = right
            body_info, body_expr = body
            expr = label_to_ast(enode.label, [left_expr, right_expr, body_expr])
            iterate = (model.gamma.for_iterate(left_info.kind) * left_info.card.size()
                       + model.gamma.for_iterate(right_info.kind) * right_info.card.size())
            cost = left_info.cost + right_info.cost + iterate * body_info.cost
            matches = min(left_info.card.size(), right_info.card.size())
            card = (Card.scalar() if body_info.card.is_scalar
                    else Card(matches * body_info.card.size(), body_info.card.elem()))
            return CostInfo(cost, card, body_info.kind), expr
        # Non-binding operators: extract children under the same environment,
        # rebuild the node and delegate to the term-level analyzer for the
        # node-local cost so the two code paths cannot drift apart.
        child_results = []
        for child in enode.children:
            result = self.best(child, env)
            if result is None:
                return None
            child_results.append(result)
        child_exprs = [expr for _, expr in child_results]
        expr = label_to_ast(enode.label, child_exprs)
        info = self._nonbinding_info(enode, [info for info, _ in child_results], expr, env)
        return info, expr

    def _nonbinding_info(self, enode, child_infos, expr, env: Env) -> CostInfo:
        model = self.model
        head = enode.head
        if head in ("const", "sym", "idx"):
            return model.analyze(expr, env)
        if head in ("neg", "not"):
            inner = child_infos[0]
            return CostInfo(inner.cost + _OP_COST, inner.card, inner.kind)
        if head in ("cmp", "and", "or"):
            return CostInfo(sum(i.cost for i in child_infos) + _OP_COST,
                            Card.scalar(), K_SCALAR)
        if head in ("add", "sub", "mul", "div"):
            left, right = child_infos
            if left.card.is_scalar and right.card.is_scalar:
                card = Card.scalar()
            elif head == "mul" and (left.card.is_scalar or right.card.is_scalar):
                card = right.card if left.card.is_scalar else left.card
            elif head in ("add", "sub"):
                if left.card.is_scalar:
                    card = right.card
                elif right.card.is_scalar:
                    card = left.card
                else:
                    card = Card(left.card.size() + right.card.size(), left.card.elem())
            else:
                card = Card(min(left.card.size(), right.card.size()), left.card.elem())
            kind = CostModel._combine_kinds(left, right, card)
            extra = 0.0 if card.is_scalar else max(left.card.size(), right.card.size())
            return CostInfo(left.cost + right.cost + _OP_COST + extra, card, kind)
        if head == "dict":
            key, value = child_infos
            annot = enode.label[1]
            kind = K_DENSE if annot == "dense" else K_HASH if annot == "hash" else K_LOGICAL
            insert = model.gamma.for_insert(kind)
            if kind == K_LOGICAL and model.require_physical:
                insert = INFINITY
            return CostInfo(key.cost + value.cost + insert, Card(1.0, value.card), kind)
        if head == "get":
            target, key = child_infos
            lookup = model.gamma.for_lookup(target.kind)
            card = target.card.elem()
            kind = CostModel._element_kind(target.kind, card)
            return CostInfo(target.cost + key.cost + lookup, card, kind)
        if head == "range":
            return model.analyze(expr, env)
        if head == "slice":
            return model.analyze(expr, env)
        if head == "if":
            cond, then = child_infos
            card = then.card if then.card.is_scalar else then.card.scale(model.stats.selectivity)
            return CostInfo(cond.cost + model.stats.selectivity * then.cost, card, then.kind)
        raise OptimizationError(f"extraction cannot handle node head {head!r}")
