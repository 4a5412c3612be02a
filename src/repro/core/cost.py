"""The cost model (Fig. 6 of the paper), cardinality estimation (Fig. 5) and
cost-based extraction.

Costs are estimated from cardinalities (Fig. 5) plus γ parameters that depend
on the *collection kind* being accessed: iterating or probing a dense array
is cheaper than a hash-map, materializing a dictionary costs more than
binding a scalar, and a **logical** dictionary — one the optimizer has not
yet annotated ``@dense`` or ``@hash`` — costs ∞, which forces the extraction
step to choose a physical representation (Sec. 5.6).

Every formula lives in one per-node rule, :meth:`CostModel.node_info`: the
cost, cardinality and collection kind of a node given its children's, with
the runtime observation overlay applied.  :meth:`CostModel.child_env` gives
the binder environment a child is costed under.  Three walks drive that rule:

* :meth:`CostModel.analyze` / :meth:`CostModel.plan_cost` — over a concrete
  SDQLite term,
* :meth:`CostModel.extract` — cost-based extraction of the cheapest term
  represented in an e-graph (the paper's Egg extraction, but implemented
  top-down so the environment-dependent cardinalities of bound variables can
  be tracked),
* :func:`estimate` — the cardinality alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from ..sdqlite.ast import Add, Const, Expr, Mul, RangeExpr, Sub, Sym, Var, children
from ..sdqlite.errors import OptimizationError
from ..egraph.egraph import EGraph
from ..egraph.language import ast_to_label, label_to_ast
from .cardinality import Card
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


class CostInfo(NamedTuple):
    """The result of costing one (sub)expression (a named tuple: one is
    built per costed node)."""

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
_SCALAR_BINDING: Binding = (Card.scalar(), K_SCALAR)
_SCALAR_INFO = CostInfo(_LEAF_COST, Card.scalar(), K_SCALAR)

#: Collection kind of a dictionary constructor, by its annotation; an
#: unannotated one is logical.
_DICT_KINDS = {"dense": K_DENSE, "hash": K_HASH}

#: Constant folding of range bounds, per arithmetic node type.
_EXTENT_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


class CostModel:
    """Estimates the cost of SDQLite plans and extracts cheapest plans from e-graphs."""

    def __init__(self, stats: Statistics, *, require_physical: bool = False,
                 gamma: Gamma | None = None):
        self.stats = stats
        self.require_physical = require_physical
        self.gamma = gamma or Gamma()
        #: Runtime feedback (``Statistics.observations``, updated in place);
        #: a truthiness test keeps the no-observations path free.
        self._observations = getattr(stats, "observations", None)
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
        """Cost, cardinality, and collection kind of ``expr``."""
        key = (expr, env)
        info = self._analyses.get(key)
        if info is None:
            if type(expr) is Var:
                info = _SCALAR_INFO
            else:
                head = ast_to_label(expr)[0]
                infos: list[CostInfo] = []
                for index, child in enumerate(children(expr)):
                    infos.append(self.analyze(child, self.child_env(head, index, infos, env)))
                info = self.node_info(head, expr, infos, env)
            self._analyses[key] = info
        return info

    # ------------------------------------------------------------------
    # The per-node rule (Fig. 5 cardinalities, Fig. 6 costs)
    # ------------------------------------------------------------------

    @staticmethod
    def child_env(head: str, index: int, earlier: Sequence[CostInfo], env: Env) -> Env:
        """The environment child ``index`` of a ``head`` node is costed under.

        ``earlier`` holds the infos of the children before it: ``sum`` binds
        a scalar key and a value of its source's element cardinality, ``let``
        its value, ``merge`` three scalars (both keys and the shared value).
        """
        if index == 1 and head == "sum":
            elem = earlier[0].card.elem()
            return env + (_SCALAR_BINDING, (elem, _element_kind(earlier[0].kind, elem)))
        if index == 1 and head == "let":
            return env + ((earlier[0].card, earlier[0].kind),)
        if index == 2 and head == "merge":
            return env + (_SCALAR_BINDING,) * 3
        return env

    def node_info(self, head: str, expr: Expr, child_infos: Sequence[CostInfo],
                  env: Env) -> CostInfo:
        """Cost, cardinality and kind of the ``head`` node ``expr``, given
        the infos of its children (each under :meth:`child_env`).

        When the statistics carry runtime observations (adaptive feedback),
        an observed cardinality for this exact closed sub-expression replaces
        the estimated one — the node's own cost formula is unchanged, but
        every enclosing loop now multiplies by the *measured* size.
        """
        gamma = self.gamma
        stats = self.stats
        if head == "const":
            cost, card, kind = _LEAF_COST, Card.scalar(), K_SCALAR
        elif head == "sym":
            cost = _LEAF_COST
            card = stats.profile(expr.name) or Card.scalar()
            kind = self._symbol_kind(expr.name, card)
        elif head == "idx":
            cost = _LEAF_COST
            if expr.index < len(env):
                card, kind = env[-1 - expr.index]
            else:
                card, kind = Card.scalar(), K_SCALAR
        elif head in ("add", "sub", "mul", "div"):
            left, right = child_infos
            if head == "div" or (left.card.is_scalar and right.card.is_scalar):
                card = Card.scalar()
            elif left.card.is_scalar:
                card = right.card
            elif right.card.is_scalar:
                card = left.card
            elif head == "mul":
                # Intersection of keys: bounded by the smaller estimate.
                card = Card(min(left.card.size(), right.card.size()), left.card.elem())
            else:
                # Union of keys: bounded by the sum of the two estimates.
                card = Card(left.card.size() + right.card.size(), left.card.elem())
            kind = _combine_kinds(left, right, card)
            extra = 0.0
            if not card.is_scalar:
                # Element-wise dictionary arithmetic touches every key of the
                # larger operand.
                extra = max(left.card.size(), right.card.size())
            cost = left.cost + right.cost + _OP_COST + extra
        elif head == "neg":
            inner = child_infos[0]
            cost, card, kind = inner.cost + _OP_COST, inner.card, inner.kind
        elif head in ("cmp", "and", "or"):
            left, right = child_infos
            cost, card, kind = left.cost + right.cost + _OP_COST, Card.scalar(), K_SCALAR
        elif head == "not":
            cost, card, kind = child_infos[0].cost + _OP_COST, Card.scalar(), K_SCALAR
        elif head == "dict":
            key, value = child_infos
            kind = _DICT_KINDS.get(expr.annot, K_LOGICAL)
            insert = gamma.for_insert(kind)
            if kind == K_LOGICAL and self.require_physical:
                insert = INFINITY
            cost = key.cost + value.cost + insert
            card = Card(1.0, value.card)
        elif head == "get":
            target, key = child_infos
            card = target.card.elem()
            kind = _element_kind(target.kind, card)
            cost = target.cost + key.cost + gamma.for_lookup(target.kind)
        elif head == "range":
            lo, hi = child_infos
            cost = lo.cost + hi.cost + _OP_COST
            card = _extent_card(expr, stats)
            if card is None:
                card = Card(stats.default_dimension, Card.scalar())
            kind = K_RANGE
        elif head == "slice":
            target, lo, hi = child_infos
            cost = target.cost + lo.cost + hi.cost + _OP_COST
            card = _extent_card(expr, stats)
            if card is None:
                segment = (stats.segment(expr.target.name) if type(expr.target) is Sym
                           else stats.default_segment)
                card = Card(segment, Card.scalar())
            kind = K_ARRAY
        elif head == "if":
            cond, then = child_infos
            card = then.card if then.card.is_scalar else then.card.scale(stats.selectivity)
            cost = cond.cost + stats.selectivity * then.cost
            kind = then.kind
        elif head == "let":
            value, body = child_infos
            materialize = (gamma.materialize_scalar if value.card.is_scalar
                           else gamma.materialize_dict)
            cost, card, kind = materialize * value.cost + body.cost, body.card, body.kind
        elif head == "sum":
            source, body = child_infos
            iterate = gamma.for_iterate(source.kind)
            if type(expr.source) is Sym and expr.source.name in stats.segmentation:
                iterate = min(iterate, self._segmented_iterate(expr.source.name))
            cost = source.cost + iterate * source.card.size() * body.cost
            card = (Card.scalar() if body.card.is_scalar
                    else Card(source.card.size() * body.card.size(), body.card.elem()))
            kind = body.kind
        elif head == "merge":
            left, right, body = child_infos
            iterate = (gamma.for_iterate(left.kind) * left.card.size()
                       + gamma.for_iterate(right.kind) * right.card.size())
            cost = left.cost + right.cost + iterate * body.cost
            matches = min(left.card.size(), right.card.size())
            card = (Card.scalar() if body.card.is_scalar
                    else Card(matches * body.card.size(), body.card.elem()))
            kind = body.kind
        else:
            raise OptimizationError(f"cannot cost expression node {head!r}")
        observations = self._observations
        if observations:
            # Only closed expressions are ever recorded (see
            # repro.execution.profile), so a hit is context-independent.
            observed = observations.get(expr)
            if observed is not None:
                card = observed
        return CostInfo(cost, card, kind)

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

    def _segmented_iterate(self, name: str) -> float:
        """γ of a full traversal of the segmented array ``name``: that of the
        nest it replaces (:func:`~repro.core.strategies.collapse_segments`),
        a loop over the segments' parents around a loop over one slice."""
        parents = self.stats.segmentation[name].parents
        outer = K_RANGE if type(parents) is RangeExpr else K_ARRAY
        return self.gamma.for_iterate(outer) * self.gamma.for_iterate(K_ARRAY)

    def _symbol_kind(self, name: str, card: Card) -> str:
        if card.is_scalar:
            return K_SCALAR
        kind = self.stats.kind(name)
        return kind if kind in (K_ARRAY, K_HASH, K_TRIE, K_SCALAR) else K_HASH


def estimate(expr: Expr, stats, env: Sequence[Card] = ()) -> Card:
    """The Fig. 5 cardinality of ``expr``.

    ``env`` is the stack of cardinalities of bound variables (innermost
    last), used for De Bruijn indices; collection kinds do not affect a
    cardinality.  A fresh model per call, because models memoize and
    feedback ingestion calls ``stats.observe`` between estimates.
    """
    bindings = tuple((card, K_HASH) for card in env)
    return CostModel(stats).analyze(expr, bindings).card


# ----------------------------------------------------------------------
# kind and extent helpers
# ----------------------------------------------------------------------


def _element_kind(container_kind: str, element_card: Card) -> str:
    if element_card.is_scalar:
        return K_SCALAR
    if container_kind in (K_TRIE, K_HASH):
        return K_HASH
    return container_kind


def _combine_kinds(left: CostInfo, right: CostInfo, card: Card) -> str:
    if card.is_scalar:
        return K_SCALAR
    for candidate in (left, right):
        if not candidate.card.is_scalar:
            return candidate.kind
    return K_HASH


def _scalar_extent(expr: Expr, stats) -> float | None:
    """The numeric value of a scalar expression when statically known."""
    cls = type(expr)
    if cls is Const:
        return float(expr.value)
    if cls is Sym:
        return stats.scalar_value(expr.name)
    combine = _EXTENT_OPS.get(cls)
    if combine is not None:
        left = _scalar_extent(expr.left, stats)
        right = _scalar_extent(expr.right, stats)
        if left is not None and right is not None:
            return combine(left, right)
    return None


def _extent_card(expr: Expr, stats) -> Card | None:
    """``hi - lo`` keys for a range or slice whose bounds are known."""
    lo = _scalar_extent(expr.lo, stats)
    hi = _scalar_extent(expr.hi, stats)
    if lo is None or hi is None:
        return None
    return Card(max(hi - lo, 0.0), Card.scalar())


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
        if head == "idx" and enode.label[1] >= len(env):
            # A class unions terms that are equal wherever all of them are in
            # scope: ``if (%3 == %3) then c0`` joins the class of ``c0``
            # (rule eq-refl), which is also used at the top level.  A node
            # naming a variable this context does not bind is no plan here.
            return None
        model = self.model
        child_infos: list[CostInfo] = []
        child_exprs: list[Expr] = []
        for index, child in enumerate(enode.children):
            result = self.best(child, model.child_env(head, index, child_infos, env))
            if result is None:
                return None
            child_infos.append(result[0])
            child_exprs.append(result[1])
        expr = label_to_ast(enode.label, child_exprs)
        return model.node_info(head, expr, child_infos, env), expr
