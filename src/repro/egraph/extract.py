"""Environment-free extraction of concrete terms from the e-graph.

After saturation a term must be picked for an e-class ("extraction" in Egg
terminology).  This module holds the generic bottom-up machinery:

* :func:`extract_smallest` — the classic AST-size extractor,
* :class:`Extractor` — a worklist extractor parameterized by a cost
  function on e-nodes (cost of a node given its children's chosen costs).

Both serve tests and sanity checks.  The optimizer's cost-based extraction
is :meth:`repro.core.cost.CostModel.extract`: the paper's cost model
(Fig. 6) sizes a bound variable by what binds it, so it works top-down and
memoizes per (e-class, binder environment), costing each e-node with the
same per-node rule, :meth:`~repro.core.cost.CostModel.node_info`, that
prices a concrete plan.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Sequence

from ..sdqlite.ast import Expr
from ..sdqlite.errors import OptimizationError
from .egraph import EGraph
from .language import ENode, label_to_ast

#: Cost function signature: (enode, child costs) -> cost of choosing this node.
NodeCost = Callable[[ENode, Sequence[float]], float]


def ast_size_cost(enode: ENode, child_costs: Sequence[float]) -> float:
    """Cost = number of AST nodes."""
    return 1.0 + sum(child_costs)


class Extractor:
    """Bottom-up extraction with a pluggable per-node cost function.

    The solver is worklist-driven: when a class's best cost improves, only
    the e-nodes that have it as a child are re-evaluated (found through the
    class's parent edges) instead of sweeping the whole graph to a fixpoint.
    The cost function must be monotone in the child costs — cheaper children
    may never make a node more expensive — which every size/penalty-style
    cost satisfies.  Built terms are memoized per class.
    """

    def __init__(self, egraph: EGraph, cost_function: NodeCost = ast_size_cost):
        self.egraph = egraph
        self.cost_function = cost_function
        self._best: dict[int, tuple[float, ENode]] = {}
        self._built: dict[int, Expr] = {}
        self._solve()

    def _solve(self) -> None:
        egraph = self.egraph
        queue: deque[int] = deque()
        # Seed: evaluate every node once; nodes whose children have no cost
        # yet are revisited through the parent edges of those children.
        for eclass in list(egraph.classes()):
            for enode in eclass.nodes:
                cost = self._node_cost(enode)
                if cost is not None:
                    self._offer(eclass.identifier, cost, enode, queue)
        # Propagate improvements upwards.  Cyclic classes without an acyclic
        # member are simply never reached, which is exactly what we want.
        while queue:
            identifier = queue.popleft()
            for parent_node, parent_class in egraph[identifier].parents:
                cost = self._node_cost(parent_node)
                if cost is not None:
                    self._offer(parent_class, cost, parent_node, queue)

    def _offer(self, identifier: int, cost: float, enode: ENode,
               queue: deque[int]) -> None:
        identifier = self.egraph.find(identifier)
        current = self._best.get(identifier)
        if current is None or cost < current[0] - 1e-12:
            self._best[identifier] = (cost, enode)
            queue.append(identifier)

    def _node_cost(self, enode: ENode) -> float | None:
        child_costs = []
        for child in enode.children:
            best = self._best.get(self.egraph.find(child))
            if best is None:
                return None
            child_costs.append(best[0])
        cost = self.cost_function(enode, child_costs)
        return None if math.isinf(cost) else cost

    def cost_of(self, identifier: int) -> float:
        """The best cost found for the class of ``identifier``."""
        best = self._best.get(self.egraph.find(identifier))
        if best is None:
            return math.inf
        return best[0]

    def extract(self, identifier: int) -> Expr:
        """The best concrete term for the class of ``identifier``."""
        return self._build(self.egraph.find(identifier), set())

    def _build(self, identifier: int, on_stack: set[int]) -> Expr:
        identifier = self.egraph.find(identifier)
        cached = self._built.get(identifier)
        if cached is not None:
            return cached
        best = self._best.get(identifier)
        if best is None:
            raise OptimizationError("extraction failed: class has no finite-cost term")
        if identifier in on_stack:
            raise OptimizationError("extraction failed: cyclic best term")
        _, enode = best
        kids = [self._build(child, on_stack | {identifier}) for child in enode.children]
        expr = label_to_ast(enode.label, kids)
        self._built[identifier] = expr
        return expr


def extract_smallest(egraph: EGraph, identifier: int) -> Expr:
    """Extract the syntactically smallest term of an e-class."""
    return Extractor(egraph, ast_size_cost).extract(identifier)
