"""The e-graph: a congruence-closed union of equivalence classes of terms.

This is a from-scratch reimplementation of the data structure at the core of
the Egg equality-saturation framework (Willsey et al., POPL 2021) used by the
paper's optimizer (Sec. 5.3):

* a **hashcons** maps canonical e-nodes to their e-class,
* a **union-find** tracks which e-classes have been merged,
* **rebuild** restores congruence after unions (if ``f(a)`` and ``f(b)`` are
  both present and ``a == b`` then the two application nodes are merged),
* an **analysis** attaches semantic data to every class; here it is the set
  of free De Bruijn indices (used as side conditions by the rewrite rules),
* every class also keeps its smallest known concrete term
  (``best_term``), which dynamic rewrites use when they need to perform
  substitution at the term level.

Three auxiliary structures keep equality saturation fast (see
``docs/optimizer.md``):

* an **operator index** mapping e-node labels to the classes that contain a
  node with that label, so e-matching probes only plausible root classes
  instead of scanning every class for every rule.  The index is append-only;
  entries are resolved through the union-find (and lazily compacted) at probe
  time, so ``union`` needs no index maintenance.
* **dirty marks**: every class that gains nodes (a fresh insertion or a
  union) is recorded, and :meth:`take_dirty` hands the accumulated marks to
  the runner, which re-matches rules only against the dirty classes and their
  ancestors (:meth:`ancestors_closure`) — new matches can only be rooted
  there.
* maintained **node/class counters** making :attr:`num_nodes` /
  :attr:`num_classes` O(1) (the runner reads them every iteration).

``best_term`` is maintained *eagerly*: when a class is created its term is
assembled from its children's best terms in O(arity), so dynamic rewrites
never fall back to a whole-graph extraction.  ``eager_terms=False`` restores
the historical lazy behaviour (kept for the before/after benchmark).

A **term memo** maps every term inserted through :meth:`add_expr` to its
class and size.  Terms hash in O(1), so inserting a term costs one probe per
node the graph has *not* seen: the terms dynamic rewrites produce are a new
spine over the classes' own best terms, and only the spine is walked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..sdqlite.ast import Expr, node_count
from ..sdqlite.errors import OptimizationError
from .language import ENode, Label, ast_children, ast_to_label, label_binders, label_to_ast
from .unionfind import UnionFind


@dataclass
class EClass:
    """One equivalence class: its nodes, parents, analysis data and best term.

    ``parents`` holds ``[node, class_id]`` entries.  One entry per e-node is
    *shared* between all of the node's child classes (it is a mutable list,
    not a tuple): when a repair re-canonicalizes the node, every child's
    parents list observes the update, so a later repair of another child pops
    the node's **current** hashcons key instead of a stale historical form.
    """

    identifier: int
    nodes: list[ENode] = field(default_factory=list)
    parents: list[list] = field(default_factory=list)
    free_vars: frozenset[int] = frozenset()
    best_term: Expr | None = None
    best_size: int = 1 << 30


class EGraph:
    """An e-graph over SDQLite expressions in De Bruijn form."""

    def __init__(self, *, eager_terms: bool = True) -> None:
        self._union_find = UnionFind()
        # Hot-path binding: ``find`` is called millions of times per
        # saturation; skipping the delegating method call is measurable.
        self.find = self._union_find.find
        self._classes: dict[int, EClass] = {}
        self._hashcons: dict[ENode, int] = {}
        #: term -> (class id at insertion, term size); ids resolve through
        #: the union-find, which keeps an entry valid across unions.
        self._terms: dict[Expr, tuple[int, int]] = {}
        self._pending: list[int] = []
        self._label_index: dict[Label, dict[int, None]] = {}
        self._dirty: dict[int, None] = {}
        self._num_nodes = 0
        self._eager_terms = eager_terms
        self.unions_performed = 0
        #: Nesting rank per collection-valued global symbol (logical tensors,
        #: physical arrays / hash-maps / tries); symbols absent from the map
        #: are treated as scalars.  Populated by the optimizer from the
        #: catalog statistics; consumed by type-sensitive rule conditions
        #: (e.g. the dict-factor rules, which are only sound for scalar
        #: factors).
        self.symbol_ranks: dict[str, int] = {}

    # -- basic queries --------------------------------------------------------

    def classes(self) -> Iterator[EClass]:
        """Iterate over canonical e-classes."""
        return iter(self._classes.values())

    def __getitem__(self, identifier: int) -> EClass:
        return self._classes[self.find(identifier)]

    @property
    def num_classes(self) -> int:
        """Number of canonical classes — O(1), ``_classes`` only holds roots."""
        return len(self._classes)

    @property
    def num_nodes(self) -> int:
        """Total e-nodes over canonical classes — O(1) maintained counter."""
        return self._num_nodes

    @property
    def memo_size(self) -> int:
        """Size of the hashcons (the 'memo' reported in Table 4 of the paper)."""
        return len(self._hashcons)

    # -- operator index --------------------------------------------------------

    def classes_with_label(self, label: Label) -> list[int]:
        """Canonical ids of classes containing a node with ``label``.

        Entries are stored under the id the label was first seen in and
        resolved through the union-find here; when many entries have collapsed
        onto few classes the bucket is compacted in place.
        """
        bucket = self._label_index.get(label)
        if not bucket:
            return []
        find = self.find
        out: dict[int, None] = {}
        for identifier in bucket:
            out.setdefault(find(identifier), None)
        if len(out) * 2 < len(bucket):
            self._label_index[label] = dict.fromkeys(out)
        return list(out)

    # -- dirty tracking --------------------------------------------------------

    def take_dirty(self) -> list[int]:
        """Drain and return the classes dirtied since the previous drain.

        A class is dirty when it gained nodes: it was freshly created or it
        absorbed another class in a union.  Ids are canonicalized and
        deduplicated; dead ids resolve to their surviving root.
        """
        if not self._dirty:
            return []
        find = self.find
        out = list(dict.fromkeys(find(identifier) for identifier in self._dirty))
        self._dirty.clear()
        return out

    def ancestors_closure(self, identifiers: Iterable[int],
                          visited: dict[int, None] | None = None) -> dict[int, None]:
        """The given classes plus everything reachable via parent edges.

        A new e-matching match can only be rooted at a class whose subgraph
        changed; that is exactly the ancestor closure of the dirty classes.
        ``visited`` (updated in place and returned when given) prunes the
        walk at classes whose cones were already traversed, so repeated
        refreshes within one runner iteration stay linear.
        """
        find = self.find
        out: dict[int, None] = {} if visited is None else visited
        stack = [find(identifier) for identifier in identifiers]
        while stack:
            current = stack.pop()
            if current in out:
                continue
            out[current] = None
            eclass = self._classes.get(current)
            if eclass is None:
                continue
            for _, parent_class in eclass.parents:
                parent = find(parent_class)
                if parent not in out:
                    stack.append(parent)
        return out

    # -- insertion ------------------------------------------------------------

    def add_enode(self, enode: ENode) -> int:
        """Insert an e-node over existing classes; returns its class id."""
        return self._add_canonical(enode.canonicalize(self.find))

    def _add_canonical(self, enode: ENode) -> int:
        """:meth:`add_enode` for a node whose children are canonical ids."""
        known = self._hashcons.get(enode)
        if known is not None:
            return self.find(known)
        identifier = self._union_find.make_set()
        eclass = EClass(identifier)
        eclass.nodes.append(enode)
        eclass.free_vars = self._make_free_vars(enode)
        if self._eager_terms:
            # Assemble the best term bottom-up from the children's best terms:
            # O(arity) instead of a whole-graph extraction on first use.
            size = 1
            kids: list[Expr] = []
            for child in enode.children:
                child_class = self._classes[self.find(child)]
                kids.append(child_class.best_term)
                size += child_class.best_size
            eclass.best_term = label_to_ast(enode.label, kids)
            eclass.best_size = size
        self._classes[identifier] = eclass
        self._hashcons[enode] = identifier
        self._label_index.setdefault(enode.label, {})[identifier] = None
        self._dirty[identifier] = None
        self._num_nodes += 1
        if enode.children:
            entry = [enode, identifier]
            for child in dict.fromkeys(enode.children):
                self._classes[self.find(child)].parents.append(entry)
        return identifier

    def add_expr(self, expr: Expr) -> int:
        """Insert a whole AST (in De Bruijn form); returns its e-class id."""
        return self._add_expr_sized(expr)[0]

    def _add_expr_sized(self, expr: Expr) -> tuple[int, int]:
        """Recursive insertion carrying the subtree size bottom-up, so each
        level's best-term offer is O(arity) instead of an O(subtree)
        ``node_count`` recomputation (O(n²) over the whole insertion).

        A term seen before is its class: re-inserting it leaf by leaf would
        find every node in the hashcons and offer a term the class already
        holds, so the descent stops there.
        """
        known = self._terms.get(expr)
        if known is not None:
            return self.find(known[0]), known[1]
        size = 1
        kids = []
        for child in ast_children(expr):
            child_id, child_size = self._add_expr_sized(child)
            kids.append(child_id)
            size += child_size
        identifier = self.add_enode(ENode(ast_to_label(expr), tuple(kids)))
        self._offer_term(identifier, expr, size)
        self._terms[expr] = (identifier, size)
        return identifier, size

    def has_term(self, expr: Expr) -> bool:
        """True when ``expr`` went through :meth:`add_expr` (so it is nameless
        and represented; a term only *reachable* in the graph may not be)."""
        return expr in self._terms

    def _offer_term(self, identifier: int, expr: Expr, size: int | None = None) -> None:
        identifier = self.find(identifier)
        eclass = self._classes[identifier]
        if size is None:
            size = node_count(expr)
        if size < eclass.best_size:
            eclass.best_size = size
            eclass.best_term = expr
            # A smaller representative term is observable state for dynamic
            # rewrites (they transform it), so the class counts as dirty.
            self._dirty[identifier] = None

    def best_term(self, identifier: int) -> Expr:
        """The smallest concrete term known for the class of ``identifier``."""
        eclass = self._classes[self.find(identifier)]
        if eclass.best_term is None:
            # Only reachable with ``eager_terms=False``: fall back to a
            # size-based extraction (classes created by instantiating pattern
            # templates have no offered term).
            from .extract import extract_smallest

            eclass.best_term = extract_smallest(self, identifier)
            eclass.best_size = node_count(eclass.best_term)
        return eclass.best_term

    # -- union / congruence ----------------------------------------------------

    def union(self, a: int, b: int) -> int:
        """Assert that two e-classes denote the same value; returns the merged id."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return root_a
        merged = self._union_find.union(root_a, root_b)
        other = root_b if merged == root_a else root_a
        winner = self._classes[merged]
        loser = self._classes[other]
        winner.nodes.extend(loser.nodes)
        winner.parents.extend(loser.parents)
        # Free-variable analysis: equal values depend on the intersection of
        # the variables their representations mention.
        winner.free_vars = winner.free_vars & loser.free_vars
        if loser.best_size < winner.best_size:
            winner.best_size = loser.best_size
            winner.best_term = loser.best_term
        del self._classes[other]
        self._pending.append(merged)
        self._dirty[merged] = None
        self.unions_performed += 1
        return merged

    def rebuild(self) -> None:
        """Restore the congruence invariant after a batch of unions.

        The worklist accumulated by :meth:`union` is processed in rounds;
        congruence unions discovered while repairing re-enter the worklist
        and are handled in the next round.
        """
        while self._pending:
            todo = dict.fromkeys(self.find(identifier) for identifier in self._pending)
            self._pending.clear()
            for identifier in todo:
                self._repair(identifier)

    def _repair(self, identifier: int) -> None:
        root = self.find(identifier)
        eclass = self._classes.get(root)
        if eclass is None:
            return
        # Re-canonicalize parents and merge congruent ones.  Entries are
        # shared with the other child classes; mutating them in place keeps
        # every list pointing at the node's current hashcons key.
        new_parents: dict[ENode, list] = {}
        for entry in eclass.parents:
            parent_node, parent_class = entry
            self._hashcons.pop(parent_node, None)
            canonical = parent_node.canonicalize(self.find)
            parent_class = self.find(parent_class)
            existing = new_parents.get(canonical)
            if existing is not None:
                self.union(parent_class, existing[1])
                parent_class = self.find(parent_class)
                existing[1] = parent_class
            else:
                new_parents[canonical] = entry
            entry[0] = canonical
            entry[1] = parent_class
            self._hashcons[canonical] = parent_class
            if self.find(root) != root:
                # The congruence union just merged this class away (it was
                # its own parent and lost union-by-size).  The survivor
                # absorbed all of these parent entries and is pending, so it
                # will be repaired in a later round — stop here rather than
                # keep mutating (and mis-counting nodes of) a dead class.
                return
        eclass.parents = list(new_parents.values())
        # Deduplicate the nodes of this class as well.
        seen: dict[ENode, None] = {}
        for node in eclass.nodes:
            seen.setdefault(node.canonicalize(self.find), None)
        self._num_nodes -= len(eclass.nodes) - len(seen)
        eclass.nodes = list(seen.keys())

    # -- analyses --------------------------------------------------------------

    def _make_free_vars(self, enode: ENode) -> frozenset[int]:
        binders = label_binders(enode.label)
        if enode.head == "idx":
            return frozenset({enode.label[1]})
        out: set[int] = set()
        for position, child in enumerate(enode.children):
            bound = binders[position] if position < len(binders) else 0
            child_class = self._classes.get(self.find(child))
            child_free = child_class.free_vars if child_class else frozenset()
            out.update(index - bound for index in child_free if index >= bound)
        return frozenset(out)

    def free_vars(self, identifier: int) -> frozenset[int]:
        """Free De Bruijn indices the class's value can depend on."""
        return self._classes[self.find(identifier)].free_vars

    # -- convenience ------------------------------------------------------------

    def equivalent(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def contains_expr(self, expr: Expr) -> int | None:
        """Return the class id of ``expr`` if it is already represented, else None."""
        kids = []
        for child in ast_children(expr):
            child_id = self.contains_expr(child)
            if child_id is None:
                return None
            kids.append(child_id)
        enode = ENode(ast_to_label(expr), tuple(kids)).canonicalize(self.find)
        identifier = self._hashcons.get(enode)
        return self.find(identifier) if identifier is not None else None

    def sanity_check(self) -> None:
        """Verify hashcons / class / counter / index invariants (used by the tests)."""
        for enode, identifier in self._hashcons.items():
            canonical = enode.canonicalize(self.find)
            if canonical != enode:
                raise OptimizationError("hashcons contains a non-canonical node")
            if self.find(identifier) not in self._classes:
                raise OptimizationError("hashcons points to a dead class")
        for identifier, eclass in self._classes.items():
            if self.find(identifier) != identifier:
                raise OptimizationError("non-canonical class survived a union")
        recount = sum(len(eclass.nodes) for eclass in self._classes.values())
        if recount != self._num_nodes:
            raise OptimizationError(
                f"node counter drifted: counted {self._num_nodes}, found {recount}")
        for identifier, eclass in self._classes.items():
            for enode in eclass.nodes:
                bucket = self._label_index.get(enode.label, {})
                if not any(self.find(entry) == identifier for entry in bucket):
                    raise OptimizationError(
                        f"operator index is missing class {identifier} for {enode.label!r}")
