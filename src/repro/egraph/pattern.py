"""Pattern matching (e-matching) over the e-graph.

A pattern is an SDQLite expression template in De Bruijn form whose leaves
may be *pattern variables*.  Pattern variables are written as
:class:`~repro.sdqlite.ast.Var` nodes whose name starts with ``?`` (so
patterns can be built with the ordinary AST constructors, or parsed from
source text such as ``"?a * (?b + ?c)"``).

Matching a pattern against an e-class yields substitutions mapping pattern
variable names to e-class ids; a pattern can also be *instantiated* under a
substitution, adding the corresponding nodes to the e-graph.

:meth:`Pattern.search_iter` yields ``(class id, substitution)`` pairs lazily,
one root class at a time, so a caller with a match budget stops the search
early instead of materializing (and then truncating) every match, and it
accepts an explicit candidate-class list so the runner can probe only classes
the operator index and the dirty set nominate.

A pattern is compiled once into a short program over class *registers*
(register 0 holds the root class): ``bind`` enumerates the e-nodes of a
register's class that carry an operator label and loads their children into
fresh registers, ``check`` compares two registers (a repeated pattern
variable).  Matching backtracks over one register file and builds a
substitution dictionary only for a complete match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ..sdqlite.ast import Expr, Var, children
from ..sdqlite.errors import OptimizationError
from ..sdqlite.parser import parse_expr
from .egraph import EGraph
from .language import ENode, Label, ast_to_label, label_to_ast

Subst = dict[str, int]


@dataclass(frozen=True)
class PatternNode:
    """Internal compiled form: either a variable or an operator with children."""

    variable: str | None
    label: tuple | None
    children: tuple["PatternNode", ...]

    @property
    def is_variable(self) -> bool:
        return self.variable is not None


class Pattern:
    """A compiled pattern ready for e-matching and instantiation."""

    def __init__(self, template: Expr | str):
        if isinstance(template, str):
            template = parse_pattern(template)
        self.template = template
        self.root = _compile(template)
        self.variables = sorted(_collect_variables(self.root))
        self._program, self._bindings, self._registers = _assemble(self.root)

    @property
    def root_label(self) -> Label | None:
        """The operator label a matching class must contain, or ``None`` when
        the pattern root is a variable (every class is a candidate)."""
        return self.root.label

    def search_class(self, egraph: EGraph, identifier: int) -> list[Subst]:
        """All substitutions under which this pattern matches the given e-class."""
        return self._matcher(egraph)(egraph.find(identifier))

    def _matcher(self, egraph: EGraph):
        """``canonical root class -> [substitution, ...]`` over ``egraph``.

        Substitutions come in the order a depth-first walk finds them:
        e-nodes in class order, children left to right.  One matcher serves
        every root of a search (its register file is reused), so build it per
        search, not per class.
        """
        program = self._program
        bindings = self._bindings
        end = len(program)
        if not end:
            # A bare-variable pattern: every class matches itself.
            return lambda root: [{name: root for name, _ in bindings}]
        classes = egraph._classes
        find = egraph.find
        registers = [0] * self._registers
        matches: list[Subst] = []

        def run(pc: int) -> None:
            first, source, label, arity = program[pc]
            pc += 1
            if label is None:           # check: a pattern variable seen before
                if registers[first] != registers[source]:
                    return
                if pc == end:
                    matches.append({name: registers[reg] for name, reg in bindings})
                else:
                    run(pc)
                return
            for enode in classes[registers[source]].nodes:
                if enode[0] == label:
                    kids = enode[1]
                    if len(kids) == arity:
                        if arity:
                            registers[first:first + arity] = map(find, kids)
                        if pc == end:
                            matches.append({name: registers[reg]
                                            for name, reg in bindings})
                        else:
                            run(pc)

        def match_root(root: int) -> list[Subst]:
            nonlocal matches
            registers[0] = root
            run(0)
            found, matches = matches, []
            return found

        return match_root

    def search_iter(self, egraph: EGraph,
                    candidates: Iterable[int] | None = None) -> Iterator[tuple[int, Subst]]:
        """Lazily yield ``(class id, substitution)`` matches.

        ``candidates`` restricts the search to the given class ids (they are
        canonicalized and deduplicated here); ``None`` probes the e-graph's
        operator index for the pattern's root label — or scans every class
        when the root is a variable.
        """
        find = egraph.find
        if candidates is None:
            if self.root.label is not None:
                identifiers = egraph.classes_with_label(self.root.label)
            else:
                identifiers = [eclass.identifier for eclass in list(egraph.classes())]
        else:
            identifiers = list(dict.fromkeys(find(identifier) for identifier in candidates))
        match_root = self._matcher(egraph)
        for identifier in identifiers:
            canonical = find(identifier)
            for subst in match_root(canonical):
                yield canonical, subst

    def search(self, egraph: EGraph) -> list[tuple[int, Subst]]:
        """All (class id, substitution) pairs where the pattern matches.

        Scans every class (no index probe) — kept as the reference
        implementation; the runner uses :meth:`search_iter`.
        """
        match_root = self._matcher(egraph)
        return [(eclass.identifier, subst) for eclass in list(egraph.classes())
                for subst in match_root(eclass.identifier)]

    def instantiate(self, egraph: EGraph, subst: Mapping[str, int]) -> int:
        """Add this pattern to the e-graph with variables replaced per ``subst``."""
        return _instantiate(egraph, self.root, subst)

    def __repr__(self) -> str:
        return f"Pattern({self.template})"


#: Token-initial pattern-variable / De Bruijn markers.  A marker only counts
#: when it is *not* glued to the tail of an identifier or number, so symbol
#: text containing ``?`` or ``%`` mid-token is left alone (and rejected by the
#: tokenizer) instead of being silently rewritten.
_PVAR_RE = re.compile(r"(?<![A-Za-z0-9_])\?([A-Za-z_][A-Za-z0-9_]*)")
_IDX_RE = re.compile(r"(?<![A-Za-z0-9_])%(\d+)")


def parse_pattern(source: str) -> Expr:
    """Parse pattern source text; ``?x`` identifiers become pattern variables.

    The text is ordinary SDQLite except that identifiers may be prefixed with
    ``?``; bound variables must be written as De Bruijn indices ``%k`` — to
    keep patterns unambiguous no named binders are allowed.
    """
    # The SDQLite tokenizer has no '?' token, so encode pattern variables as a
    # reserved symbol prefix before parsing and decode afterwards.  Only
    # token-initial markers are encoded; any other use of '?' or '%' reaches
    # the tokenizer verbatim and raises a ParseError there.
    if "__pvar_" in source or "__idx_" in source:
        raise OptimizationError(
            "pattern source may not contain the reserved prefixes '__pvar_'/'__idx_'")
    encoded = _PVAR_RE.sub(r"__pvar_\1", source)
    encoded = _IDX_RE.sub(r"__idx_\1", encoded)
    expr = parse_expr(encoded)
    return _decode(expr)


def _decode(expr: Expr) -> Expr:
    from ..sdqlite.ast import Idx, Sym, rebuild

    if isinstance(expr, (Sym, Var)):
        name = expr.name
        if name.startswith("__pvar_"):
            return Var("?" + name[len("__pvar_"):])
        if name.startswith("__idx_"):
            return Idx(int(name[len("__idx_"):]))
        return expr
    kids = children(expr)
    if not kids:
        return expr
    return rebuild(expr, [_decode(child) for child in kids])


def _compile(template: Expr) -> PatternNode:
    if isinstance(template, Var):
        if not template.name.startswith("?"):
            raise OptimizationError(
                f"named variable {template.name!r} in a pattern; use ?names or %indices"
            )
        return PatternNode(template.name, None, ())
    # Binder *names* are ignored by labels, so templates may use sum(<k,v> ...)
    # syntax as long as bound occurrences are written as De Bruijn indices.
    label = ast_to_label(template)
    kids = tuple(_compile(child) for child in children(template))
    return PatternNode(None, label, kids)


def _collect_variables(node: PatternNode) -> set[str]:
    if node.is_variable:
        return {node.variable}
    out: set[str] = set()
    for child in node.children:
        out |= _collect_variables(child)
    return out


def _assemble(root: PatternNode) -> tuple[list[tuple], list[tuple[str, int]], int]:
    """Compile a pattern tree to ``(program, variable registers, register count)``.

    Instructions are ``(first, source, label, arity)``: with a label, *bind*
    — for each e-node of register ``source``'s class with that label and
    arity, load its children into registers ``first ..``; with ``label``
    ``None``, *check* that registers ``first`` and ``source`` hold the same
    class.  Instructions follow the pattern in pre-order, so matches come out
    in depth-first order.
    """
    program: list[tuple] = []
    bindings: dict[str, int] = {}
    count = 1

    def visit(node: PatternNode, register: int) -> None:
        nonlocal count
        if node.is_variable:
            seen = bindings.setdefault(node.variable, register)
            if seen != register:
                program.append((register, seen, None, 0))
            return
        first = count
        count += len(node.children)
        program.append((first, register, node.label, len(node.children)))
        for offset, child in enumerate(node.children):
            visit(child, first + offset)

    visit(root, 0)
    return program, list(bindings.items()), count


def _instantiate(egraph: EGraph, node: PatternNode, subst: Mapping[str, int]) -> int:
    if node.is_variable:
        try:
            return egraph.find(subst[node.variable])
        except KeyError as exc:
            raise OptimizationError(f"unbound pattern variable {node.variable}") from exc
    # Children come back canonical and nothing is unioned in between.
    kids = tuple([_instantiate(egraph, child, subst) for child in node.children])
    return egraph._add_canonical(ENode(node.label, kids))
