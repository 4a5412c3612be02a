"""SDQLite: the declarative tensor calculus used by STOREL.

Public surface:

* AST node classes and helpers (:mod:`repro.sdqlite.ast`),
* :func:`parse_expr` / :func:`parse_program` — text to AST,
* :func:`pretty` — AST to text,
* :data:`FRONT_END` / :func:`front_end` — the memoized text → (AST, query,
  literal vector) front end, and :func:`lift_literals` behind it,
* :func:`to_debruijn` / :func:`to_named` — nameless conversion,
* :func:`evaluate` — the reference interpreter,
* runtime value helpers (:mod:`repro.sdqlite.values`).
"""

from .ast import (
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
    children,
    node_count,
    rebuild,
    symbols,
)
from .debruijn import (
    free_indices,
    shift,
    substitute,
    to_debruijn,
    to_named,
)
from .errors import (
    EvaluationError,
    ExecutionError,
    OptimizationError,
    ParseError,
    ScopeError,
    SDQLiteError,
    StorageError,
)
from .frontend import FRONT_END, FrontEnd, FrontEndMemo, Query, front_end
from .interpreter import Environment, evaluate
from .literals import lift_literals, literal_bindings, substitute_literals
from .parser import (
    ArrayDecl,
    HashMapDecl,
    ScalarDecl,
    TensorDecl,
    TrieDecl,
    parse_expr,
    parse_program,
)
from .pretty import pretty, to_source
from .values import SemiringDict, to_plain, values_equal

__all__ = [
    "Add", "And", "Cmp", "Const", "DictExpr", "Div", "Expr", "Get", "IfThen", "Idx",
    "Let", "Merge", "Mul", "Neg", "Not", "Or", "RangeExpr", "SliceGet", "Sub", "Sum",
    "Sym", "Var",
    "children", "node_count", "rebuild", "symbols",
    "free_indices", "shift", "substitute", "to_debruijn", "to_named",
    "EvaluationError", "ExecutionError", "OptimizationError", "ParseError",
    "ScopeError", "SDQLiteError", "StorageError",
    "Environment", "evaluate",
    "FRONT_END", "FrontEnd", "FrontEndMemo", "Query", "front_end",
    "lift_literals", "literal_bindings", "substitute_literals",
    "ArrayDecl", "HashMapDecl", "ScalarDecl", "TensorDecl", "TrieDecl",
    "parse_expr", "parse_program",
    "pretty", "to_source",
    "SemiringDict", "to_plain", "values_equal",
]
