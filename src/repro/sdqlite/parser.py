"""Recursive-descent parser for SDQLite source text and its small DDL.

The expression grammar follows the paper's concrete syntax::

    sum(<(i,k,l), B_v> in B, <(k,j), C_v> in C, <(j,l), D_v> in D)
      { (i, j) -> B_v * C_v * D_v }

    sum (<row,_> in 0:C_len1)
      { @unique row ->
          sum(<off,col> in C_idx2( C_pos2(row):C_pos2(row+1) ))
            { @unique col -> C_val(off) } }

The DDL covers the ``CREATE`` statements of Sec. 4::

    CREATE int SCALAR M, N;
    CREATE real ARRAY V(M * N);
    CREATE real HASHMAP H(M, N);
    CREATE real TRIE T(M)(N);
    CREATE TENSOR C AS <sdqlite expression>;

:func:`parse_expr` returns a *named-form* AST where bound identifiers are
:class:`~repro.sdqlite.ast.Var` and everything else is
:class:`~repro.sdqlite.ast.Sym`.  :func:`parse_program` returns the list of
declarations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import desugar as sugar
from .ast import (
    Add,
    And,
    Cmp,
    Const,
    Div,
    Expr,
    Get,
    IfThen,
    Merge,
    Mul,
    Neg,
    Not,
    Or,
    RangeExpr,
    SliceGet,
    Sub,
    Sym,
    Var,
    children,
    rebuild,
)
from .errors import ParseError

# ---------------------------------------------------------------------------
# Declarations produced by the DDL
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarDecl:
    """``CREATE [real|int] SCALAR name``"""

    name: str
    dtype: str = "real"


@dataclass(frozen=True)
class ArrayDecl:
    """``CREATE [real|int] ARRAY name(size)``"""

    name: str
    size: Expr
    dtype: str = "real"


@dataclass(frozen=True)
class HashMapDecl:
    """``CREATE [real|int] HASHMAP name(n1, ..., nd)``"""

    name: str
    dims: tuple[Expr, ...]
    dtype: str = "real"


@dataclass(frozen=True)
class TrieDecl:
    """``CREATE [real|int] TRIE name(n1)(n2)...(nd)``"""

    name: str
    dims: tuple[Expr, ...]
    dtype: str = "real"


@dataclass(frozen=True)
class TensorDecl:
    """``CREATE TENSOR name AS expr`` — a Tensor Storage Mapping."""

    name: str
    mapping: Expr


Declaration = ScalarDecl | ArrayDecl | HashMapDecl | TrieDecl | TensorDecl


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*|//[^\n]*)
    | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>->|==|!=|<=|>=|&&|\|\||[-+*/%(){}<>,;:=@!_])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"sum", "let", "in", "if", "then", "merge", "true", "false"}
_DDL_KEYWORDS = {"create", "tensor", "array", "hashmap", "trie", "scalar", "as", "real", "int"}


@dataclass
class Token:
    kind: str  # 'number' | 'name' | 'op' | 'eof'
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, raising :class:`ParseError` on junk."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            column = pos - line_start + 1
            raise ParseError(f"unexpected character {source[pos]!r}", line, column)
        text = match.group(0)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(Token(kind, text, line, pos - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rfind("\n") + 1
        pos = match.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.position = 0
        self.gensym = sugar.Gensym()

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.position += 1
        return token

    def check(self, text: str) -> bool:
        return self.peek().text == text

    def check_name(self, *names: str) -> bool:
        token = self.peek()
        return token.kind == "name" and token.text.lower() in names

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token.text != text:
            raise ParseError(f"expected {text!r} but found {token.text!r}", token.line, token.column)
        return self.advance()

    def expect_name(self) -> str:
        token = self.peek()
        if token.kind != "name":
            raise ParseError(f"expected an identifier but found {token.text!r}", token.line, token.column)
        self.advance()
        return token.text

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    # -- program / DDL ------------------------------------------------------

    def parse_program(self) -> list[Declaration]:
        declarations: list[Declaration] = []
        while not self.at_end():
            if self.check_name("create"):
                declarations.append(self.parse_create())
            else:
                token = self.peek()
                raise ParseError(f"expected CREATE statement, found {token.text!r}", token.line, token.column)
            # Statements are separated by optional semicolons.
            while self.accept(";"):
                pass
        return declarations

    def parse_create(self) -> Declaration:
        self.advance()  # CREATE
        dtype = "real"
        if self.check_name("real", "int"):
            dtype = self.advance().text.lower()
        kind_token = self.peek()
        kind = kind_token.text.lower()
        if kind == "tensor":
            self.advance()
            name = self.expect_name()
            if not self.check_name("as"):
                raise ParseError("expected AS in CREATE TENSOR", self.peek().line, self.peek().column)
            self.advance()
            mapping = self.parse_expression()
            return TensorDecl(name, mapping)
        if kind == "scalar":
            self.advance()
            name = self.expect_name()
            # Multiple scalars may be declared at once; return the first and
            # push the rest back as separate declarations by re-entering.
            names = [name]
            while self.accept(","):
                names.append(self.expect_name())
            if len(names) == 1:
                return ScalarDecl(names[0], dtype)
            return _MultiScalarDecl([ScalarDecl(n, dtype) for n in names])
        if kind == "array":
            self.advance()
            name = self.expect_name()
            self.expect("(")
            size = self.parse_expression()
            self.expect(")")
            return ArrayDecl(name, size, dtype)
        if kind == "hashmap":
            self.advance()
            name = self.expect_name()
            self.expect("(")
            dims = [self.parse_expression()]
            while self.accept(","):
                dims.append(self.parse_expression())
            self.expect(")")
            return HashMapDecl(name, tuple(dims), dtype)
        if kind == "trie":
            self.advance()
            name = self.expect_name()
            dims = []
            while self.check("("):
                self.expect("(")
                dims.append(self.parse_expression())
                self.expect(")")
            if not dims:
                raise ParseError("TRIE requires at least one dimension", kind_token.line, kind_token.column)
            return TrieDecl(name, tuple(dims), dtype)
        raise ParseError(f"unknown CREATE kind {kind_token.text!r}", kind_token.line, kind_token.column)

    # -- expressions --------------------------------------------------------

    def parse_expression(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.check("||"):
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_cmp()
        while self.check("&&"):
            self.advance()
            left = And(left, self.parse_cmp())
        return left

    def parse_cmp(self) -> Expr:
        left = self.parse_range()
        token = self.peek()
        if token.text in ("==", "!=", "<=", ">=", "<", ">"):
            self.advance()
            right = self.parse_range()
            return Cmp(token.text, left, right)
        return left

    def parse_range(self) -> Expr:
        left = self.parse_add()
        if self.check(":"):
            self.advance()
            right = self.parse_add()
            return RangeExpr(left, right)
        return left

    def parse_add(self) -> Expr:
        left = self.parse_mul()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            right = self.parse_mul()
            left = Add(left, right) if op == "+" else Sub(left, right)
        return left

    def parse_mul(self) -> Expr:
        left = self.parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            right = self.parse_unary()
            left = Mul(left, right) if op == "*" else Div(left, right)
        return left

    def parse_unary(self) -> Expr:
        if self.accept("-"):
            return Neg(self.parse_unary())
        if self.accept("!"):
            return Not(self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_atom()
        while self.check("("):
            self.advance()
            if self.accept(")"):
                # e() — lookup with the empty (0-dimensional) key: identity.
                continue
            first = self.parse_expression()
            if isinstance(first, RangeExpr):
                expr = SliceGet(expr, first.lo, first.hi)
            else:
                expr = Get(expr, first)
            while self.accept(","):
                arg = self.parse_expression()
                if isinstance(arg, RangeExpr):
                    expr = SliceGet(expr, arg.lo, arg.hi)
                else:
                    expr = Get(expr, arg)
            self.expect(")")
        return expr

    def parse_atom(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            if any(ch in token.text for ch in ".eE") and not token.text.isdigit():
                return Const(float(token.text))
            return Const(int(token.text))
        if token.kind == "name":
            lowered = token.text.lower()
            if lowered == "sum":
                return self.parse_sum()
            if lowered == "let":
                return self.parse_let()
            if lowered == "if":
                return self.parse_if()
            if lowered == "merge":
                return self.parse_merge()
            if lowered == "true":
                self.advance()
                return Const(True)
            if lowered == "false":
                self.advance()
                return Const(False)
            self.advance()
            return Var(token.text)
        if token.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if token.text == "{":
            return self.parse_dict()
        raise ParseError(f"unexpected token {token.text!r}", token.line, token.column)

    # -- composite constructs ------------------------------------------------

    def parse_sum(self) -> Expr:
        self.advance()  # sum
        self.expect("(")
        bindings = [self.parse_binding()]
        while self.accept(","):
            bindings.append(self.parse_binding())
        self.expect(")")
        body = self.parse_expression()
        return sugar.desugar_sum(bindings, body, self.gensym)

    def parse_binding(self) -> sugar.Binding:
        self.expect("<")
        key_names: list[str]
        if self.accept("("):
            key_names = [self.parse_pattern_name()]
            while self.accept(","):
                key_names.append(self.parse_pattern_name())
            self.expect(")")
        else:
            key_names = [self.parse_pattern_name()]
        self.expect(",")
        val_name = self.parse_pattern_name()
        self.expect(">")
        if not self.check_name("in"):
            token = self.peek()
            raise ParseError(f"expected 'in' but found {token.text!r}", token.line, token.column)
        self.advance()
        source = self.parse_expression()
        return sugar.Binding(key_names, val_name, source)

    def parse_pattern_name(self) -> str:
        token = self.peek()
        if token.text == "_":
            self.advance()
            return "_"
        if token.kind != "name":
            raise ParseError(f"expected a variable name, found {token.text!r}", token.line, token.column)
        self.advance()
        return token.text

    def parse_let(self) -> Expr:
        self.advance()  # let
        bindings = [self.parse_let_binding()]
        while self.accept(","):
            bindings.append(self.parse_let_binding())
        if not self.check_name("in"):
            token = self.peek()
            raise ParseError(f"expected 'in' but found {token.text!r}", token.line, token.column)
        self.advance()
        body = self.parse_expression()
        return sugar.desugar_let(bindings, body)

    def parse_let_binding(self) -> sugar.LetBinding:
        name = self.expect_name()
        self.expect("=")
        value = self.parse_expression()
        return sugar.LetBinding(name, value)

    def parse_if(self) -> Expr:
        self.advance()  # if
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        if self.check_name("then"):
            self.advance()
        body = self.parse_expression()
        return IfThen(cond, body)

    def parse_merge(self) -> Expr:
        self.advance()  # merge
        self.expect("(")
        self.expect("<")
        key1 = self.parse_pattern_name()
        self.expect(",")
        key2 = self.parse_pattern_name()
        self.expect(",")
        val = self.parse_pattern_name()
        self.expect(">")
        if not self.check_name("in"):
            token = self.peek()
            raise ParseError(f"expected 'in' but found {token.text!r}", token.line, token.column)
        self.advance()
        self.expect("<")
        # The sources are parsed below the comparison level so that the
        # closing '>' of the pair is not mistaken for a greater-than operator.
        left = self.parse_range()
        self.expect(",")
        right = self.parse_range()
        self.expect(">")
        self.expect(")")
        body = self.parse_expression()
        return Merge(left, right, body, key1_name=key1, key2_name=key2, val_name=val)

    def parse_dict(self) -> Expr:
        self.expect("{")
        entries = [self.parse_dict_entry()]
        while self.accept(","):
            entries.append(self.parse_dict_entry())
        self.expect("}")
        return sugar.desugar_dict_literal(entries)

    def parse_dict_entry(self) -> sugar.DictEntry:
        unique = False
        annot: str | None = None
        while self.check("@"):
            self.advance()
            modifier = self.expect_name().lower()
            if modifier == "unique":
                unique = True
            elif modifier in ("dense", "hash"):
                annot = modifier
            else:
                token = self.peek()
                raise ParseError(f"unknown annotation @{modifier}", token.line, token.column)
        keys: list[Expr]
        if self.accept("("):
            if self.accept(")"):
                keys = []
            else:
                keys = [self.parse_expression()]
                while self.accept(","):
                    keys.append(self.parse_expression())
                self.expect(")")
        else:
            keys = [self.parse_expression()]
        self.expect("->")
        value = self.parse_expression()
        return sugar.DictEntry(keys, value, unique=unique, annot=annot)


class _MultiScalarDecl(list):
    """Internal: several scalars declared in one CREATE SCALAR statement."""

    def __init__(self, decls: list[ScalarDecl]):
        super().__init__(decls)


# ---------------------------------------------------------------------------
# Name resolution: bound identifiers stay Var, everything else becomes Sym
# ---------------------------------------------------------------------------


def resolve_globals(expr: Expr, bound: frozenset[str] = frozenset()) -> Expr:
    """Convert free :class:`Var` occurrences into :class:`Sym` globals."""
    from .ast import Let, Merge, Sum

    if isinstance(expr, Var):
        if expr.name in bound:
            return expr
        return Sym(expr.name)
    kids = children(expr)
    if not kids:
        return expr
    if isinstance(expr, Let):
        value = resolve_globals(expr.value, bound)
        body = resolve_globals(expr.body, bound | {expr.name} if expr.name else bound)
        return Let(value, body, name=expr.name)
    if isinstance(expr, Sum):
        source = resolve_globals(expr.source, bound)
        names = {n for n in (expr.key_name, expr.val_name) if n}
        body = resolve_globals(expr.body, bound | names)
        return Sum(source, body, key_name=expr.key_name, val_name=expr.val_name)
    if isinstance(expr, Merge):
        left = resolve_globals(expr.left, bound)
        right = resolve_globals(expr.right, bound)
        names = {n for n in (expr.key1_name, expr.key2_name, expr.val_name) if n}
        body = resolve_globals(expr.body, bound | names)
        return Merge(left, right, body, key1_name=expr.key1_name,
                     key2_name=expr.key2_name, val_name=expr.val_name)
    return rebuild(expr, [resolve_globals(child, bound) for child in kids])


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_expr(source: str) -> Expr:
    """Parse a single SDQLite expression into a named-form AST.

    Identifiers bound by ``sum`` / ``let`` / ``merge`` are variables; all other
    identifiers become global :class:`~repro.sdqlite.ast.Sym` references.
    """
    parser = _Parser(source)
    expr = parser.parse_expression()
    if not parser.at_end():
        token = parser.peek()
        raise ParseError(f"unexpected trailing input {token.text!r}", token.line, token.column)
    return resolve_globals(expr)


def parse_program(source: str) -> list[Declaration]:
    """Parse a sequence of ``CREATE`` statements into declarations."""
    parser = _Parser(source)
    raw = parser.parse_program()
    declarations: list[Declaration] = []
    for decl in raw:
        if isinstance(decl, _MultiScalarDecl):
            declarations.extend(decl)
        elif isinstance(decl, TensorDecl):
            declarations.append(TensorDecl(decl.name, resolve_globals(decl.mapping)))
        elif isinstance(decl, ArrayDecl):
            declarations.append(ArrayDecl(decl.name, resolve_globals(decl.size), decl.dtype))
        elif isinstance(decl, HashMapDecl):
            declarations.append(
                HashMapDecl(decl.name, tuple(resolve_globals(d) for d in decl.dims), decl.dtype)
            )
        elif isinstance(decl, TrieDecl):
            declarations.append(
                TrieDecl(decl.name, tuple(resolve_globals(d) for d in decl.dims), decl.dtype)
            )
        else:
            declarations.append(decl)
    return declarations
