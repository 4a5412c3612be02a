"""Type-directed random SDQLite program generator.

Programs in SDQLite have a simple type structure: a value is either a scalar
or a semiring dictionary whose values are one rank lower.  We therefore
represent a type as its **rank** — ``0`` for scalars, ``r > 0`` for
dictionaries nested ``r`` deep — and generate expressions *against* a target
rank, so every generated program is well-typed by construction:

* scalars come from constants, bound key/value variables, global scalars,
  fully-applied lookups, arithmetic, conditionals and scalar ``sum``s;
* rank-``r`` dictionaries come from logical tensor names, partially-applied
  lookups, singleton ``{ key -> value }`` constructors, dictionary ``sum``s,
  semiring ``+`` / ``-`` / ``*`` and conditionals.

Loops terminate by construction: every ``sum`` iterates either a registered
tensor (finite data), a constant-bounded range ``0:c``, a range bounded by an
in-scope key variable (itself bounded by finite data) or a sub-dictionary of
one of those.  One scalar shape is a correlated sum over the row of a tensor
an outer key selects (:meth:`ProgramGenerator._gen_row_sum`).

The generator emits *named-form* ASTs whose bound-variable names
(``k0, v1, x2, ...``) are fresh and distinct from all schema names, so the
source round-trip holds exactly::

    parse_expr(to_source(program)) == program

which the differential oracle (:mod:`repro.fuzz.oracle`) relies on to move
cases between processes and into the regression corpus as plain text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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
    Let,
    Mul,
    Neg,
    Not,
    Or,
    RangeExpr,
    Sub,
    Sum,
    Sym,
    Var,
)

#: Comparison operators drawn for conditions.
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class TensorSpec:
    """One logical tensor of the generated schema."""

    name: str
    shape: tuple[int, ...]
    density: float = 0.5
    #: one of :data:`repro.data.synthetic.MATRIX_STRUCTURES` (rank-2 only).
    structure: str = "general"

    @property
    def rank(self) -> int:
        return len(self.shape)


@dataclass(frozen=True)
class Schema:
    """A random catalog schema: logical tensors plus global scalars."""

    tensors: tuple[TensorSpec, ...]
    scalars: tuple[str, ...] = ()

    def tensors_of_rank(self, rank: int) -> list[TensorSpec]:
        return [spec for spec in self.tensors if spec.rank == rank]

    @property
    def max_rank(self) -> int:
        return max((spec.rank for spec in self.tensors), default=0)


def generate_schema(rng: random.Random, *, max_tensors: int = 3,
                    max_rank: int = 3, max_dim: int = 5,
                    max_scalars: int = 2) -> Schema:
    """Draw a random schema: 1..max_tensors tensors, 0..max_scalars scalars.

    Rank-2 tensors are square half the time (unlocking the special formats'
    structural preconditions downstream), and square ones draw a structure
    class so that lower-triangular / band / Z-order layouts are exercised.
    """
    from ..data.synthetic import MATRIX_STRUCTURES

    tensors = []
    for index in range(rng.randint(1, max_tensors)):
        rank = rng.randint(1, max_rank)
        structure = "general"
        if rank == 2:
            if rng.random() < 0.5:
                # Square matrices: power-of-two dims half the time so the
                # Z-order format's precondition is regularly satisfied.
                n = rng.choice([2, 4]) if rng.random() < 0.5 else rng.randint(2, max_dim)
                shape = (n, n)
                structure = rng.choice(MATRIX_STRUCTURES)
            else:
                shape = (rng.randint(1, max_dim), rng.randint(1, max_dim))
        else:
            shape = tuple(rng.randint(1, max_dim) for _ in range(rank))
        density = rng.choice([0.2, 0.5, 0.8, 1.0])
        tensors.append(TensorSpec(f"T{index}", shape, density, structure))
    scalars = tuple(f"c{index}" for index in range(rng.randint(0, max_scalars)))
    return Schema(tuple(tensors), scalars)


@dataclass
class _Binding:
    """An in-scope bound variable: its name and the rank of its value."""

    name: str
    rank: int
    #: True for ``sum`` key variables (known to be small non-negative ints).
    is_key: bool = False


@dataclass
class ProgramGenerator:
    """Generates one well-typed program over a fixed schema.

    ``fuel`` bounds the number of expression nodes spent on recursion, so
    program size and depth are tunable; when fuel runs out only leaves are
    produced.  All randomness comes from the injected ``rng``.
    """

    schema: Schema
    rng: random.Random
    fuel: int = 14
    #: With this probability a dictionary key position uses an arbitrary
    #: scalar (e.g. a float tensor value) instead of an integer expression,
    #: exercising the key-normalization rule across backends.
    weird_key_chance: float = 0.05
    _scope: list[_Binding] = field(default_factory=list)
    _counter: int = 0

    # -- helpers --------------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _spend(self, amount: int = 1) -> bool:
        """Consume fuel; False when exhausted (callers fall back to leaves)."""
        if self.fuel < amount:
            return False
        self.fuel -= amount
        return True

    def _in_scope(self, rank: int) -> list[_Binding]:
        return [binding for binding in self._scope if binding.rank == rank]

    def _keys_in_scope(self) -> list[_Binding]:
        return [binding for binding in self._scope if binding.is_key]

    # -- integer-ish scalar expressions (dictionary keys, range bounds) -------

    def gen_int(self) -> Expr:
        """A small integer-valued scalar expression (keys, conditions)."""
        keys = self._keys_in_scope()
        roll = self.rng.random()
        if keys and roll < 0.55:
            key = Var(self.rng.choice(keys).name)
            if self.rng.random() < 0.3 and self._spend():
                return Add(key, Const(self.rng.randint(0, 2)))
            return key
        return Const(self.rng.randint(0, 3))

    def gen_key(self) -> Expr:
        """A dictionary-key expression; occasionally a non-integer scalar."""
        if self.rng.random() < self.weird_key_chance:
            scalars = self._in_scope(0)
            if scalars:
                return Var(self.rng.choice(scalars).name)
        return self.gen_int()

    # -- conditions -----------------------------------------------------------

    def gen_cond(self, depth: int = 1) -> Expr:
        roll = self.rng.random()
        if depth > 0 and self._spend():
            if roll < 0.15:
                return And(self.gen_cond(depth - 1), self.gen_cond(depth - 1))
            if roll < 0.3:
                return Or(self.gen_cond(depth - 1), self.gen_cond(depth - 1))
            if roll < 0.4:
                return Not(self.gen_cond(depth - 1))
        op = self.rng.choice(_CMP_OPS)
        scalars = self._in_scope(0)
        if scalars and self.rng.random() < 0.3:
            left: Expr = Var(self.rng.choice(scalars).name)
            right: Expr = Const(round(self.rng.uniform(0.0, 1.0), 2))
        else:
            left, right = self.gen_int(), self.gen_int()
        return Cmp(op, left, right)

    # -- scalar expressions ---------------------------------------------------

    def _scalar_leaf(self) -> Expr:
        choices = []
        scalars = self._in_scope(0)
        if scalars:
            choices.append(lambda: Var(self.rng.choice(scalars).name))
        if self.schema.scalars:
            choices.append(lambda: Sym(self.rng.choice(self.schema.scalars)))
        choices.append(lambda: Const(self.rng.randint(0, 3)))
        choices.append(lambda: Const(round(self.rng.uniform(0.0, 2.0), 2)))
        return self.rng.choice(choices)()

    def gen_scalar(self) -> Expr:
        if not self._spend():
            return self._scalar_leaf()
        roll = self.rng.random()
        if roll < 0.18:
            return Add(self.gen_scalar(), self.gen_scalar())
        if roll < 0.28:
            return Sub(self.gen_scalar(), self.gen_scalar())
        if roll < 0.46:
            return Mul(self.gen_scalar(), self.gen_scalar())
        if roll < 0.5:
            # Division only by a non-zero constant: guaranteed total.
            return Div(self.gen_scalar(), Const(self.rng.choice([2, 4, 0.5])))
        if roll < 0.54:
            return Neg(self.gen_scalar())
        if roll < 0.64:
            return IfThen(self.gen_cond(), self.gen_scalar())
        if roll < 0.74:
            target, rank = self._dict_atom()
            if target is not None:
                out = target
                for _ in range(rank):
                    out = Get(out, self.gen_key())
                return out
            return self._scalar_leaf()
        if roll < 0.82:
            return self._gen_sum(body_rank=0)
        if roll < 0.88:
            return self._gen_row_sum() or self._gen_sum(body_rank=0)
        if roll < 0.94:
            return self._gen_let(body_rank=0)
        return self._scalar_leaf()

    # -- dictionary expressions -----------------------------------------------

    def _dict_atom(self, rank: int | None = None) -> tuple[Expr | None, int]:
        """A cheap dictionary-typed expression: tensor, bound var, partial Get.

        Returns ``(expr, rank)``; ``(None, 0)`` when nothing suitable is in
        scope (e.g. a scalar-only schema).  With ``rank`` given, only
        expressions of exactly that rank are produced.
        """
        options: list[tuple[Expr, int]] = []
        for spec in self.schema.tensors:
            if rank is None or spec.rank == rank:
                options.append((Sym(spec.name), spec.rank))
            elif spec.rank > rank:
                # Partially apply down to the requested rank.
                out: Expr = Sym(spec.name)
                for _ in range(spec.rank - rank):
                    out = Get(out, self.gen_int())
                options.append((out, rank))
        for binding in self._scope:
            if binding.rank > 0 and (rank is None or binding.rank == rank):
                options.append((Var(binding.name), binding.rank))
        if not options:
            return None, 0
        expr, got_rank = self.rng.choice(options)
        return expr, got_rank

    def _gen_source(self) -> tuple[Expr, int]:
        """An iterable (rank >= 1) expression for a ``sum`` loop."""
        roll = self.rng.random()
        if roll < 0.25:
            keys = self._keys_in_scope()
            if keys and self.rng.random() < 0.4:
                # 0:k with k a key variable — bounded by the outer loop.
                return RangeExpr(Const(0), Add(Var(self.rng.choice(keys).name),
                                               Const(1))), 1
            return RangeExpr(Const(0), Const(self.rng.randint(1, 4))), 1
        expr, rank = self._dict_atom()
        if expr is None:
            return RangeExpr(Const(0), Const(self.rng.randint(1, 4))), 1
        return expr, rank

    def _gen_sum(self, body_rank: int) -> Expr:
        source, source_rank = self._gen_source()
        key = _Binding(self._fresh("k"), 0, is_key=True)
        value = _Binding(self._fresh("v"), source_rank - 1)
        self._scope.extend([key, value])
        try:
            if body_rank == 0:
                body = self.gen_scalar()
            elif value.rank == body_rank and self.rng.random() < 0.3:
                # sum(<k, v> in T) v — semiring addition of sub-dictionaries.
                body = Var(value.name)
            else:
                body = DictExpr(self.gen_key(), self.gen_dict(body_rank - 1))
        finally:
            self._scope.pop()
            self._scope.pop()
        return Sum(source, body, key_name=key.name, val_name=value.name)

    def _gen_row_sum(self) -> Expr | None:
        """``sum(<i, r> in T) sum(<j, a> in r) a * sum(<j2, q> in T) if (j == j2)
        then sum(<c, v> in q) e``: every entry of a matrix ``T`` times the sum
        over the row of ``T`` its column selects, where ``e`` is ``v`` and a
        leaf (``c``, ``v``, a global scalar or a constant) under ``+ - *``.
        Over a compressed level the inner sum is a correlated sum over
        ``T(P(j):P(j + 1))`` with one value per segment of ``P``.  ``None``
        when the schema has no matrix."""
        matrices = self.schema.tensors_of_rank(2)
        if not matrices:
            return None
        name = self.rng.choice(matrices).name
        i, r, j, a, j2, q = (self._fresh(prefix) for prefix in "kvkvkv")
        c, v = self._fresh("k"), self._fresh("v")
        outer, self._scope = self._scope, [_Binding(c, 0, is_key=True), _Binding(v, 0)]
        try:
            body = self.rng.choice((Add, Sub, Mul))(Var(v), self._scalar_leaf())
        finally:
            self._scope = outer
        inner = Sum(Var(q), body, key_name=c, val_name=v)
        join = Sum(Sym(name), IfThen(Cmp("==", Var(j), Var(j2)), inner),
                   key_name=j2, val_name=q)
        return Sum(Sym(name), Sum(Var(r), Mul(Var(a), join), key_name=j, val_name=a),
                   key_name=i, val_name=r)

    def _gen_let(self, body_rank: int) -> Expr:
        bound_rank = self.rng.choice([0, 0, 1]) if self.schema.tensors else 0
        if bound_rank == 0:
            value = self.gen_scalar()
        else:
            value = self.gen_dict(bound_rank)
        binding = _Binding(self._fresh("x"), bound_rank)
        self._scope.append(binding)
        try:
            body = self.gen_scalar() if body_rank == 0 else self.gen_dict(body_rank)
        finally:
            self._scope.pop()
        return Let(value, body, name=binding.name)

    def gen_dict(self, rank: int) -> Expr:
        """A dictionary expression of exactly ``rank`` nesting levels."""
        if rank == 0:
            return self.gen_scalar()
        if not self._spend():
            expr, _ = self._dict_atom(rank)
            if expr is not None:
                return expr
            return DictExpr(Const(self.rng.randint(0, 3)), self.gen_dict(rank - 1))
        roll = self.rng.random()
        if roll < 0.3:
            return self._gen_sum(body_rank=rank)
        if roll < 0.45:
            return DictExpr(self.gen_key(), self.gen_dict(rank - 1))
        if roll < 0.55:
            return Add(self.gen_dict(rank), self.gen_dict(rank))
        if roll < 0.6:
            return Sub(self.gen_dict(rank), self.gen_dict(rank))
        if roll < 0.68:
            return Mul(self.gen_scalar(), self.gen_dict(rank))
        if roll < 0.73:
            return Mul(self.gen_dict(rank), self.gen_dict(rank))
        if roll < 0.81:
            return IfThen(self.gen_cond(), self.gen_dict(rank))
        if roll < 0.88:
            return self._gen_let(body_rank=rank)
        expr, _ = self._dict_atom(rank)
        if expr is not None:
            return expr
        return DictExpr(self.gen_key(), self.gen_dict(rank - 1))

    # -- entry point ----------------------------------------------------------

    def generate(self) -> Expr:
        """One program: a scalar or a dictionary of rank 1..max available."""
        target_rank = self.rng.choice([0, 0, 1, 1, 2])
        target_rank = min(target_rank, max(1, self.schema.max_rank)) \
            if target_rank else 0
        if target_rank == 0:
            return self.gen_scalar()
        return self.gen_dict(target_rank)


def generate_program(schema: Schema, rng: random.Random, *, fuel: int = 14,
                     weird_key_chance: float = 0.05) -> Expr:
    """Generate one well-typed named-form program over ``schema``."""
    return ProgramGenerator(schema, rng, fuel=fuel,
                            weird_key_chance=weird_key_chance).generate()
