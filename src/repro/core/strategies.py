"""Term-level rewrite transformations.

These functions implement the binder-crossing rewrites of Fig. 3 directly on
De Bruijn terms: loop factorization (D2–D4), loop fusion (F1–F3), merge
introduction (F4), condition hoisting and ``let`` inlining.  They are used in
two places:

* as the *appliers* of the dynamic e-graph rules (:mod:`repro.core.rules`),
  where each is applied to a concrete representative term of the matched
  e-node, and
* as deterministic rewrite *strategies* (:func:`fuse`, :func:`factorize`,
  :func:`greedy_optimize`) that generate candidate plans directly.  The
  strategies also power the rule-ablation experiment of Fig. 9 and the
  Taco-like baseline (fusion without factorization).

Every transformation returns a new term, or ``None`` when it does not apply;
all of them preserve the semantics of the input term (checked extensively by
the property-based tests).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from ..sdqlite.ast import (
    Add,
    And,
    Cmp,
    Const,
    DictExpr,
    Expr,
    Get,
    IfThen,
    Idx,
    Let,
    Merge,
    Mul,
    Neg,
    RangeExpr,
    SliceGet,
    Sub,
    Sum,
    Sym,
    binder_arities,
    children,
    postorder,
    rebuild,
)
from ..sdqlite.debruijn import free_indices, hoist_guard, shift, substitute, uses_indices

Transform = Callable[[Expr], "Expr | None"]

#: The value and key binders of a ``sum`` body, as seen from the body.
_VALUE, _KEY = Idx(0), Idx(1)
_RANGE_BINDERS = (_VALUE, _KEY)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _flatten_product(expr: Expr) -> list[Expr]:
    """Flatten a tree of ``Mul`` into its list of factors."""
    if isinstance(expr, Mul):
        return _flatten_product(expr.left) + _flatten_product(expr.right)
    return [expr]


def _product(factors: Sequence[Expr]) -> Expr:
    out = factors[0]
    for factor in factors[1:]:
        out = Mul(out, factor)
    return out


def remap_free(expr: Expr, mapping: Callable[[int], int], cutoff: int = 0) -> Expr:
    """Apply ``mapping`` to every free index (expressed relative to the root)."""
    if isinstance(expr, Idx):
        if expr.index >= cutoff:
            return Idx(mapping(expr.index - cutoff) + cutoff)
        return expr
    kids = children(expr)
    if not kids:
        return expr
    arities = binder_arities(expr)
    return rebuild(expr, [remap_free(child, mapping, cutoff + arity)
                          for child, arity in zip(kids, arities)])


def is_strict_in(expr: Expr, index: int) -> bool:
    """True when ``expr`` is guaranteed to be zero whenever ``%index`` is zero.

    The fusion rules F1–F3 replace "iterate only the stored entries" by
    "iterate all candidates and bind the (possibly missing, hence zero)
    value"; this is only an equivalence when the body annihilates on a zero
    value.  The check is conservative (multiplicative positions only).
    """
    if isinstance(expr, Idx):
        return expr.index == index
    if isinstance(expr, Mul):
        return is_strict_in(expr.left, index) or is_strict_in(expr.right, index)
    if isinstance(expr, (Add, Sub)):
        return is_strict_in(expr.left, index) and is_strict_in(expr.right, index)
    if isinstance(expr, Neg):
        return is_strict_in(expr.operand, index)
    if isinstance(expr, DictExpr):
        return is_strict_in(expr.value, index)
    if isinstance(expr, IfThen):
        return is_strict_in(expr.then, index)
    if isinstance(expr, Let):
        return is_strict_in(expr.body, index + 1) or (
            is_strict_in(expr.value, index) and is_strict_in(expr.body, 0)
        )
    if isinstance(expr, Sum):
        return is_strict_in(expr.body, index + 2) or is_strict_in(expr.source, index)
    if isinstance(expr, Merge):
        return is_strict_in(expr.body, index + 3)
    if isinstance(expr, Get):
        return is_strict_in(expr.target, index)
    if isinstance(expr, SliceGet):
        return is_strict_in(expr.target, index)
    return False


class SymbolRanks(dict):
    """Symbol name -> proven dictionary nesting rank, plus integrality.

    ``integral`` names the symbols that hold integers: integer scalars
    (dimension sizes) and integer arrays (positions, coordinates), as the
    statistics report them.  A plain mapping works wherever this one does;
    it just proves no integer.
    """

    __slots__ = ("integral",)

    def __init__(self, ranks: "Mapping[str, int] | None" = None,
                 integral: Iterable[str] = ()):
        super().__init__(ranks or {})
        self.integral = frozenset(integral)


def integral_symbols(symbol_ranks) -> frozenset:
    """The integer symbols ``symbol_ranks`` knows (none for a plain mapping)."""
    return getattr(symbol_ranks, "integral", frozenset())


#: Flags of a binder-environment entry, above the proven rank in its low
#: bits: the bound value is a scalar proven to be an integer (``INTEGRAL``),
#: or every key at every nesting level of it is one (``INT_KEYS``; vacuous
#: for a scalar).
INTEGRAL = 1 << 8
INT_KEYS = 1 << 9
_RANK_BITS = INTEGRAL - 1


def value_rank_lb(expr: Expr, env: tuple[int, ...] = (),
                  symbol_ranks: "Mapping[str, int] | None" = None) -> int:
    """A proven *lower bound* on the dictionary nesting rank of ``expr``.

    0 means "no proof" — the expression may still be a scalar or an unknown
    leaf (symbol without an entry in ``symbol_ranks``, out-of-scope
    variable).  ``env[i]`` carries the proven rank of the binder behind
    ``Idx(i)`` (plus the flags above it, see :data:`INTEGRAL`): a ``sum``
    over a rank-``r`` source binds a rank-``r-1`` value, so
    ``sum(<k, v> in T) v`` over a matrix is provably rank 1.
    The factorization guards use this to keep dictionary-valued factors from
    being moved across ``{ key -> ... }`` constructors, where scalar scaling
    silently becomes key intersection (found by the differential fuzzer).
    """
    if isinstance(expr, DictExpr):
        return 1 + value_rank_lb(expr.value, env, symbol_ranks)
    if isinstance(expr, RangeExpr):
        return 1
    if isinstance(expr, SliceGet):
        return value_rank_lb(expr.target, env, symbol_ranks)
    if isinstance(expr, Merge):
        return value_rank_lb(expr.body, (0, 0, 0) + env, symbol_ranks)
    if isinstance(expr, Sum):
        source_rank = value_rank_lb(expr.source, env, symbol_ranks)
        body_env = (max(source_rank - 1, 0), 0) + env
        return value_rank_lb(expr.body, body_env, symbol_ranks)
    if isinstance(expr, IfThen):
        return value_rank_lb(expr.then, env, symbol_ranks)
    if isinstance(expr, Let):
        body_env = (value_rank_lb(expr.value, env, symbol_ranks),) + env
        return value_rank_lb(expr.body, body_env, symbol_ranks)
    if isinstance(expr, (Add, Sub, Mul)):
        # Well-typed additions have equal ranks; multiplication overloads
        # scalar x dict, so the higher proven bound applies either way.
        return max(value_rank_lb(expr.left, env, symbol_ranks),
                   value_rank_lb(expr.right, env, symbol_ranks))
    if isinstance(expr, Neg):
        return value_rank_lb(expr.operand, env, symbol_ranks)
    if isinstance(expr, Get):
        return max(value_rank_lb(expr.target, env, symbol_ranks) - 1, 0)
    if isinstance(expr, Idx):
        return env[expr.index] & _RANK_BITS if expr.index < len(env) else 0
    if isinstance(expr, Sym) and symbol_ranks:
        return symbol_ranks.get(expr.name, 0)
    return 0


# ---------------------------------------------------------------------------
# Integrality: a range has only integer keys
# ---------------------------------------------------------------------------


def is_integral(expr: Expr, env: tuple[int, ...] = (),
                symbol_ranks: "Mapping[str, int] | None" = None) -> bool:
    """True when ``expr`` provably evaluates to an integer scalar.

    Proven integers: integer literals, integer scalar symbols, binders the
    environment flags :data:`INTEGRAL` (keys of integer-keyed sources,
    values of ranges and integer arrays), lookups into ranges and integer
    arrays (a miss is 0), and ``+ - *`` of proven integers.  The range
    rewrites below are only sound for integer keys: ``lo:hi`` has no key
    ``2.5``.
    """
    if isinstance(expr, Idx):
        return expr.index < len(env) and bool(env[expr.index] & INTEGRAL)
    if isinstance(expr, Const):
        value = expr.value
        return type(value) is int or (type(value) is float and value.is_integer())
    if isinstance(expr, Sym):
        return (expr.name in integral_symbols(symbol_ranks)
                and not (symbol_ranks or {}).get(expr.name, 0))
    if isinstance(expr, (Add, Sub, Mul)):
        return (is_integral(expr.left, env, symbol_ranks)
                and is_integral(expr.right, env, symbol_ranks))
    if isinstance(expr, Neg):
        return is_integral(expr.operand, env, symbol_ranks)
    if isinstance(expr, Get):
        return _integer_valued(expr.target, symbol_ranks)
    if isinstance(expr, IfThen):
        return is_integral(expr.then, env, symbol_ranks)
    if isinstance(expr, Let):
        return is_integral(expr.body, (_let_entry(expr.value, env, symbol_ranks),) + env,
                           symbol_ranks)
    return False


def _integer_valued(source: Expr, symbol_ranks) -> bool:
    """The first-level values of ``source`` are integer scalars."""
    if isinstance(source, RangeExpr):
        return True
    if isinstance(source, SliceGet):
        source = source.target
    return (isinstance(source, Sym) and source.name in integral_symbols(symbol_ranks)
            and (symbol_ranks or {}).get(source.name, 0) == 1)


def has_int_keys(expr: Expr, env: tuple[int, ...] = (),
                 symbol_ranks: "Mapping[str, int] | None" = None) -> bool:
    """True when every key at every nesting level of ``expr`` is an integer.

    Stored tensors, ranges and slices are keyed by positions and
    coordinates; a dictionary an expression builds is integer-keyed when its
    key expressions are proven integers.  Vacuously true for scalars.
    """
    if isinstance(expr, (Sym, Const, RangeExpr, SliceGet)):
        return True
    if isinstance(expr, Idx):
        return expr.index < len(env) and bool(env[expr.index] & INT_KEYS)
    if isinstance(expr, DictExpr):
        return (is_integral(expr.key, env, symbol_ranks)
                and has_int_keys(expr.value, env, symbol_ranks))
    if isinstance(expr, (Get, Neg)):
        return has_int_keys(children(expr)[0], env, symbol_ranks)
    if isinstance(expr, (Add, Sub, Mul)):
        return (has_int_keys(expr.left, env, symbol_ranks)
                and has_int_keys(expr.right, env, symbol_ranks))
    if isinstance(expr, IfThen):
        return has_int_keys(expr.then, env, symbol_ranks)
    if isinstance(expr, Let):
        return has_int_keys(expr.body, (_let_entry(expr.value, env, symbol_ranks),) + env,
                            symbol_ranks)
    if isinstance(expr, Sum):
        return has_int_keys(expr.body, _sum_entries(expr.source, env, symbol_ranks) + env,
                            symbol_ranks)
    # Comparisons and connectives are scalars; a merge body binds values
    # this analysis does not follow.
    return not isinstance(expr, Merge)


def _let_entry(value: Expr, env: tuple[int, ...], symbol_ranks) -> int:
    """The environment entry of a ``let`` binding ``value``."""
    entry = value_rank_lb(value, env, symbol_ranks)
    if is_integral(value, env, symbol_ranks):
        entry |= INTEGRAL
    if has_int_keys(value, env, symbol_ranks):
        entry |= INT_KEYS
    return entry


def _sum_entries(source: Expr, env: tuple[int, ...], symbol_ranks) -> tuple[int, int]:
    """The environment entries ``(value, key)`` of a ``sum`` over ``source``."""
    value = max(value_rank_lb(source, env, symbol_ranks) - 1, 0)
    if not has_int_keys(source, env, symbol_ranks):
        return value, 0
    if _integer_valued(source, symbol_ranks):
        value |= INTEGRAL
    return value | INT_KEYS, INTEGRAL | INT_KEYS


def is_collection_producer(expr: Expr, depth: int = 0,
                           env: tuple[int, ...] = (),
                           symbol_ranks: "Mapping[str, int] | None" = None) -> bool:
    """True when ``expr``, after ``depth`` more lookups, is *provably* a dictionary."""
    return value_rank_lb(expr, env, symbol_ranks) > depth


# ---------------------------------------------------------------------------
# Factorization (distributivity) — rules D2, D3, D4 of Fig. 3
# ---------------------------------------------------------------------------


def _peel(body: Expr, through_guards: bool) -> tuple[list[Expr], Expr, int]:
    """``(wrappers, core, lets)``: the ``let``/``if`` nodes above ``body``'s core.

    Fusion leaves a loop body as ``let k = v2 in let a = A_val(p) in
    if (c) then core``; the guard-crossing factorization rewrites move
    invariant parts of ``core`` past them.  ``lets`` counts the binders the
    wrappers introduce.  Without ``through_guards`` the core is the body.
    """
    wrappers: list[Expr] = []
    lets = 0
    while through_guards and isinstance(body, (Let, IfThen)):
        wrappers.append(body)
        if isinstance(body, Let):
            lets += 1
            body = body.body
        else:
            body = body.then
    return wrappers, body, lets


def _rewrap(wrappers: Sequence[Expr], core: Expr) -> Expr:
    """Put the wrappers :func:`_peel` took off back around ``core``."""
    for node in reversed(wrappers):
        if isinstance(node, Let):
            core = Let(node.value, core, name=node.name)
        else:
            core = IfThen(node.cond, core)
    return core


def _hoist_factor(term: Expr, through_guards: bool) -> Expr | None:
    if not isinstance(term, Sum):
        return None
    wrappers, core, lets = _peel(term.body, through_guards)
    factors = _flatten_product(core)
    if len(factors) < 2:
        return None
    bound = range(lets + 2)
    invariant = [f for f in factors if not uses_indices(f, bound)]
    dependent = [f for f in factors if uses_indices(f, bound)]
    if not invariant or not dependent:
        return None
    # ``let x = e in a * b`` is ``a * let x = e in b`` and ``if c then a * b``
    # is ``a * if c then b`` for an ``a`` that reads neither ``x`` nor ``c``'s
    # outcome; then the sum distributes over the product.
    hoisted = _product([shift(f, -(lets + 2)) for f in invariant])
    remaining = _rewrap(wrappers, _product(dependent))
    return Mul(hoisted, Sum(term.source, remaining,
                            key_name=term.key_name, val_name=term.val_name))


def hoist_factor(term: Expr) -> Expr | None:
    """D2/D3: pull loop-invariant factors out of a ``sum``.

    ``sum(<k,v> in e1) a * b``, where ``a`` does not mention ``k``/``v``,
    becomes ``a' * sum(<k,v> in e1) b``.
    """
    return _hoist_factor(term, False)


def hoist_factor_past_guards(term: Expr) -> Expr | None:
    """D2/D3 through the ``let``/``if`` wrappers of a fused loop body:
    ``sum(<k,v> in e1) let x = e in if (c) then a * b`` →
    ``a' * sum(<k,v> in e1) let x = e in if (c) then b``."""
    return _hoist_factor(term, True)


def _hoist_dict(term: Expr, through_guards: bool) -> Expr | None:
    if not isinstance(term, Sum):
        return None
    wrappers, inner, lets = _peel(term.body, through_guards)
    if not isinstance(inner, DictExpr) or uses_indices(inner.key, range(lets + 2)):
        return None
    new_key = shift(inner.key, -(lets + 2))
    # ``let x = e in { j -> v }`` is ``{ j -> let x = e in v }`` and
    # ``if c then { j -> v }`` is ``{ j -> if c then v }`` (a zero value is
    # no entry), so the constructor rises past the wrappers first.
    new_sum = Sum(term.source, _rewrap(wrappers, inner.value),
                  key_name=term.key_name, val_name=term.val_name)
    # The hoisted key is now a single key, so the @unique assertion is dropped.
    return DictExpr(new_key, new_sum, annot=inner.annot, unique=False)


def hoist_dict(term: Expr) -> Expr | None:
    """D4: pull a dictionary construction with a loop-invariant key out of a sum.

    ``sum(<k,v> in e1) { j -> e }`` with ``j`` independent of ``k, v`` becomes
    ``{ j' -> sum(<k,v> in e1) e }``.
    """
    return _hoist_dict(term, False)


def hoist_dict_past_guards(term: Expr) -> Expr | None:
    """D4 through the ``let``/``if`` wrappers of a fused loop body:
    ``sum(<k,v> in e1) let x = e in if (c) then { j -> e2 }`` →
    ``{ j' -> sum(<k,v> in e1) let x = e in if (c) then e2 }``."""
    return _hoist_dict(term, True)


def _hoist_if(term: Expr, through_guards: bool) -> Expr | None:
    if not isinstance(term, Sum):
        return None
    inner = hoist_guard(term.body) if through_guards else term.body
    if not isinstance(inner, IfThen) or uses_indices(inner.cond, (0, 1)):
        return None
    new_cond = shift(inner.cond, -2)
    return IfThen(new_cond, Sum(term.source, inner.then,
                                key_name=term.key_name, val_name=term.val_name))


def hoist_if(term: Expr) -> Expr | None:
    """Pull a loop-invariant condition out of a sum:
    ``sum(<k,v> in e1) if (c) then e`` → ``if (c') then sum(<k,v> in e1) e``."""
    return _hoist_if(term, False)


def hoist_if_past_lets(term: Expr) -> Expr | None:
    """:func:`hoist_if` for a condition under ``let`` bindings it does not
    read (:func:`~repro.sdqlite.debruijn.hoist_guard`)."""
    return _hoist_if(term, True)


def inline_renaming_let(term: Expr) -> Expr | None:
    """``let x = y in e`` → ``e[x := y]`` for a variable ``y``.

    Fusion binds keys under new names (``let k = v2``); the renaming costs
    nothing to undo and hides that the key *is* a loop variable from the
    independence tests of the factorization rewrites.
    """
    if isinstance(term, Let) and isinstance(term.value, Idx):
        return substitute(term.body, 0, term.value)
    return None


def _movable_factor(factor: Expr, env: "tuple[int, ...] | None",
                    symbol_ranks: "Mapping[str, int] | None") -> bool:
    """May ``factor`` move across a ``{ key -> ... }`` constructor?

    Only scalar factors may — for a dictionary the move turns scaling into
    key intersection.  With a binder environment (``env`` from a root walk)
    the rank analysis covers bound variables; without one (``env is None``,
    the transform ran on an e-graph fragment whose enclosing binders are
    unknown) a factor referencing free variables cannot be judged at all and
    is kept in place.
    """
    known_env = env if env is not None else ()
    if is_collection_producer(factor, 0, known_env, symbol_ranks):
        return False
    return env is not None or not free_indices(factor)


def push_factor_into_dict(term: Expr, env: "tuple[int, ...] | None" = None,
                          symbol_ranks: "Mapping[str, int] | None" = None) -> Expr | None:
    """A2/A3 as a term rewrite: ``a * { k -> e }`` → ``{ k -> a * e }``."""
    if isinstance(term, Mul):
        left, right = term.left, term.right
        if isinstance(right, DictExpr) and _movable_factor(left, env, symbol_ranks):
            return DictExpr(right.key, Mul(left, right.value),
                            annot=right.annot, unique=right.unique)
        if isinstance(left, DictExpr) and _movable_factor(right, env, symbol_ranks):
            return DictExpr(left.key, Mul(left.value, right),
                            annot=left.annot, unique=left.unique)
    return None


push_factor_into_dict.wants_env = True


def factor_out_of_dict(term: Expr, env: "tuple[int, ...] | None" = None,
                       symbol_ranks: "Mapping[str, int] | None" = None) -> Expr | None:
    """A2/A3 in the hoisting direction: ``{ k -> a * e }`` → ``a * { k -> e }``
    for factors ``a`` that are scalar-valued sums (so they can later be hoisted
    out of an enclosing loop and materialized once).  See :func:`_movable_factor`
    for the scalarness guard."""
    if not isinstance(term, DictExpr) or not isinstance(term.value, Mul):
        return None
    factors = _flatten_product(term.value)
    liftable = [f for f in factors if isinstance(f, (Sum, Let))
                and _movable_factor(f, env, symbol_ranks)]
    rest = [f for f in factors if f not in liftable]
    if not liftable or not rest:
        return None
    return Mul(_product(liftable),
               DictExpr(term.key, _product(rest), annot=term.annot, unique=term.unique))


factor_out_of_dict.wants_env = True


# ---------------------------------------------------------------------------
# Fusion — rules F1, F2, F3 of Fig. 3
# ---------------------------------------------------------------------------


def sum_to_lookup(term: Expr) -> Expr | None:
    """F1: replace an iteration filtered on its key by a direct lookup.

    ``sum(<k,v> in e1) if (k == j) then e3`` (``j`` loop-invariant) becomes
    ``let v = e1(j) in e3[k := j]``.
    """
    if not isinstance(term, Sum) or not isinstance(term.body, IfThen):
        return None
    cond = term.body.cond
    if not (isinstance(cond, Cmp) and cond.op == "=="):
        return None
    if cond.left == _KEY and not uses_indices(cond.right, (0, 1)):
        key_expr = cond.right
    elif cond.right == _KEY and not uses_indices(cond.left, (0, 1)):
        key_expr = cond.left
    else:
        return None
    body = term.body.then
    if not is_strict_in(body, 0):
        # Replacing the iteration by a lookup is only sound when a missing key
        # (value 0) makes the body vanish.
        return None
    key_outside = shift(key_expr, -2)
    # Replace the key variable %1 by the (loop-invariant) key expression and
    # drop the key binder; the value binder %0 becomes the let binding.
    new_body = substitute(body, 1, key_outside)
    return Let(Get(term.source, key_outside), new_body, name=term.val_name)


def lookup_of_iterated_key(term: Expr) -> Expr | None:
    """``sum(<k,v> in S) ... S(k) ...`` → ``sum(<k,v> in S) ... v ...``.

    Every iteration binds ``v`` to the entry of ``S`` at ``k`` (a
    dictionary's keys are unique), so looking ``k`` up in ``S`` again is
    ``v``.  F1 leaves such lookups behind when a join walks one collection
    twice — flat BATAX over a transposed operand iterates ``S`` and probes
    ``S(i)`` — and each would re-evaluate ``S`` inside the loop.  Only for a
    closed ``S``, whose meaning is the same at every depth of the body, that
    a ``sum`` builds (a range, array or stored tensor is cheap to look up).
    """
    if not (isinstance(term, Sum) and isinstance(term.source, Sum)) \
            or free_indices(term.source) or 1 not in free_indices(term.body):
        return None
    source = term.source

    def replace(node: Expr, depth: int) -> Expr:
        if isinstance(node, Get) and node.key == Idx(depth + 1) and node.target == source:
            return Idx(depth)
        kids = children(node)
        if not kids:
            return node
        return rebuild(node, [replace(child, depth + arity)
                              for child, arity in zip(kids, binder_arities(node))])

    body = replace(term.body, 0)
    if body is term.body:
        return None
    return Sum(source, body, key_name=term.key_name, val_name=term.val_name)


def fuse_sum_of_sum(term: Expr) -> Expr | None:
    """F2/F3: fuse two nested loops when the inner one builds singleton dictionaries.

    * F2: ``sum(<k1,v1> in (sum(<k2,v2> in e1) {k2 -> e2})) e3``
      becomes ``sum(<k2,v2> in e1) let v1 = e2 in e3[k1 := k2]``.
    * F3: ``sum(<k1,v1> in (sum(<k2,v2> in e1) {@unique e2 -> e3})) e4``
      becomes ``sum(<k2,v2> in e1) let k1 = e2 in let v1 = e3 in e4``.
    """
    if not isinstance(term, Sum) or not isinstance(term.source, Sum):
        return None
    inner = term.source
    if not isinstance(inner.body, DictExpr):
        return None
    dict_expr = inner.body
    outer_body = term.body
    if not is_strict_in(outer_body, 0):
        # The inner sum drops entries whose value is zero; the fused loop
        # visits them, so the outer body must annihilate on a zero value.
        return None

    if dict_expr.key == _KEY:
        # F2 — the produced keys are exactly the keys of e1.
        # New context for the outer body: sum binds (k2=%2', v2=%1')... after the
        # let it is (k2=%2, v2=%1, v1=%0); old context was (k1=%1, v1=%0).
        def mapping(index: int) -> int:
            if index == 0:      # v1 -> let binding
                return 0
            if index == 1:      # k1 -> k2
                return 2
            return index + 1    # outer references: one extra binder

        new_outer = remap_free(outer_body, mapping)
        return Sum(inner.source, Let(dict_expr.value, new_outer, name=term.val_name),
                   key_name=inner.key_name, val_name=inner.val_name)

    if dict_expr.unique:
        # F3 — the produced keys are asserted distinct by @unique.
        def mapping(index: int) -> int:
            if index in (0, 1):  # v1, k1 keep their positions (now let-bound)
                return index
            return index + 2     # outer references: two extra binders

        new_outer = remap_free(outer_body, mapping)
        value_under_let = shift(dict_expr.value, 1)
        fused = Let(dict_expr.key,
                    Let(value_under_let, new_outer, name=term.val_name),
                    name=term.key_name)
        return Sum(inner.source, fused, key_name=inner.key_name, val_name=inner.val_name)

    return None


def introduce_merge(term: Expr) -> Expr | None:
    """F4: turn a nested value-equality join into a sort-merge style ``merge``.

    ``sum(<k1,v1> in e1) sum(<k2,v2> in e2) if (v1 == v2) then e3`` (with
    ``e2`` independent of ``k1, v1``) becomes
    ``merge(<k1,k2,v> in <e1,e2>) let v2 = v in e3``.
    """
    if not isinstance(term, Sum) or not isinstance(term.body, Sum):
        return None
    inner = term.body
    if uses_indices(inner.source, (0, 1)):
        return None
    if not isinstance(inner.body, IfThen):
        return None
    cond = inner.body.cond
    if not (isinstance(cond, Cmp) and cond.op == "=="):
        return None
    pair = {cond.left, cond.right}
    if pair != {Idx(0), Idx(2)}:
        return None
    body = inner.body.then

    # Old context (innermost first): v2=%0, k2=%1, v1=%2, k1=%3.
    # New context:                   v2=%0 (let), v=%1, k2=%2, k1=%3.
    def mapping(index: int) -> int:
        if index == 0:
            return 0
        if index == 1:
            return 2
        if index == 2:
            return 1
        return index

    new_body = remap_free(body, mapping)
    return Merge(term.source, shift(inner.source, -2),
                 Let(Idx(0), new_body, name=inner.val_name),
                 key1_name=term.key_name, key2_name=inner.key_name, val_name="_shared")


def _range_guard(source: RangeExpr, key: Expr, env: "tuple[int, ...] | None",
                 symbol_ranks: "Mapping[str, int] | None") -> Expr | None:
    """The condition that ``key`` is a key of the range ``source``, or ``None``.

    ``lo <= key && key < hi``, exact when ``key`` is a proven integer (see
    :func:`is_integral`); otherwise the range's own lookup, which returns a
    key exactly when it is one, joins it as an integrality test.  ``None``
    when a bound is not a proven integer, because ``lo:hi`` truncates its
    bounds and ``key < 2.5`` would then admit the key 2.
    """
    env = env or ()
    lo, hi = source.lo, source.hi
    if not (is_integral(lo, env, symbol_ranks) and is_integral(hi, env, symbol_ranks)):
        return None
    guard = And(Cmp("<=", lo, key), Cmp("<", key, hi))
    if not is_integral(key, env, symbol_ranks):
        guard = And(guard, Cmp("==", Get(source, key), key))
    return guard


def lookup_of_range_sum(term: Expr, env: "tuple[int, ...] | None" = None,
                        symbol_ranks: "Mapping[str, int] | None" = None) -> Expr | None:
    """Turn a lookup into a range, or a range-built dictionary, into a guarded access.

    * T4: ``(lo:hi)(j)`` becomes ``if (lo <= j && j < hi) then j`` — only
      for a proven integer ``j`` (otherwise it stays the cheap range lookup
      it is; the rewrite's guard would contain it again).
    * ``(sum(<k,_> in lo:hi) { k -> e })(j)`` becomes
      ``if (lo <= j && j < hi) then e[k := j]``.  This is what makes
      lookups like ``X(k)`` — composed with a dense storage mapping —
      compile to a direct array access instead of re-materializing the
      mapping.

    :func:`_range_guard` keeps both exact for non-integral keys.
    """
    if not isinstance(term, Get):
        return None
    target, key = term.target, term.key
    if isinstance(target, RangeExpr):
        if not is_integral(key, env or (), symbol_ranks):
            return None
        source, value = target, key
    elif (isinstance(target, Sum) and isinstance(target.source, RangeExpr)
          and isinstance(target.body, DictExpr) and target.body.key == _KEY):
        source = target.source
        # For a range source the bound value equals the bound key, so both
        # binders collapse onto the lookup key: first identify the value
        # binder with the key binder, then replace the key binder by the key.
        value = substitute(substitute(target.body.value, 0, _VALUE), 0, key)
    else:
        return None
    guard = _range_guard(source, key, env, symbol_ranks)
    return None if guard is None else IfThen(guard, value)


lookup_of_range_sum.wants_env = True


def resolve_range_probe(term: Expr, env: "tuple[int, ...] | None" = None,
                        symbol_ranks: "Mapping[str, int] | None" = None) -> Expr | None:
    """Resolve an equality probe over a range at plan time.

    ``sum(<v,w> in lo:hi) [let ...] if (x == v) then e``, with ``x``
    independent of ``v`` and ``w``, becomes
    ``if (lo <= x && x < hi) then e[v := x, w := x]``: a range binds every
    key to itself, so at most the iteration ``v = x`` passes the guard.
    This is the range form of F1 (:func:`sum_to_lookup`), the
    sum-over-guard-becomes-lookup rewrite of SDQL; unlike F1 it needs no
    strict body, because the bound value is the key itself.  The guard is
    seen through ``let`` bindings (:func:`~repro.sdqlite.debruijn.hoist_guard`),
    and :func:`_range_guard` keeps the rewrite exact when ``x`` is not a
    proven integer.
    """
    if not isinstance(term, Sum) or not isinstance(term.source, RangeExpr):
        return None
    body = hoist_guard(term.body)
    if not isinstance(body, IfThen):
        return None
    cond = body.cond
    if not (isinstance(cond, Cmp) and cond.op == "=="):
        return None
    if cond.left in _RANGE_BINDERS and not uses_indices(cond.right, (0, 1)):
        probe = cond.right
    elif cond.right in _RANGE_BINDERS and not uses_indices(cond.left, (0, 1)):
        probe = cond.left
    else:
        return None
    key = shift(probe, -2)
    guard = _range_guard(term.source, key, env, symbol_ranks)
    if guard is None:
        return None
    return IfThen(guard, substitute(substitute(body.then, 0, _VALUE), 0, key))


resolve_range_probe.wants_env = True


def _flatten_add(term: Expr) -> list[Expr]:
    """The addends of a (left- or right-nested) ``+`` chain."""
    if isinstance(term, Add):
        return _flatten_add(term.left) + _flatten_add(term.right)
    return [term]


def _shard_prefixes(term: Expr) -> set[tuple[str, int]]:
    """All ``(tensor, shard index)`` pairs of shard-local symbols in ``term``.

    Shard-local physical symbols are named ``{tensor}__s{i}_{suffix}`` by the
    sharded storage formats (:data:`repro.storage.sharded.SHARD_SYMBOL_RE`).
    """
    from ..storage.sharded import SHARD_SYMBOL_RE

    prefixes: set[tuple[str, int]] = set()
    for node in postorder(term):
        if isinstance(node, Sym):
            match = SHARD_SYMBOL_RE.match(node.name)
            if match:
                prefixes.add((match.group(1), int(match.group(2))))
    return prefixes


def split_sharded_sum(term: Expr) -> Expr | None:
    """``sum`` over a ``+`` chain of per-shard mappings → ``+`` of per-shard sums.

    ``sum(<k,v> in (m0 + m1 + ...)) body`` becomes
    ``sum(<k,v> in m0) body + sum(<k,v> in m1) body + ...`` — the
    sum-over-shards decomposition the semiring guarantees, and the rewrite
    that makes sharded execution *stream*: each addend materializes (or, after
    fusion, never materializes) one shard at a time instead of ``v_add``-ing
    the whole tensor into memory first.

    Splitting a sum over a general ``+`` is **unsound** when addends share
    keys (``body`` need not be linear in the bound value), so the rewrite
    only fires when every addend is a shard term of one and the same tensor:
    each non-zero addend references shard symbols of exactly one
    ``(tensor, index)`` prefix, all addends agree on the tensor, and all
    shard indices are pairwise distinct — row-range shards of one tensor
    cover disjoint key ranges by construction.
    """
    if not isinstance(term, Sum) or not isinstance(term.source, Add):
        return None
    parts: list[Expr] = []
    bases: set[str] = set()
    seen_indices: set[int] = set()
    for addend in _flatten_add(term.source):
        if addend == Const(0):
            continue
        prefixes = _shard_prefixes(addend)
        if len(prefixes) != 1:
            return None
        (base, index), = prefixes
        bases.add(base)
        if index in seen_indices:
            return None
        seen_indices.add(index)
        parts.append(addend)
    if len(parts) < 2 or len(bases) != 1:
        return None
    result: Expr = Sum(parts[0], term.body,
                       key_name=term.key_name, val_name=term.val_name)
    for part in parts[1:]:
        result = Add(result, Sum(part, term.body,
                                 key_name=term.key_name, val_name=term.val_name))
    return result


def lookup_over_add(term: Expr) -> Expr | None:
    """``(a + b)(k)`` → ``a(k) + b(k)`` on sharded mappings.

    Lookup distributes over semiring addition unconditionally
    (``lookup(v_add(a, b), k) == v_add(lookup(a, k), lookup(b, k))``), but
    the rewrite is gated on the target containing shard symbols so plans for
    non-sharded catalogs stay byte-identical.  On sharded tensors it keeps a
    point access like ``A(i)`` from ``v_add``-materializing the whole
    tensor; each per-shard lookup then simplifies further through
    :func:`lookup_of_range_sum`.
    """
    if not isinstance(term, Get) or not isinstance(term.target, Add):
        return None
    if not _shard_prefixes(term.target):
        return None
    return Add(Get(term.target.left, term.key),
               Get(term.target.right, term.key))


def hoist_let_from_source(term: Expr) -> Expr | None:
    """``sum(<k,v> in (let x = e1 in e2)) e3`` → ``let x = e1 in sum(<k,v> in e2) e3``."""
    if not isinstance(term, Sum) or not isinstance(term.source, Let):
        return None
    inner = term.source
    new_body = shift(term.body, 1, 2)
    return Let(inner.value,
               Sum(inner.body, new_body, key_name=term.key_name, val_name=term.val_name),
               name=inner.name)


def inline_let(term: Expr) -> Expr | None:
    """``let x = e1 in e2`` → ``e2[e1/x]`` (beta reduction)."""
    if not isinstance(term, Let):
        return None
    return substitute(term.body, 0, term.value)


def inline_collection_lets(term: Expr) -> Expr | None:
    """Inline ``let`` bindings whose value constructs a collection.

    Materialized intermediate collections are what the fusion rules remove;
    inlining them exposes the ``sum``-over-``sum`` shape that F2/F3 match.
    Scalar ``let`` bindings are kept (they are cheap and avoid recomputation).
    """
    if isinstance(term, Let) and is_collection_producer(term.value):
        return substitute(term.body, 0, term.value)
    return None


# ---------------------------------------------------------------------------
# Simplifications (term level)
# ---------------------------------------------------------------------------


_ZERO, _ONE, _TRUE, _FALSE = Const(0), Const(1), Const(True), Const(False)


def simplify_node(term: Expr) -> Expr | None:
    """Local algebraic simplifications (rules L1–L6, if-elimination, and the
    bounds check of a range's own key).

    T4 (range lookup) needs integrality facts: see :func:`lookup_of_range_sum`.
    """
    if isinstance(term, Add):
        if term.left == _ZERO:
            return term.right
        if term.right == _ZERO:
            return term.left
    if isinstance(term, Mul):
        if term.left == _ZERO or term.right == _ZERO:
            return _ZERO
        if term.left == _ONE:
            return term.right
        if term.right == _ONE:
            return term.left
    if isinstance(term, Sub):
        if term.right == _ZERO:
            return term.left
        if term.left == term.right:
            return _ZERO
    if isinstance(term, IfThen):
        if term.cond == _TRUE:
            return term.then
        if term.cond == _FALSE:
            return _ZERO
        if isinstance(term.cond, Cmp) and term.cond.op == "==" and term.cond.left == term.cond.right:
            return term.then
    if isinstance(term, Sum):
        if term.body == _ZERO:
            return _ZERO
        if isinstance(term.source, RangeExpr) and isinstance(term.body, IfThen) \
                and isinstance(term.body.cond, And) and is_integral(term.source.lo):
            # The key of ``lo:hi`` is in ``lo:hi``: the bounds check a
            # resolved range probe leaves on it always holds (``lo:hi``
            # truncates its bounds, which only a fractional ``lo > 0`` can
            # make matter).
            lo, hi = shift(term.source.lo, 2), shift(term.source.hi, 2)
            if term.body.cond == And(Cmp("<=", lo, _KEY), Cmp("<", _KEY, hi)):
                return Sum(term.source, term.body.then,
                           key_name=term.key_name, val_name=term.val_name)
    return None


# ---------------------------------------------------------------------------
# Strategies: deterministic passes built from the transformations above
# ---------------------------------------------------------------------------


def _child_env(node: Expr, index: int, value_child: Expr,
               env: tuple[int, ...],
               symbol_ranks: "Mapping[str, int] | None") -> tuple[int, ...]:
    """The binder environment seen by child ``index`` of ``node``.

    ``value_child`` is the (possibly already rewritten) child whose rank
    and integrality determine the bound values: the source of a ``Sum``,
    the value of a ``Let``.
    """
    if isinstance(node, Sum) and index == 1:
        return _sum_entries(value_child, env, symbol_ranks) + env
    if isinstance(node, Let) and index == 1:
        return (_let_entry(value_child, env, symbol_ranks),) + env
    if isinstance(node, Merge) and index == 2:
        return (0, 0, 0) + env
    return env


_BINDER_TYPES = (Sum, Let, Merge)


def rewrite_everywhere(term: Expr, transforms: Iterable[Transform],
                       max_passes: int = 20,
                       symbol_ranks: "Mapping[str, int] | None" = None) -> Expr:
    """Apply the transformations bottom-up anywhere they match, to fixpoint.

    See :func:`_rewrite_to_fixpoint`, which also says whether the fixpoint
    was reached within ``max_passes``.
    """
    return _rewrite_to_fixpoint(term, transforms, max_passes, symbol_ranks)[0]


def _rewrite_to_fixpoint(term: Expr, transforms: Iterable[Transform], max_passes: int,
                         symbol_ranks: "Mapping[str, int] | None") -> tuple[Expr, bool]:
    """``(rewritten term, converged)`` — the body of :func:`rewrite_everywhere`.

    A binder environment of proven value ranks and integrality (see
    :func:`value_rank_lb` and :data:`INTEGRAL`) is maintained during the walk
    and handed to transforms that declare ``wants_env`` — the factor-moving
    rewrites, whose scalarness guards would otherwise be blind to
    dictionary-valued variables bound by *enclosing* loops, and the range
    rewrites, which need integer keys.

    One pass is a function of ``(subtree, env)`` alone, so a subtree a pass
    left unchanged is *settled* for the rest of the call: later passes (and
    other occurrences under the same environment) skip it, and a fixpoint
    pass walks only the paths the previous pass changed.  The environment a
    binder extends is likewise computed once per call for each
    ``(binder kind, bound expression, env)``, and a node is offered only to
    the transforms :data:`TRANSFORM_ROOTS` says can rewrite its type.
    """
    transforms = [(transform, getattr(transform, "wants_env", False),
                   TRANSFORM_ROOTS.get(transform, Expr))
                  for transform in transforms]
    by_type: dict[type, list] = {}
    settled: set[tuple[Expr, tuple[int, ...]]] = set()
    child_envs: dict[tuple, tuple[int, ...]] = {}

    def rewrite_once(node: Expr, env: tuple[int, ...]) -> tuple[Expr, bool]:
        key = (node, env)
        if key in settled:
            return node, False
        kids = children(node)
        changed = False
        if kids:
            binds = type(node) in _BINDER_TYPES
            new_kids: list[Expr] = []
            for index, child in enumerate(kids):
                child_env = env
                if binds and index:
                    env_key = (type(node), index, new_kids[0], env)
                    child_env = child_envs.get(env_key)
                    if child_env is None:
                        child_env = child_envs[env_key] = _child_env(
                            node, index, new_kids[0], env, symbol_ranks)
                new_child, child_changed = rewrite_once(child, child_env)
                changed = changed or child_changed
                new_kids.append(new_child)
            if changed:
                # Only reallocate the spine when a child actually changed;
                # fixpoint passes over already-normalized plans then allocate
                # nothing (this runs once per candidate plan per optimize).
                node = rebuild(node, new_kids)
        offered = by_type.get(type(node))
        if offered is None:
            offered = by_type[type(node)] = [
                (transform, wants_env) for transform, wants_env, roots in transforms
                if issubclass(type(node), roots)]
        for transform, wants_env in offered:
            if wants_env:
                result = transform(node, env, symbol_ranks)
            else:
                result = transform(node)
            if result is not None and result != node:
                return result, True
        if not changed:
            settled.add(key)
        return node, changed

    current = term
    for _ in range(max_passes):
        current, changed = rewrite_once(current, ())
        if not changed:
            return current, True
    return current, False


#: The node types each transform can rewrite (it returns ``None`` on every
#: other node); :func:`rewrite_everywhere` offers a transform only those.
TRANSFORM_ROOTS: dict[Transform, tuple[type, ...]] = {
    **dict.fromkeys((hoist_factor, hoist_factor_past_guards, hoist_dict,
                     hoist_dict_past_guards, hoist_if, hoist_if_past_lets,
                     sum_to_lookup, lookup_of_iterated_key, fuse_sum_of_sum, introduce_merge,
                     resolve_range_probe, split_sharded_sum, hoist_let_from_source),
                    (Sum,)),
    **dict.fromkeys((inline_let, inline_collection_lets, inline_renaming_let), (Let,)),
    **dict.fromkeys((lookup_of_range_sum, lookup_over_add), (Get,)),
    factor_out_of_dict: (DictExpr,),
    push_factor_into_dict: (Mul,),
    simplify_node: (Add, Mul, Sub, IfThen, Sum),
}


#: The fusion pipeline: what a Taco-like compiler achieves for a given format.
FUSION_TRANSFORMS: tuple[Transform, ...] = (
    inline_collection_lets,
    hoist_let_from_source,
    fuse_sum_of_sum,
    hoist_if,
    resolve_range_probe,
    sum_to_lookup,
    lookup_of_iterated_key,
    lookup_of_range_sum,
    simplify_node,
)

#: The factorization pipeline: the cost-based rewrites Taco does not perform.
FACTORIZATION_TRANSFORMS: tuple[Transform, ...] = (
    hoist_dict,
    factor_out_of_dict,
    hoist_factor,
    hoist_if,
    simplify_node,
)

#: The factorization that follows fusion: D2/D4/D5 cross the ``let``/``if``
#: wrappers fused loop bodies carry, and renaming lets are undone, so the two
#: row traversals of a resolved join split.  Before fusion these moves would
#: bury a join guard (``if (i == i2)``) inside a product factor, where F1 and
#: the range-probe rewrite no longer see it.
FUSED_FACTORIZATION_TRANSFORMS: tuple[Transform, ...] = (
    inline_renaming_let,
    hoist_dict_past_guards,
    factor_out_of_dict,
    hoist_factor_past_guards,
    hoist_if_past_lets,
    simplify_node,
)


def fuse(term: Expr, max_passes: int = 30,
         symbol_ranks: "Mapping[str, int] | None" = None) -> Expr:
    """Fuse storage mappings into the program (loop fusion only, no factorization)."""
    return rewrite_everywhere(term, FUSION_TRANSFORMS, max_passes, symbol_ranks)


def factorize(term: Expr, max_passes: int = 30,
              symbol_ranks: "Mapping[str, int] | None" = None, *,
              after_fusion: bool = False) -> Expr:
    """Apply the distributivity / factorization rewrites to fixpoint.

    ``after_fusion`` selects :data:`FUSED_FACTORIZATION_TRANSFORMS`.
    """
    transforms = FUSED_FACTORIZATION_TRANSFORMS if after_fusion else FACTORIZATION_TRANSFORMS
    return rewrite_everywhere(term, transforms, max_passes, symbol_ranks)


def greedy_optimize(term: Expr, *, with_fusion: bool = True,
                    with_factorization: bool = True, with_merge: bool = False,
                    symbol_ranks: "Mapping[str, int] | None" = None) -> Expr:
    """The deterministic optimization pipeline used to seed the plan space.

    The combinations of the two flags correspond to the ablations of Fig. 9:
    neither (naive plan), fusion only (Taco-like), factorization only
    (unfused), or both (the plan STOREL's cost-based optimizer picks for
    sufficiently sparse data).
    """
    plan = term
    if with_factorization:
        plan = factorize(plan, symbol_ranks=symbol_ranks)
    if with_fusion:
        plan = fuse(plan, symbol_ranks=symbol_ranks)
    if with_factorization:
        plan = factorize(plan, symbol_ranks=symbol_ranks, after_fusion=with_fusion)
    if with_merge:
        plan = _introduce_merges(plan, symbol_ranks)
    return plan


def _introduce_merges(plan: Expr, symbol_ranks: "Mapping[str, int] | None") -> Expr:
    """The optional last stage of :func:`greedy_optimize`: F4 everywhere."""
    return rewrite_everywhere(plan, (introduce_merge,), max_passes=5,
                              symbol_ranks=symbol_ranks)


#: Rewrites applied to every candidate plan, including the "naive" one: they
#: only clean up composition artefacts (lookups into range-built mappings,
#: trivial algebra) and correspond to accesses any execution engine performs
#: directly; the interesting optimizations (fusion, factorization) stay
#: exclusive to the optimized variants.
NORMALIZATION_TRANSFORMS: tuple[Transform, ...] = (
    lookup_of_range_sum,
    split_sharded_sum,
    lookup_over_add,
    simplify_node,
)


def normalize(term: Expr, max_passes: int = 10,
              symbol_ranks: "Mapping[str, int] | None" = None) -> Expr:
    """Apply the composition clean-up rewrites (see NORMALIZATION_TRANSFORMS)."""
    return rewrite_everywhere(term, NORMALIZATION_TRANSFORMS, max_passes, symbol_ranks)


def candidate_plans(term: Expr,
                    symbol_ranks: "Mapping[str, int] | None" = None) -> dict[str, Expr]:
    """The named candidate plans the optimizer seeds the e-graph with.

    ``symbol_ranks`` (tensor / physical symbol name -> dictionary nesting
    rank, as built by the optimizer from the catalog statistics) feeds the
    factor-moving guards; without it only syntactically derivable ranks
    protect them.
    """
    base = normalize(term, symbol_ranks=symbol_ranks)
    # The five pipelines of ``greedy_optimize`` share prefixes; each distinct
    # one runs once, and a run whose input is its own fixpoint is skipped.
    factorized, converged = _rewrite_to_fixpoint(base, FACTORIZATION_TRANSFORMS, 30,
                                                 symbol_ranks)
    fused = fuse(base, symbol_ranks=symbol_ranks)
    if factorized is not base:
        fused_factorized = fuse(factorized, symbol_ranks=symbol_ranks)
    else:
        fused_factorized = fused
    if not converged:
        factorized = factorize(factorized, symbol_ranks=symbol_ranks)
    both = factorize(fused_factorized, symbol_ranks=symbol_ranks, after_fusion=True)
    return {
        "naive": base,
        "fused": fused,
        "factorized": factorized,
        "fused+factorized": both,
        "fused+factorized+merge": _introduce_merges(both, symbol_ranks),
    }
