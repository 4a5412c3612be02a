"""Abstract syntax tree for the SDQLite tensor calculus.

SDQLite (Sec. 3.2 of the paper) is a small calculus over *semiring
dictionaries*: finite maps from integer keys to values, where values are
scalars or further dictionaries and missing keys default to 0.  The same
language is used for three purposes:

* writing tensor programs (``sum(<(i,j),a> in A, ...) {(i,k) -> ...}``),
* writing tensor storage mappings (Sec. 4),
* serving as the optimizer's intermediate representation.

Two variable representations coexist:

* **Named form** — produced by the parser.  Binders (:class:`Let`,
  :class:`Sum`, :class:`Merge`) carry variable names and occurrences are
  :class:`Var` nodes.
* **Nameless (De Bruijn) form** — used by the optimizer and the e-graph
  (Sec. 5.4 of the paper).  Occurrences are :class:`Idx` nodes; the binder
  names are kept only as pretty-printing hints and are ignored by equality
  and hashing.

Binder arities (innermost index is 0):

========== =============== ==========================================
node       binds           indices inside the body
========== =============== ==========================================
``Let``    1 variable      ``%0`` = the bound value
``Sum``    2 variables     ``%0`` = dictionary value, ``%1`` = key
``Merge``  3 variables     ``%0`` = value, ``%1`` = key2, ``%2`` = key1
========== =============== ==========================================

All nodes are frozen, slotted dataclasses, therefore hashable and usable as
keys in memo tables.  The structural hash is computed once per node object
and kept in a slot (a node's hash then costs O(arity), its children's being
cached already); it is salted per process like every ``str`` hash, so it is
left out when a node is pickled or copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterator, Sequence, Union

Number = Union[int, float, bool]

#: Comparison operators accepted by :class:`Cmp`.
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

#: Physical annotations accepted by :class:`DictExpr` (Sec. 5.6).
DICT_ANNOTATIONS = (None, "dense", "hash")


class Expr:
    """Base class of all SDQLite expression nodes."""

    #: ``_hash`` and ``_free`` (see :func:`repro.sdqlite.debruijn.free_indices`)
    #: are computed on first use and kept: nodes are immutable.
    __slots__ = ("_hash", "_free")

    def __reduce__(self):
        # Rebuild from the fields alone: the cached hash is only valid in the
        # process that computed it (``str`` hashes are salted per process).
        return type(self), _ALL_FIELDS[type(self)](self)

    # The arithmetic sugar below makes building programs in Python pleasant:
    # ``a * b + c`` produces the corresponding AST.
    def __add__(self, other: "Expr | Number") -> "Add":
        return Add(self, lift(other))

    def __radd__(self, other: "Expr | Number") -> "Add":
        return Add(lift(other), self)

    def __mul__(self, other: "Expr | Number") -> "Mul":
        return Mul(self, lift(other))

    def __rmul__(self, other: "Expr | Number") -> "Mul":
        return Mul(lift(other), self)

    def __sub__(self, other: "Expr | Number") -> "Sub":
        return Sub(self, lift(other))

    def __rsub__(self, other: "Expr | Number") -> "Sub":
        return Sub(lift(other), self)

    def __neg__(self) -> "Neg":
        return Neg(self)

    def __call__(self, *keys: "Expr | Number") -> "Expr":
        """``e(i)`` / ``e(i, j)`` — curried dictionary lookup (Table 1)."""
        out: Expr = self
        for key in keys:
            out = Get(out, lift(key))
        return out

    def __str__(self) -> str:  # pragma: no cover - convenience
        from .pretty import pretty

        return pretty(self)


#: Per node type, its fields as a tuple: all of them (for ``__reduce__``).
_ALL_FIELDS: dict[type, "attrgetter"] = {}


def _fields_getter(names: Sequence[str]):
    """``node -> tuple of the named attributes`` (``attrgetter`` returns a
    bare value for one name and rejects none)."""
    if len(names) == 1:
        single = attrgetter(names[0])
        return lambda node: (single(node),)
    return attrgetter(*names) if names else lambda node: ()


def _node(cls: type) -> type:
    """Class decorator of every AST node: a frozen, slotted dataclass whose
    hash over the compared fields is computed once and kept in ``_hash``."""
    cls = dataclass(frozen=True, slots=True)(cls)
    tag = cls.__name__
    compared = _fields_getter([f.name for f in fields(cls) if f.compare])
    _ALL_FIELDS[cls] = _fields_getter([f.name for f in fields(cls)])
    set_hash = object.__setattr__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((tag, compared(self)))
            set_hash(self, "_hash", value)
            return value

    cls.__hash__ = __hash__
    return cls


def lift(value: "Expr | Number") -> Expr:
    """Wrap a Python number into a :class:`Const`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, bool)):
        return Const(value)
    raise TypeError(f"cannot lift {value!r} into an SDQLite expression")


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@_node
class Const(Expr):
    """A scalar literal (integer, real, or boolean)."""

    value: Number

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, float, bool)):
            raise TypeError(f"Const value must be a number, got {type(self.value)}")


@_node
class Sym(Expr):
    """A global symbol: a physical array, hash-map, trie, scalar, or a logical tensor name."""

    name: str


@_node
class Var(Expr):
    """A named variable occurrence (surface / named form only)."""

    name: str


@_node
class Idx(Expr):
    """A De Bruijn index occurrence ``%k`` (nameless form only)."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("De Bruijn index must be non-negative")


# ---------------------------------------------------------------------------
# Scalar operators
# ---------------------------------------------------------------------------


@_node
class Add(Expr):
    """``e1 + e2`` — semiring addition of scalars or dictionaries."""

    left: Expr
    right: Expr


@_node
class Sub(Expr):
    """``e1 - e2`` — subtraction (scalars, or element-wise on dictionaries)."""

    left: Expr
    right: Expr


@_node
class Mul(Expr):
    """``e1 * e2`` — semiring multiplication; overloaded for scalar × dictionary."""

    left: Expr
    right: Expr


@_node
class Div(Expr):
    """``e1 / e2`` — scalar division."""

    left: Expr
    right: Expr


@_node
class Neg(Expr):
    """Unary minus."""

    operand: Expr


@_node
class Cmp(Expr):
    """A comparison ``e1 <op> e2`` returning a boolean."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@_node
class And(Expr):
    """Boolean conjunction ``e1 && e2``."""

    left: Expr
    right: Expr


@_node
class Or(Expr):
    """Boolean disjunction ``e1 || e2``."""

    left: Expr
    right: Expr


@_node
class Not(Expr):
    """Boolean negation ``!e``."""

    operand: Expr


# ---------------------------------------------------------------------------
# Dictionary constructs
# ---------------------------------------------------------------------------


@_node
class DictExpr(Expr):
    """A singleton dictionary ``{ key -> value }``.

    ``annot`` is the physical annotation chosen by the optimizer
    (``None`` = logical, ``"dense"`` or ``"hash"``, Sec. 5.6); ``unique``
    records the ``@unique`` constraint asserting that, inside a ``sum``, all
    produced keys are distinct (Sec. 5.2).
    """

    key: Expr
    value: Expr
    annot: str | None = None
    unique: bool = False

    def __post_init__(self) -> None:
        if self.annot not in DICT_ANNOTATIONS:
            raise ValueError(f"unknown dictionary annotation {self.annot!r}")


@_node
class Get(Expr):
    """Dictionary lookup ``e(key)``."""

    target: Expr
    key: Expr


@_node
class RangeExpr(Expr):
    """The range dictionary ``lo:hi`` = ``{lo -> lo, ..., hi-1 -> hi-1}``."""

    lo: Expr
    hi: Expr


@_node
class SliceGet(Expr):
    """The sub-array ``e(lo:hi)`` = ``{lo -> e(lo), ..., hi-1 -> e(hi-1)}``.

    Used by segmented-array storage formats such as CSR / CSF.
    """

    target: Expr
    lo: Expr
    hi: Expr


@_node
class IfThen(Expr):
    """``if (cond) then body`` — returns ``body`` or the zero of its type."""

    cond: Expr
    then: Expr


# ---------------------------------------------------------------------------
# Binders
# ---------------------------------------------------------------------------


@_node
class Let(Expr):
    """``let x = value in body``; ``body`` sees the bound value as ``%0``."""

    value: Expr
    body: Expr
    name: str | None = field(default=None, compare=False)


@_node
class Sum(Expr):
    """``sum(<k, v> in source) body``.

    Iterates over the key/value pairs of ``source`` and sums the values of
    ``body``; inside ``body`` the key is ``%1`` and the value ``%0``.
    """

    source: Expr
    body: Expr
    key_name: str | None = field(default=None, compare=False)
    val_name: str | None = field(default=None, compare=False)


@_node
class Merge(Expr):
    """``merge(<k1, k2, v> in <left, right>) body`` — the physical sort-merge operator.

    Semantically equal to
    ``sum(<k1,v1> in left, <k2,v2> in right) if (v1 == v2) then body`` with
    ``v`` bound to the common value (Sec. 5.6 / rule F4).  Inside ``body``,
    ``%2`` = k1, ``%1`` = k2, ``%0`` = the shared value.
    """

    left: Expr
    right: Expr
    body: Expr
    key1_name: str | None = field(default=None, compare=False)
    key2_name: str | None = field(default=None, compare=False)
    val_name: str | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------

#: Children (in order) per node type, as attribute names.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    Const: (),
    Sym: (),
    Var: (),
    Idx: (),
    Add: ("left", "right"),
    Sub: ("left", "right"),
    Mul: ("left", "right"),
    Div: ("left", "right"),
    Neg: ("operand",),
    Cmp: ("left", "right"),
    And: ("left", "right"),
    Or: ("left", "right"),
    Not: ("operand",),
    DictExpr: ("key", "value"),
    Get: ("target", "key"),
    RangeExpr: ("lo", "hi"),
    SliceGet: ("target", "lo", "hi"),
    IfThen: ("cond", "then"),
    Let: ("value", "body"),
    Sum: ("source", "body"),
    Merge: ("left", "right", "body"),
}

#: Number of variables each child position brings into scope.
_BINDER_ARITY: dict[type, tuple[int, ...]] = {
    Let: (0, 1),
    Sum: (0, 2),
    Merge: (0, 0, 3),
}


_CHILDREN_OF = {cls: _fields_getter(names) for cls, names in _CHILD_FIELDS.items()}


def children(expr: Expr) -> tuple[Expr, ...]:
    """Return the direct sub-expressions of ``expr`` in a fixed order."""
    return _CHILDREN_OF[type(expr)](expr)


def binder_arities(expr: Expr) -> tuple[int, ...]:
    """Return, for each child, the number of variables bound over that child."""
    arity = _BINDER_ARITY.get(type(expr))
    if arity is not None:
        return arity
    return (0,) * len(_CHILD_FIELDS[type(expr)])


def rebuild(expr: Expr, new_children: Sequence[Expr]) -> Expr:
    """A node equal to ``expr`` but with ``new_children`` as sub-expressions.

    Non-child payload fields (constants, names, annotations) are preserved.
    When every new child *is* the old one the node itself is returned, so a
    traversal that changes nothing below a subtree hands that subtree back
    as the same object (and memo tables keyed on it hit by identity).
    """
    cls = type(expr)
    old_children = _CHILDREN_OF[cls](expr)
    if len(old_children) != len(new_children):
        raise ValueError(
            f"{cls.__name__} expects {len(old_children)} children, got {len(new_children)}"
        )
    for old, new in zip(old_children, new_children):
        if old is not new:
            break
    else:
        return expr
    with_payload = _REBUILD_WITH_PAYLOAD.get(cls)
    if with_payload is not None:
        return with_payload(expr, new_children)
    return cls(*new_children)


#: The node types that carry more than their children, each with the
#: constructor call that keeps that payload.
_REBUILD_WITH_PAYLOAD = {
    Cmp: lambda e, kids: Cmp(e.op, kids[0], kids[1]),
    DictExpr: lambda e, kids: DictExpr(kids[0], kids[1], e.annot, e.unique),
    Let: lambda e, kids: Let(kids[0], kids[1], e.name),
    Sum: lambda e, kids: Sum(kids[0], kids[1], e.key_name, e.val_name),
    Merge: lambda e, kids: Merge(kids[0], kids[1], kids[2],
                                 e.key1_name, e.key2_name, e.val_name),
}


def postorder(expr: Expr) -> Iterator[Expr]:
    """Yield every node of ``expr`` in post-order (children before parents)."""
    for child in children(expr):
        yield from postorder(child)
    yield expr


def node_count(expr: Expr) -> int:
    """Number of AST nodes in ``expr``."""
    return sum(1 for _ in postorder(expr))


def expr_depth(expr: Expr) -> int:
    """Height of the AST (a leaf has depth 1)."""
    kids = children(expr)
    if not kids:
        return 1
    return 1 + max(expr_depth(child) for child in kids)


def contains(expr: Expr, predicate) -> bool:
    """True when any node of ``expr`` satisfies ``predicate``."""
    return any(predicate(node) for node in postorder(expr))


def symbols(expr: Expr) -> set[str]:
    """The set of global symbol names referenced by ``expr``."""
    return {node.name for node in postorder(expr) if isinstance(node, Sym)}


# ---------------------------------------------------------------------------
# Convenience smart constructors used by programs and tests
# ---------------------------------------------------------------------------


def singleton(key: Expr | Number, value: Expr | Number, *, unique: bool = False,
              annot: str | None = None) -> DictExpr:
    """Build ``{ key -> value }``."""
    return DictExpr(lift(key), lift(value), annot=annot, unique=unique)


def eq(left: Expr | Number, right: Expr | Number) -> Cmp:
    """Build ``left == right``."""
    return Cmp("==", lift(left), lift(right))


ZERO = Const(0)
ONE = Const(1)
TRUE = Const(True)
FALSE = Const(False)
