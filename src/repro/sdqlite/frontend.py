"""The front end, run once per query text: parse → De Bruijn → literal lifting.

Everything a request needs from its *text* is a pure function of the text,
so it is computed once and memoized: the named AST (what
:func:`~repro.sdqlite.parser.parse_expr` returns), the nameless literal-free
query that identifies the request to a plan cache (with its structural hash
computed once — frozen dataclasses re-hash their whole tree on every
``hash()``), and the lifted literal vector with its environment bindings
(:mod:`~repro.sdqlite.literals`).  :data:`FRONT_END` is the process-wide
memo every text entry point shares (``Session.prepare/run/explain``,
``Server.execute``, ``ClientSession.prepare``); :func:`front_end` is the
un-memoized form for callers that already hold an AST.

``parse_expr`` / ``to_debruijn_safe`` themselves stay un-memoized: they are
the primitives, and benchmarks time them directly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .ast import Expr, Number
from .debruijn import to_debruijn_safe
from .literals import lift_literals, literal_bindings
from .parser import parse_expr

#: Texts the process-wide memo retains.  An entry is a few kilobytes of AST,
#: so the memo's footprint stays well under a megabyte whatever the traffic.
FRONT_END_MEMO_SIZE = 256


class Query:
    """A nameless, literal-free program as a cache-key identity.

    Equal exactly when the wrapped expressions are (so two texts that differ
    only in whitespace, binder names or liftable literals are one query),
    but hashed once at construction and compared by identity first — the
    common case, since one text always resolves to one ``Query`` object.
    """

    __slots__ = ("expr", "_hash")

    def __init__(self, expr: Expr):
        self.expr = expr
        self._hash = hash(expr)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The hash is recomputed where the query is rebuilt (``str`` hashes
        # are salted per process).
        return Query, (self.expr,)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Query) and self.expr == other.expr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Query({self.expr!r})"


@dataclass(frozen=True)
class FrontEnd:
    """The immutable front-end product of one program (shared across threads)."""

    #: The named AST, exactly as ``parse_expr`` returns it (literals in place).
    program: Expr
    #: The De Bruijn form with liftable literals replaced by ``$k`` slots.
    query: Query
    #: The lifted literal values, in slot order.
    literals: tuple[Number, ...]
    #: ``{"$k": literals[k]}`` — what a request adds to its environment.
    bindings: Mapping[str, Number]


def front_end(program: Expr) -> FrontEnd:
    """The front-end product of an already-parsed program (un-memoized)."""
    lifted, literals = lift_literals(to_debruijn_safe(program))
    return FrontEnd(program=program, query=Query(lifted), literals=literals,
                    bindings=MappingProxyType(literal_bindings(literals)))


class FrontEndMemo:
    """A bounded, thread-safe LRU from exact query text to :class:`FrontEnd`.

    Lookups and insertions are atomic; the parse itself runs outside the
    lock, so two threads racing on one never-seen text may both parse it
    (both get equal products, the second insert wins) but never block each
    other.  Texts that fail to parse are not remembered.  ``hits`` /
    ``misses`` count lookups.
    """

    def __init__(self, maxsize: int = FRONT_END_MEMO_SIZE):
        if maxsize < 1:
            raise ValueError("FrontEndMemo maxsize must be at least 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, FrontEnd] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, text: str) -> bool:
        with self._lock:
            return text in self._entries

    def lookup(self, text: str) -> tuple[FrontEnd, bool]:
        """``(front-end product of text, whether it was already memoized)``."""
        with self._lock:
            entry = self._entries.get(text)
            if entry is not None:
                self._entries.move_to_end(text)
                self.hits += 1
                return entry, True
            self.misses += 1
        entry = front_end(parse_expr(text))
        with self._lock:
            self._entries[text] = entry
            self._entries.move_to_end(text)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return entry, False

    def get(self, text: str) -> FrontEnd:
        """The front-end product of ``text``."""
        return self.lookup(text)[0]

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0


#: The process-wide memo behind every text entry point.
FRONT_END = FrontEndMemo()


__all__ = ["FRONT_END", "FRONT_END_MEMO_SIZE", "FrontEnd", "FrontEndMemo",
           "Query", "front_end"]
