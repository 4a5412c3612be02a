"""Level splice: add a sparse delta to sorted levels by editing them, not rebuilding them.

Every sorted-array storage format and the typed backend's
:class:`~repro.execution.buffers.BufferLevels` hold a tensor as one chain of
levels — the per-level format abstraction of "Format Abstraction for Sparse
Tensor Algebra Compilers" (Chou et al., OOPSLA 2018):

* ``keys[d]`` — the key columns of every level-``d`` entry, concatenated in
  parent order and sorted within each parent's segment.  A level has one
  column, except COO, which is a single level over the whole coordinate
  tuple.  ``None`` marks a *dense* root (the rows of CSR/CSC): its entry
  ``e`` has key ``e``, so it is never searched, grown or pruned.
* ``seg[d]`` — entry ``e`` of level ``d - 1`` owns the level-``d`` entries
  ``seg[d][e]:seg[d][e + 1]``; ``seg[0]`` is the root segment ``[0, n0]``.
* ``values`` — one float64 per deepest-level entry.

CSF (``idx1/pos2/idx2/pos3/idx3``) and DCSR (``idx1/pos2/idx2``) are such a
chain as stored; CSR/CSC is one with a dense first level.  Every such format
is built with :func:`build_levels` and read out with :func:`leaf_columns`
(:class:`repro.storage.formats.LevelFormat`), as are the typed backend's
levels.

:func:`splice` adds ``k`` delta entries in three steps:

1. a stable ``O(k log k)`` sort of the delta that coalesces its duplicate
   coordinates;
2. a level-by-level search for each distinct coordinate inside its
   parent's segment — ``np.searchsorted`` at the root, a bisection
   vectorized over the ``k`` lanes below — so no int64 key spanning all
   levels is ever formed;
3. edits of the stored arrays: hits are overwritten, new keys inserted with
   the interior entries their prefixes lack, ``seg`` arrays re-derived from
   per-parent child counts (``O(#parents)``), and a leaf that cancels to
   exactly 0 deleted together with every interior entry left without
   children.

Per coordinate the additions run *stored value, then the delta's values in
input order*, which is what rebuilding from the concatenated entries gives,
bit for bit.  The result stays canonical, so no read path changes.  Levels
the delta does not edit come back as the very objects passed in; nothing
passed in is written to, so a reader holding the old arrays keeps seeing
them unchanged.  What remains ``O(nnz)`` is one copy of each array that
gains or loses an entry.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["build_levels", "leaf_columns", "splice"]

_NONE = np.empty(0, dtype=np.int64)


def build_levels(cols: Sequence[np.ndarray], widths: Sequence[int],
                 dense: int | None = None):
    """``(keys, seg)`` of the chain over **unique, lexicographically sorted**
    key columns, in one comparison pass per level.

    ``widths`` is the number of columns of each level, root first (``1``,
    except COO's single level over the whole coordinate); ``dense`` the size
    of a dense root level over one leaf level (the rows of CSR/CSC), whose
    keys are implicit.  The deepest level keeps the columns passed in.
    """
    n, depth = cols[0].shape[0], len(widths)
    keys: list = []
    seg: list[np.ndarray] = []
    starts = np.zeros(1, dtype=np.int64)    # leaf position where each parent entry starts
    first = None                            # leaves that start a new prefix so far
    for d, width in enumerate(widths):
        level, cols = list(cols[:width]), cols[width:]
        if d == depth - 1:      # unique coordinates: every leaf is an entry
            keys.append(level)
            seg.append(np.append(starts, n))
            break
        if d == 0 and dense is not None:
            keys.append(None)
            seg.append(np.array([0, dense], dtype=np.int64))
            pos = np.zeros(dense + 1, dtype=np.int64)
            np.cumsum(np.bincount(level[0], minlength=dense), out=pos[1:])
            starts = pos[:-1]
            continue
        changed = level[0][1:] != level[0][:-1]
        for col in level[1:]:
            changed |= col[1:] != col[:-1]
        if first is not None:
            changed |= first[1:]
        first = np.ones(n, dtype=bool)
        first[1:] = changed
        entries = np.flatnonzero(first)
        keys.append([col[entries] for col in level])
        # Every parent starts an entry here too, so the search is exact.
        seg.append(np.append(np.searchsorted(entries, starts), entries.shape[0]))
        starts = entries
    return keys, seg


def leaf_columns(keys: Sequence, seg: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The key columns of every leaf entry, in chain order: each level's keys
    repeated over the leaves below them (a dense level's entry ``e`` has key
    ``e``).  A one-level chain returns its own columns."""
    cols = [np.arange(seg[0][1], dtype=np.int64)] if keys[0] is None else list(keys[0])
    for d in range(1, len(keys)):
        counts = np.diff(seg[d])
        cols = [np.repeat(col, counts) for col in cols] + list(keys[d])
    return cols


def splice(keys: Sequence, seg: Sequence[np.ndarray], values: np.ndarray,
           cols: Sequence[np.ndarray], deltas: np.ndarray, *, canonical: bool = False):
    """``(keys, seg, values, written)`` of the chain plus the delta ``(cols,
    deltas)``; ``written`` holds the value of every coordinate the delta
    touched, as stored after it (0 where the entry cancelled).

    ``keys`` holds per level a list of key columns (``None`` for a dense
    root), ``seg`` per level its segment array, as the module describes.
    ``cols`` are the delta's key columns in chain order (the columns of
    level 0, then of level 1, ...), in any row order and with repeats —
    or, with ``canonical``, already sorted and unique (the leaves of
    another chain), which skips step 1.  Interior entries that have no
    children — in the chain as given or after the edit — are dropped,
    except on a dense root.
    """
    depth = len(keys)
    if canonical:
        lanes = [np.asarray(col, dtype=np.int64) for col in cols]
        run = np.arange(lanes[0].shape[0])
        ordered = np.asarray(deltas, dtype=np.float64)
    else:
        lanes, run, ordered = _coalesce(cols, deltas)
    spans, start = [], 0
    for level in keys:
        width = 1 if level is None else len(level)
        spans.append(lanes[start:start + width])
        start += width

    # Where every lane's prefix sits, level by level: the entry it hits or,
    # where the prefix is absent, the position it would be inserted at (an
    # absent parent's range [lo, hi) is empty: hi = seg[d][ent + False]).
    m = lanes[0].shape[0]
    ents: list[np.ndarray] = []
    hits: list[np.ndarray] = []
    for d, level in enumerate(keys):
        if level is None:
            ent, hit = spans[d][0], np.ones(m, dtype=bool)
        elif d == 0:
            ent, hit = _find(level, spans[d])
        else:
            ent, hit = _find(level, spans[d], seg[d][ent], seg[d][ent + hit])
        ents.append(ent)
        hits.append(hit)

    leaf, stored = ents[-1], hits[-1]
    sums = np.zeros(m, dtype=np.float64)
    sums[stored] = values[leaf[stored]]
    np.add.at(sums, run, ordered)       # in order: stored value, then the delta's
    keep = sums != 0
    fresh = np.flatnonzero(~stored & keep)

    # Insertions, per level: the fresh lanes whose prefix through the level
    # is absent, one new entry per distinct prefix (born), at position at.
    born, runs, at, items = [], [], [], []
    first = np.zeros(fresh.shape[0], dtype=bool)
    first[:1] = True
    for d in range(depth):
        span = [col[fresh] for col in spans[d]]
        for col in span:
            first[1:] |= col[1:] != col[:-1]
        born.append(first & ~hits[d][fresh])
        runs.append(np.cumsum(first) - 1)
        at.append(ents[d][fresh][born[d]])
        items.append([col[born[d]] for col in span])

    # Deletions, bottom-up: cancelled leaves, then parents left childless.
    dels = [_NONE] * depth
    dels[-1] = leaf[stored & ~keep]
    counts: list = [None] * depth
    for d in range(depth - 1, 0, -1):
        count = np.diff(seg[d])
        adopted = ents[d - 1][fresh][born[d] & hits[d - 1][fresh]]
        if adopted.size:
            np.add.at(count, adopted, 1)
        if dels[d].size:
            np.subtract.at(count, np.searchsorted(seg[d], dels[d], "right") - 1, 1)
        counts[d] = count
        if keys[d - 1] is not None:
            dels[d - 1] = np.flatnonzero(count == 0)

    new_keys, new_seg = list(keys), list(seg)
    edited = [bool(at[d].size or dels[d].size) for d in range(depth)]
    for d in range(depth):
        if edited[d] and keys[d] is not None:
            new_keys[d] = [_edit(col, dels[d], at[d], item)
                           for col, item in zip(keys[d], items[d])]
            if d == 0:
                new_seg[0] = np.array([0, new_keys[0][0].shape[0]], dtype=np.int64)
        if d and (edited[d] or edited[d - 1]):
            # A new parent's child count: its fresh lanes born one level down.
            kids = np.bincount(runs[d - 1][born[d]], minlength=fresh.shape[0])
            count = _edit(counts[d], dels[d - 1], at[d - 1],
                          kids[runs[d - 1][born[d - 1]]])
            new_seg[d] = np.zeros(count.shape[0] + 1, dtype=np.int64)
            np.cumsum(count, out=new_seg[d][1:])

    hit = stored & keep
    if edited[-1]:
        new_values = _edit(values, dels[-1], at[-1], sums[fresh])
        moved = leaf[hit]
        moved += np.searchsorted(at[-1], moved, "right") - np.searchsorted(dels[-1], moved)
        new_values[moved] = sums[hit]
    elif hit.any():
        new_values = np.array(values)       # a plain in-memory copy, also of a memmap
        new_values[leaf[hit]] = sums[hit]
    else:
        new_values = values
    return new_keys, new_seg, new_values, sums


def _coalesce(cols: Sequence[np.ndarray], deltas: np.ndarray):
    """``(distinct sorted key columns, run id per sorted entry, sorted values)``.

    The sort is stable, so the values of one coordinate keep input order.
    """
    cols = [np.asarray(col, dtype=np.int64) for col in cols]
    order = np.lexsort(cols[::-1]) if len(cols) > 1 else np.argsort(cols[0], kind="stable")
    cols = [col[order] for col in cols]
    first = np.zeros(order.shape[0], dtype=bool)
    first[:1] = True
    for col in cols:
        first[1:] |= col[1:] != col[:-1]
    lanes = [col[first] for col in cols]
    return lanes, np.cumsum(first) - 1, np.asarray(deltas, dtype=np.float64)[order]


def _find(cols: Sequence[np.ndarray], query: Sequence[np.ndarray],
          lo: np.ndarray | None = None, hi: np.ndarray | None = None):
    """Lower bound of each lane's key tuple within entries ``[lo, hi)``, and
    whether the tuple is there.

    Without bounds the search spans the whole level, whose first column is
    then sorted throughout (``np.searchsorted``); every outer column narrows
    the range to its run of equal keys, and the last one bisects inside it.
    """
    last = len(cols) - 1
    for i, (col, key) in enumerate(zip(cols, query)):
        if lo is None:
            lo, hi = np.searchsorted(col, key, "left"), np.searchsorted(col, key, "right")
        elif i < last:
            lo, hi = _bisect(col, lo, hi, key, "left"), _bisect(col, lo, hi, key, "right")
        else:
            lo = _bisect(col, lo, hi, key, "left")
            found = lo < hi
            found[found] = col[lo[found]] == key[found]
            return lo, found
    return lo, lo < hi


def _bisect(col: np.ndarray, lo: np.ndarray, hi: np.ndarray, key: np.ndarray,
            side: str) -> np.ndarray:
    """``lo[i] + np.searchsorted(col[lo[i]:hi[i]], key[i], side)`` for every
    lane ``i`` at once, by binary lifting: each step of a halving stride
    advances the lanes whose next probe (clamped to the range's end) still
    sorts before the key.  A probe that does not move a lane reads outside
    its range harmlessly."""
    before = np.less if side == "left" else np.less_equal
    base = lo
    stride = 1 << int((hi - lo).max(initial=0)).bit_length()
    while stride > 1:       # an empty column has only empty ranges: no probe
        stride >>= 1
        probe = np.minimum(base + stride, hi)
        base = np.where(before(col[probe - 1], key), probe, base)
    return base


def _sliced_inserts(n: int) -> int:
    """Fewest insertions into an ``n``-entry array that :func:`_edit` hands
    to ``np.insert`` rather than copying the slices between them.

    ``np.insert`` scatters through a boolean mask: about 10 us plus 1 ns an
    entry; the slice loop costs about 1 us an insertion on top of the
    ``memcpy``.  Measured crossovers (2-CPU Intel Xeon, NumPy 2.4): 12
    insertions at 200 entries, 16 at 2k, 28 at 10k, 45 at 40k, 110 at 100k.
    """
    return 12 + (n >> 10)


def _edit(array: np.ndarray, delete: np.ndarray, at: np.ndarray,
          items: np.ndarray) -> np.ndarray:
    """``array`` without the entries ``delete`` and with ``items`` inserted
    before the old positions ``at`` (both ascending) — a new array."""
    if delete.size:
        array = np.asarray(np.delete(array, delete))
        at = at - np.searchsorted(delete, at)
    k = at.shape[0]
    if k >= _sliced_inserts(array.shape[0]):
        return np.insert(array, at, items)
    if k:
        out = np.empty(array.shape[0] + k, dtype=array.dtype)
        done = 0
        for i, stop in enumerate(at.tolist()):
            out[done + i:stop + i] = array[done:stop]
            done = stop
        out[done + k:] = array[done:]
        out[at + np.arange(k)] = items
        return out
    return array
