"""The stored layout of every named storage format, pinned.

For every ``ALL_FORMATS`` entry on a handful of fixed tensors — empty, a
single entry, duplicate coordinates (one pair cancelling), rank 3 (empty
and not), and
row-range sharding with 1 and with 3 shards — the committed table
``tests/golden/format_layouts.json`` pins what the rest of the system reads
of a format: the mapping text, every physical symbol with its dtype, shape
and a hash of its bytes, the symbol kinds, the cardinality profile, the
segment profiles, the per-shard statistics and the canonical coordinates
and values.  The same is pinned again after one ``apply_delta`` that
overwrites, cancels and inserts entries.  A change to how formats are built
or spliced must leave every entry untouched.

The table is written by ``python tests/test_format_layouts.py --write``
(from the commit whose behaviour is to be pinned) and asserted here.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.sdqlite.errors import StorageError
from repro.storage import ALL_FORMATS, coo_arrays
from repro.storage.convert import apply_delta

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "format_layouts.json")

#: name -> (shape, coords, values, delta coords, delta values).  Every
#: rank-2 entry is lower-triangular and tridiagonal on a power-of-two square,
#: so the Sec. 4 special formats store it too; each delta stays so.
TENSORS = {
    "empty": ((4, 4), [], [], [(1, 1)], [2.0]),
    "empty3": ((2, 3, 4), [], [], [(1, 2, 3), (0, 0, 1)], [1.0, -1.0]),
    "single": ((4, 4), [(2, 1)], [1.5], [(2, 1), (3, 3)], [-1.5, 2.0]),
    "duplicates": ((4, 4),
                   [(1, 0), (2, 2), (1, 0), (3, 2), (0, 0), (2, 2), (2, 1), (1, 1)],
                   [0.1, 3.0, 0.2, 2.0, 1.0, -3.0, 0.5, -1.5],
                   [(0, 0), (3, 2), (3, 3), (0, 0)], [0.5, -2.0, 4.0, 0.25]),
    "rank3": ((3, 4, 5),
              [(0, 1, 2), (2, 3, 4), (0, 1, 2), (0, 0, 4), (2, 0, 0), (1, 2, 3)],
              [1.0, -2.0, 0.5, 3.0, 0.25, 7.0],
              [(0, 1, 2), (2, 0, 0), (1, 1, 1), (2, 3, 4)], [1.0, -0.25, 6.0, 2.0]),
    "rows": ((6, 5),
             [(0, 0), (1, 4), (2, 2), (3, 1), (3, 3), (5, 0), (5, 4)],
             [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
             [(3, 3), (1, 4), (4, 2), (5, 0)], [0.5, -2.0, 9.0, 1.0]),
}

#: Shard counts pinned for the sharded formats on ``rows`` (``None``: the
#: default count, which every other tensor uses).
SHARDS = (1, 3)


def _cases():
    """``(key, kind, tensor, from_coo kwargs)`` of every pinned input."""
    for kind, cls in sorted(ALL_FORMATS.items()):
        sharded = kind.startswith("sharded")
        for tensor in sorted(TENSORS):
            if tensor == "rows":
                for shards in SHARDS if sharded else ():
                    yield f"{kind}@{shards}/{tensor}", kind, tensor, {"shards": shards}
            else:
                yield f"{kind}/{tensor}", kind, tensor, {}


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _symbol(value) -> list:
    if isinstance(value, np.ndarray):
        return [str(value.dtype), list(value.shape), _digest(value)]
    if isinstance(value, (int, float)):
        return [type(value).__name__, value]
    buffers = value.to_buffers()
    return [type(value).__name__,
            {key: [str(array.dtype), _digest(array)] for key, array in buffers.items()}]


def _profile(profile):
    return [_profile(item) for item in profile] if isinstance(profile, tuple) else profile


def _state(fmt) -> dict:
    coords, values = coo_arrays(fmt)
    state = {
        "spec_name": fmt.spec_name,
        "nnz": int(fmt.nnz),
        "mapping": fmt.mapping_source(),
        "physical": {symbol: _symbol(value) for symbol, value in fmt.physical().items()},
        "kinds": fmt.physical_kinds(),
        "profile": _profile(fmt.profile()),
        "segments": fmt.segment_profiles(),
        "coords": np.asarray(coords).reshape(-1, len(fmt.shape)).tolist(),
        "values": np.asarray(values).tolist(),
    }
    if hasattr(fmt, "shard_stats"):
        state["shard_stats"] = [[list(stats.shape), stats.nnz] for stats in fmt.shard_stats()]
    return state


def observe(kind: str, tensor: str, kwargs: dict) -> dict | None:
    """The pinned state before and after the tensor's delta; ``None`` when
    the format cannot store the tensor."""
    shape, coords, values, delta_coords, delta_values = TENSORS[tensor]
    coords = np.array(coords, dtype=np.int64).reshape(-1, len(shape))
    try:
        fmt = ALL_FORMATS[kind].from_coo("T", coords, np.array(values, dtype=np.float64),
                                         shape, **kwargs)
    except StorageError:
        return None
    updated = apply_delta(fmt, delta_coords, delta_values)
    return {"stored": _state(fmt), "updated": _state(updated)}


def _observed_table() -> dict:
    table = {}
    for key, kind, tensor, kwargs in _cases():
        observed = observe(kind, tensor, kwargs)
        if observed is not None:
            table[key] = observed
    return table


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def _roundtrip(value):
    """``value`` as it reads back from the JSON table (tuples become lists)."""
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("key,kind,tensor,kwargs", list(_cases()),
                         ids=[case[0] for case in _cases()])
def test_layout_matches_the_pinned_table(key, kind, tensor, kwargs):
    observed = observe(kind, tensor, kwargs)
    expected = _golden().get(key)
    if expected is None:
        assert observed is None, f"{key}: the format now stores this tensor"
        return
    assert observed is not None, f"{key}: the format no longer stores this tensor"
    observed = _roundtrip(observed)
    # Field by field, so a failure names what moved.
    for phase in ("stored", "updated"):
        for name in expected[phase]:
            assert observed[phase][name] == expected[phase][name], \
                f"{key}: {phase} {name} changed"
        assert observed[phase].keys() == expected[phase].keys()


def test_the_pinned_table_covers_every_format():
    kinds = {key.split("/")[0].split("@")[0] for key in _golden()}
    assert kinds == set(ALL_FORMATS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_format_layouts.py --write")
    table = _observed_table()
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} entries to {GOLDEN}")
