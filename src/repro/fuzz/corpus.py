"""Serialization of shrunk fuzz failures into a replayable corpus.

A corpus file is a tiny, self-contained Python module — no imports, just
data — describing one (program, data, format-assignment) point and the
configurations it once diverged under::

    \"\"\"Shrunk fuzz repro (seed 42): greedy/typed diverged from reference.\"\"\"
    PROGRAM = "sum(<k1, v1> in T0) { k1 -> v1 * 2 }"
    TENSORS = {"T0": [[0.0, 1.0], [1.0, 0.0]]}
    FORMATS = {"T0": "csr"}
    SCALARS = {}
    CONFIGS = [("greedy", "typed")]

Files under ``tests/corpus/`` are replayed by ``tests/test_corpus_replay.py``
on every tier-1 run: a shrunk failure, once fixed, becomes a permanent
regression test by copying the file there (see ``docs/testing.md``).

Concurrent-mode repros (from :func:`repro.fuzz.oracle.concurrent_campaign`)
add two keys — ``MODE = "concurrent"`` and ``UPDATES``, the serialized
catalog-update sequence the case raced against — and replay through
:func:`repro.fuzz.oracle.replay_concurrent` instead of :func:`replay`.
IVM-mode repros (from :func:`repro.fuzz.oracle.ivm_campaign`) likewise add
``MODE = "ivm"`` and ``DELTAS``, the sparse point-update sequence whose
maintained views disagreed with full re-execution, and replay through
:func:`repro.fuzz.oracle.replay_ivm`.  Adaptive-mode repros (from
:func:`repro.fuzz.oracle.adaptive_campaign`) reuse the ``DELTAS`` key with
``MODE = "adaptive"`` — the updates drift the data while the feedback loop
re-optimizes — and replay through :func:`repro.fuzz.oracle.replay_adaptive`;
the divergence class picks the mode via its ``corpus_mode`` attribute.
"""

from __future__ import annotations

import pathlib
import runpy
from dataclasses import dataclass, field

import numpy as np

from ..execution.engine import check_backend
from ..sdqlite.parser import parse_expr
from .oracle import CatalogUpdate, DeltaUpdate, Divergence, FuzzCase


def render_corpus_case(divergence) -> str:
    """The corpus-file source text for a (normally shrunk) divergence.

    Accepts a :class:`~repro.fuzz.oracle.Divergence`, a
    :class:`~repro.fuzz.oracle.ConcurrentDivergence` (duck-typed on the
    presence of an ``updates`` attribute), or an
    :class:`~repro.fuzz.oracle.IvmDivergence` (a ``deltas`` attribute).
    """
    case = divergence.case
    updates = getattr(divergence, "updates", None)
    deltas = getattr(divergence, "deltas", None)
    delta_mode = getattr(divergence, "corpus_mode", "ivm")
    what = (f"raised {divergence.error}" if divergence.error is not None
            else "diverged from the reference result")
    if updates is not None:
        what = f"{what} under concurrent catalog updates"
    if deltas is not None:
        what = (f"{what} under adaptive re-optimization"
                if delta_mode == "adaptive"
                else f"{what} under maintained sparse updates")
    lines = [
        f'"""Shrunk fuzz repro (seed {case.seed}): '
        f'{divergence.method}/{divergence.backend} {what}."""',
        f"PROGRAM = {case.source!r}",
        "TENSORS = {" + ", ".join(
            f"{name!r}: {np.asarray(array, dtype=np.float64).tolist()!r}"
            for name, array in sorted(case.tensors.items())) + "}",
        f"FORMATS = {dict(sorted(case.formats.items()))!r}",
        f"SCALARS = {dict(sorted(case.scalars.items()))!r}",
        f"CONFIGS = [({divergence.method!r}, {divergence.backend!r})]",
    ]
    if updates is not None:
        lines.append('MODE = "concurrent"')
        lines.append(f"UPDATES = {[update.as_dict() for update in updates]!r}")
    if deltas is not None:
        lines.append(f"MODE = {delta_mode!r}")
        lines.append(f"DELTAS = {[delta.as_dict() for delta in deltas]!r}")
    return "\n".join(lines) + "\n"


def write_corpus_case(divergence, directory: str | pathlib.Path
                      ) -> pathlib.Path:
    """Serialize a divergence into ``directory`` and return the file path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if getattr(divergence, "updates", None) is not None:
        mode = "concurrent_"
    elif getattr(divergence, "deltas", None) is not None:
        mode = getattr(divergence, "corpus_mode", "ivm") + "_"
    else:
        mode = ""
    name = (f"fuzz_{mode}seed{divergence.case.seed}_{divergence.method}_"
            f"{divergence.backend}.py")
    path = directory / name
    path.write_text(render_corpus_case(divergence))
    return path


@dataclass
class CorpusEntry:
    """One loaded corpus file: the case plus how to replay it."""

    case: FuzzCase
    configs: list[tuple[str, str]]
    mode: str = "serial"          # "serial" | "concurrent" | "ivm" | "adaptive"
    updates: list[CatalogUpdate] = field(default_factory=list)
    deltas: list[DeltaUpdate] = field(default_factory=list)


def load_corpus_entry(path: str | pathlib.Path) -> CorpusEntry:
    """Load a corpus file, serial or concurrent, into a :class:`CorpusEntry`.

    A ``CONFIGS`` pair naming an unknown execution backend is rejected here
    (:class:`~repro.sdqlite.errors.ExecutionError`), not mid-replay.
    """
    spec = runpy.run_path(str(path))
    case = FuzzCase(
        seed=0,
        program=parse_expr(spec["PROGRAM"]),
        tensors={name: np.asarray(data, dtype=np.float64)
                 for name, data in spec["TENSORS"].items()},
        formats=dict(spec["FORMATS"]),
        scalars=dict(spec.get("SCALARS", {})),
    )
    configs = [(method, check_backend(backend))
               for method, backend in spec.get("CONFIGS", [])]
    mode = spec.get("MODE", "serial")
    updates = [CatalogUpdate.from_dict(entry)
               for entry in spec.get("UPDATES", [])]
    deltas = [DeltaUpdate.from_dict(entry)
              for entry in spec.get("DELTAS", [])]
    return CorpusEntry(case=case, configs=configs, mode=mode, updates=updates,
                       deltas=deltas)


def load_corpus_case(path: str | pathlib.Path
                     ) -> tuple[FuzzCase, list[tuple[str, str]]]:
    """Load a corpus file back into a :class:`FuzzCase` plus its configs."""
    entry = load_corpus_entry(path)
    return entry.case, entry.configs
