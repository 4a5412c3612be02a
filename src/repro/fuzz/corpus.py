"""Serialization of shrunk fuzz failures into a replayable corpus.

A corpus file is a tiny, self-contained Python module — no imports, just
data — describing one fuzz case and the configurations it once diverged
under::

    \"\"\"Shrunk fuzz repro (seed 42): greedy/typed diverged from the reference result.\"\"\"
    PROGRAM = "sum(<k1, v1> in T0) { k1 -> v1 * 2 }"
    TENSORS = {"T0": [[0.0, 1.0], [1.0, 0.0]]}
    FORMATS = {"T0": "csr"}
    SCALARS = {}
    CONFIGS = [("greedy", "typed")]

Files under ``tests/corpus/`` are replayed by ``tests/test_corpus_replay.py``
on every tier-1 run: a shrunk failure, once fixed, becomes a permanent
regression test by copying the file there (see ``docs/testing.md``).

A case with switches or updates adds two keys: ``MODE`` — ``"concurrent"``,
``"ivm"`` (maintained views), ``"adaptive"`` (feedback) or a ``+``-joined
mix such as ``"ivm+adaptive"`` — and ``UPDATES``, the
:meth:`~repro.fuzz.oracle.Update.as_dict` forms of its update sequence.
Files written before the modes were one case model keep loading: their
``DELTAS`` key (point-updates without a ``kind``) reads as ``UPDATES``.
Everything replays through :func:`repro.fuzz.oracle.replay`.
"""

from __future__ import annotations

import pathlib
import runpy
from dataclasses import dataclass

import numpy as np

from ..execution.engine import check_backend
from ..sdqlite.errors import OptimizationError
from ..sdqlite.parser import parse_expr
from .oracle import METHODS, MODES, Divergence, FuzzCase, Update


def render_corpus_case(divergence: Divergence) -> str:
    """The corpus-file source text for a (normally shrunk) divergence."""
    case = divergence.case
    what = (f"raised {divergence.error}" if divergence.error is not None
            else "diverged from the reference result")
    if case.mode != "serial":
        what += f" in {case.mode} mode"
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
    if case.mode != "serial":
        lines.append(f"MODE = {case.mode!r}")
    if case.updates:
        lines.append(f"UPDATES = {[update.as_dict() for update in case.updates]!r}")
    return "\n".join(lines) + "\n"


def write_corpus_case(divergence: Divergence, directory: str | pathlib.Path
                      ) -> pathlib.Path:
    """Serialize a divergence into ``directory`` and return the file path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    mode = divergence.case.mode
    prefix = "" if mode == "serial" else mode.replace("+", "_") + "_"
    name = (f"fuzz_{prefix}seed{divergence.case.seed}_{divergence.method}_"
            f"{divergence.backend}.py")
    path = directory / name
    path.write_text(render_corpus_case(divergence))
    return path


@dataclass
class CorpusEntry:
    """One loaded corpus file: the case (updates and switches included)
    plus the configurations to replay it under."""

    case: FuzzCase
    configs: list[tuple[str, str]]

    @property
    def mode(self) -> str:
        """``"serial"``, ``"concurrent"``, ``"ivm"``, ``"adaptive"`` or a mix."""
        return self.case.mode

    @property
    def updates(self) -> list[Update]:
        return list(self.case.updates)


def _check_method(method: str) -> str:
    if method == "egraph-legacy":
        raise OptimizationError(
            "the 'egraph-legacy' method was removed with the legacy saturation "
            "engine; replay the entry on 'egraph'")
    if method not in METHODS:
        raise OptimizationError(f"unknown method {method!r}: use one of {METHODS}")
    return method


def load_corpus_entry(path: str | pathlib.Path) -> CorpusEntry:
    """Load a corpus file into a :class:`CorpusEntry`.

    A ``CONFIGS`` pair naming an unknown method
    (:class:`~repro.sdqlite.errors.OptimizationError`) or execution backend
    (:class:`~repro.sdqlite.errors.ExecutionError`), or an unknown ``MODE``,
    is rejected here, not mid-replay.
    """
    spec = runpy.run_path(str(path))
    switches = {}
    for mode in spec.get("MODE", "serial").split("+"):
        if mode != "serial":
            if mode not in MODES:
                raise ValueError(f"{path}: unknown MODE {mode!r}: use one of {sorted(MODES)}")
            switches[MODES[mode]] = True
    case = FuzzCase(
        seed=0,
        program=parse_expr(spec["PROGRAM"]),
        tensors={name: np.asarray(data, dtype=np.float64)
                 for name, data in spec["TENSORS"].items()},
        formats=dict(spec["FORMATS"]),
        scalars=dict(spec.get("SCALARS", {})),
        updates=tuple(Update.from_dict(entry) for entry in
                      spec.get("UPDATES", []) + spec.get("DELTAS", [])),
        **switches,
    )
    configs = [(_check_method(method), check_backend(backend))
               for method, backend in spec.get("CONFIGS", [])]
    return CorpusEntry(case=case, configs=configs)


def load_corpus_case(path: str | pathlib.Path
                     ) -> tuple[FuzzCase, list[tuple[str, str]]]:
    """Load a corpus file back into a :class:`FuzzCase` plus its configs."""
    entry = load_corpus_entry(path)
    return entry.case, entry.configs
