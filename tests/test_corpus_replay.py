"""Replay the fuzz regression corpus (``tests/corpus/*.py``).

Every file is a self-contained, shrunk repro of a divergence the
differential fuzzer once found (see ``docs/testing.md``).  Replaying it
executes the case under the configuration that used to diverge and asserts
the whole pipeline now agrees — so every fixed fuzz bug stays fixed, and a
regression fails tier-1 with a ten-line reproducer in hand.

Every file replays through ``replay``; its ``MODE`` switches the case on.
Concurrent-mode files (``MODE = "concurrent"``) re-race the case against
its serialized catalog update sequence through the serving layer, and
every observed result must still match some serial prefix state.  IVM-mode
files (``MODE = "ivm"``) maintain the case's program as materialized views
across its serialized sparse-update sequence, and every maintained value
must equal full re-execution.  Adaptive-mode files (``MODE = "adaptive"``)
re-execute the case's statements repeatedly under the always-profiling
feedback loop across the same kind of sparse-update sequence, and every
result — however many times the loop re-optimized in between — must equal
the serial reference.
"""

import pathlib

import pytest

from repro.fuzz import load_corpus_entry, replay

CORPUS_DIR = pathlib.Path(__file__).resolve().parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.py"))


def test_corpus_exists():
    assert CORPUS_FILES, f"no corpus files found under {CORPUS_DIR}"


def test_corpus_has_concurrent_entry():
    entries = [load_corpus_entry(path) for path in CORPUS_FILES]
    assert any(entry.mode == "concurrent" for entry in entries), (
        "corpus should seed at least one concurrent serial-equivalence case")


def test_corpus_has_ivm_entry():
    entries = [load_corpus_entry(path) for path in CORPUS_FILES]
    assert any(entry.mode == "ivm" for entry in entries), (
        "corpus should seed at least one view-maintenance case")


def test_corpus_has_adaptive_entry():
    entries = [load_corpus_entry(path) for path in CORPUS_FILES]
    assert any(entry.mode == "adaptive" for entry in entries), (
        "corpus should seed at least one adaptive re-optimization case")


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_case_replays_without_divergence(path):
    entry = load_corpus_entry(path)
    divergence = replay(entry.case, entry.configs or None)
    assert divergence is None, divergence.describe()
