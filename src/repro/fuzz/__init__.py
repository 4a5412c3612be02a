"""Differential fuzzing of the whole pipeline (see ``docs/testing.md``).

The subsystem converts "scenarios we imagined" into "scenarios the machine
imagines": random well-typed SDQLite programs over random catalog schemas
(:mod:`~repro.fuzz.genprog`), random data satisfying every storage format's
structural preconditions (:mod:`~repro.fuzz.gendata`), a differential oracle
with one case model — program × formats × optional updates × concurrent
readers / maintained views / feedback — checked across execution backends
× optimizer methods against one reference (:mod:`~repro.fuzz.oracle`), a
delta-debugging shrinker (:mod:`~repro.fuzz.shrink`), and a replayable
regression corpus (:mod:`~repro.fuzz.corpus`, replayed by
``tests/test_corpus_replay.py``).

Run a campaign from the command line::

    PYTHONPATH=src python -m repro.fuzz --seed 1 --cases 1000 --out fuzz-failures
"""

from .corpus import (
    CorpusEntry,
    load_corpus_case,
    load_corpus_entry,
    render_corpus_case,
    write_corpus_case,
)
from .gendata import (
    assign_formats,
    build_catalog,
    legal_format_names,
    materialize_tensor,
)
from .genprog import ProgramGenerator, Schema, TensorSpec, generate_program, generate_schema
from .oracle import (
    ADAPTIVE_FUZZ_FEEDBACK,
    FUZZ_OPTIMIZER_OPTIONS,
    CampaignReport,
    CaseSkipped,
    Divergence,
    FuzzCase,
    OracleConfig,
    Update,
    campaign,
    canonical,
    case_seed,
    check_case,
    generate_case,
    generate_updates,
    replay,
    results_match,
)
from .shrink import shrink_case

__all__ = [
    "ProgramGenerator", "Schema", "TensorSpec", "generate_program", "generate_schema",
    "assign_formats", "build_catalog", "legal_format_names", "materialize_tensor",
    "ADAPTIVE_FUZZ_FEEDBACK", "FUZZ_OPTIMIZER_OPTIONS",
    "CampaignReport", "CaseSkipped", "Divergence",
    "FuzzCase", "OracleConfig", "Update",
    "campaign", "canonical", "case_seed", "check_case", "generate_case",
    "generate_updates", "replay", "results_match", "shrink_case",
    "CorpusEntry", "load_corpus_case", "load_corpus_entry",
    "render_corpus_case", "write_corpus_case",
]
