"""Shrunk fuzz repro (seed 1000000086): the compile backend summed the keys
of zero-valued entries (6 instead of 1) — materialized dictionaries in
generated code must uphold the SemiringDict no-zeros invariant, because
programs can observe keys, not just values."""
PROGRAM = "sum(<k1, v2> in T0) k1"
TENSORS = {"T0": [0.0, 1.0, 0.0, 0.0]}
FORMATS = {"T0": "dense"}
SCALARS = {}
CONFIGS = [("unoptimized", "typed"), ("greedy", "typed"), ("egraph", "typed")]
