"""Shrunk fuzz repro (seed 1000000126): ``values.lookup`` truncated the
non-integral key 0.5 to array index 0, while the dictionary-backed logical
tensor correctly missed — positional containers (arrays, ranges, slices)
must only hit on integral keys."""
PROGRAM = "sum(<k1, v2> in T0) T0(v2)"
TENSORS = {"T0": [0.5, 2.0]}
FORMATS = {"T0": "dense"}
SCALARS = {}
CONFIGS = [("greedy", "interpret"), ("greedy", "typed")]
