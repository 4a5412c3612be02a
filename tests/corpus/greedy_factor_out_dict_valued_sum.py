"""Shrunk fuzz repro (seed 1000000465): greedy factorization lifted a
dictionary-valued sum (its body multiplies by the rank-1 lookup ``T0(k1)``)
out of a ``{1 -> ...}`` constructor, turning scalar scaling into key
intersection — ``is_collection_producer`` must follow ranks through ``Get``."""
PROGRAM = "sum(<k1, v2> in T1) { 1 -> 1.83 * T0(k1) }"
TENSORS = {"T0": [[0.0, 1.0], [1.0, 0.5]], "T1": [0.3, 0.6]}
FORMATS = {"T0": "dense", "T1": "dense"}
SCALARS = {}
CONFIGS = [("greedy", "interpret"), ("greedy", "typed")]
