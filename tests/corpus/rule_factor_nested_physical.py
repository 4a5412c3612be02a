"""Shrunk repro (code review of the fuzzing PR): with T0 stored as trie or
dok the statistics gave the nested physical symbol a flat rank-1 profile,
so after fusion the dict-factor rules judged a trie row scalar and moved a
dictionary-valued factor — Statistics.apply_format now records the full
nested profile for hash/trie physical symbols."""
PROGRAM = "sum(<k1, v2> in T0) { 3 -> T0 * v2 }"
TENSORS = {"T0": [[1.0, 1.0, 1.0, 1.0]] * 5}
FORMATS = {"T0": "trie"}
SCALARS = {}
CONFIGS = [("egraph", "interpret"), ("egraph", "typed")]
