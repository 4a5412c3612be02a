"""Shrunk fuzz repro (seed 1000000062): egraph/interpret raised
EvaluationError("cannot add values of types PhysicalTrie and PhysicalTrie") —
optimized plans may feed raw physical collections into semiring ``+``/``*``,
so the value layer must treat them as dictionaries."""
PROGRAM = "T0 + T0"
TENSORS = {"T0": [[1.0, 0.0], [0.5, 2.0]]}
FORMATS = {"T0": "trie"}
SCALARS = {}
CONFIGS = [("egraph", "interpret"), ("egraph", "typed"), ("greedy", "typed")]
