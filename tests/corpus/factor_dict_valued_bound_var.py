"""Shrunk fuzz repro (seed 777000005521): ``sum(<k, v> in T0) v`` over a
matrix is dictionary-valued, but the bound variable ``v`` read as a scalar
to the factor guards, so the sum was lifted across a ``{3 -> ...}``
constructor — the collection analysis must thread binder environments
(a sum over a rank-2 source binds a dictionary-valued ``%0``)."""
PROGRAM = "sum(<k1, v2> in T0) { 3 -> T0 * v2 }"
TENSORS = {"T0": [[1.0, 1.0, 1.0, 1.0]] * 5}
FORMATS = {"T0": "csc"}
SCALARS = {}
CONFIGS = [("egraph", "interpret"), ("greedy", "interpret"), ("egraph", "typed")]
