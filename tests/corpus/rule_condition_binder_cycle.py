"""Shrunk fuzz repro (seed 1000000250): the rank analysis behind the
dict-factor rule condition recursed without bound on binder cycles (the
environment changes at every descent, so the visited-set key never
repeats) — it now carries a fuel budget and falls back to the optimistic
default when exhausted."""
PROGRAM = "{ 0 -> T1 } * (let x9 = sum(<k7, v8> in 0) { k7 -> 0 } in T0)"
TENSORS = {"T0": [[1.0, 0.0], [0.5, 2.0]], "T1": [1.0, 0.0, 3.0]}
FORMATS = {"T0": "dense", "T1": "dense"}
SCALARS = {}
CONFIGS = [("egraph", "interpret")]
