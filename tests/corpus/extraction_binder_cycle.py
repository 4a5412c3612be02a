"""Shrunk fuzz repro (seed 1000000012 / 1000000150): e-graph extraction
recursed without bound through binder cycles (the (class, env) stack guard
never fires because the environment grows at every level), then — once
bounded — poisoned its memo with context-dependent None results.  Both
guards live in core/cost.py."""
PROGRAM = ("(if (0 == 3 || 1 == 1) then "
           "(sum(<k1, v2> in T0) 1.99 + (let x4 = -(let x3 = -2 + 1.82 - k1 in c1) "
           "in 1.51) + k1) + c1) / 0.5")
TENSORS = {"T0": [0.9, 0.0, 0.4]}
FORMATS = {"T0": "trie"}
SCALARS = {"c1": 2.0}
CONFIGS = [("egraph", "interpret")]
