"""Shrunk fuzz repro (seed 2000000031): e-graph extraction returned a plan
with an unbound De Bruijn index.  Rule eq-refl puts
``if (%3 == %3) then c0`` into the class of ``c0``, a class the top-level
``* c0`` uses too; extraction there picked the node naming %3.  Extraction
in core/cost.py now skips index nodes its context does not bind."""
PROGRAM = "sum(<k1, v2> in T0) (sum(<k3, v4> in T0) if (k1 == k1) then c0) * c0"
TENSORS = {"T0": [0.5, 2.0]}
FORMATS = {"T0": "dense"}
SCALARS = {"c0": 1.5}
CONFIGS = [("egraph", "interpret"), ("egraph", "typed")]
