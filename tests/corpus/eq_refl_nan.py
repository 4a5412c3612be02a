"""``x == x`` is false for ``x = nan``.  eq-refl (``if (?a == ?a) then ?e``
=> ``?e``, in the e-graph rule and in ``simplify_node``) used to fire on
any operand, so every optimized plan counted the NaN entry: 4 instead of
the reference interpreter's 3.  It now fires only on operands proven
integral (keys, sizes, positions)."""
PROGRAM = "sum(<i, x> in X) if (x == x) then 1"
TENSORS = {"X": [1.0, float("inf"), float("nan"), 2.0]}
FORMATS = {"X": "dense"}
SCALARS = {}
CONFIGS = [("greedy", "interpret"), ("greedy", "typed"),
           ("egraph", "interpret"), ("egraph", "typed")]
