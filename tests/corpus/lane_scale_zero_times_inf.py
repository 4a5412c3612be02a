"""A zero factor annihilates: ``s * { i -> x }`` with ``s = inf`` holds
nothing where ``x`` is 0.  The typed backend scaled a per-lane dictionary
the IEEE way (``inf * 0 = nan``) and kept ``nan`` entries under greedy."""
PROGRAM = "sum(<i, x> in X) s * { i -> x }"
TENSORS = {"X": [0.0, 1.0, 0.0, 2.0]}
FORMATS = {"X": "dense"}
SCALARS = {"s": float("inf")}
CONFIGS = [("greedy", "interpret"), ("greedy", "typed"),
           ("egraph", "interpret"), ("egraph", "typed")]
