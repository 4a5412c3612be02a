"""A zero factor annihilates: ``v_mul`` answers 0 for ``0 * inf``, where
IEEE gives ``nan``.  The typed backend multiplied lanes the IEEE way, so
``{ i -> x * s }`` over ``X = [0, 1, 0, 2]`` and ``s = inf`` held ``nan``
at keys 0 and 2 where the reference holds nothing."""
PROGRAM = "sum(<i, x> in X) { i -> x * s }"
TENSORS = {"X": [0.0, 1.0, 0.0, 2.0]}
FORMATS = {"X": "dense"}
SCALARS = {"s": float("inf")}
CONFIGS = [("greedy", "interpret"), ("greedy", "typed"),
           ("egraph", "interpret"), ("egraph", "typed")]
