"""A zero factor annihilates through a lookup: ``a * X(i) * s`` is 0, not
``nan``, on a row ``i`` where ``X(i)`` is 0 and ``s = inf``.  The typed
backend answered ``{0: nan, 1: nan}`` where the reference answers ``{}``."""
PROGRAM = "sum(<(i, j), a> in A) { j -> a * X(i) * s }"
TENSORS = {"A": [[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]],
           "X": [0.0, 1.0, 0.0]}
FORMATS = {"A": "csr", "X": "dense"}
SCALARS = {"s": float("inf")}
CONFIGS = [("greedy", "interpret"), ("greedy", "typed"),
           ("egraph", "interpret"), ("egraph", "typed")]
