"""A range has only integer keys: ``(0:4)(0.5)`` misses.  T4 (in the
e-graph rule, in ``simplify_node`` and through ``lookup_of_range_sum``)
used to turn ``(lo:hi)(x)`` into a bounds check that admits any ``x``
between the bounds, so the dense rows holding 0.5 and 0.25 leaked into the
result: ``{0: 0.5, 1: 2, 2: 3, 3: 0.25}`` instead of ``{1: 2, 2: 3}``."""
PROGRAM = "sum(<i, x> in X) { i -> (0:4)(x) }"
TENSORS = {"X": [0.5, 2.0, 3.0, 0.25]}
FORMATS = {"X": "dense"}
SCALARS = {}
CONFIGS = [("greedy", "interpret"), ("greedy", "typed"),
           ("egraph", "interpret"), ("egraph", "typed")]
