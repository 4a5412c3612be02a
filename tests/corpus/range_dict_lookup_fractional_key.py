"""A dictionary built over a range has only integer keys: looking up 0.5
in ``sum(<k, v> in 0:4) { k -> 1.0 }`` misses.  ``lookup_of_range_sum``
used to rewrite the lookup into a bounds check, which every fractional
value of X between 0 and 4 passed: all four keys instead of
``{1: 1, 2: 1}``."""
PROGRAM = "sum(<i, x> in X) { i -> (sum(<k, v> in 0:4) { k -> 1.0 })(x) }"
TENSORS = {"X": [0.5, 2.0, 3.0, 0.25]}
FORMATS = {"X": "dense"}
SCALARS = {}
CONFIGS = [("greedy", "interpret"), ("greedy", "typed"),
           ("egraph", "interpret"), ("egraph", "typed")]
