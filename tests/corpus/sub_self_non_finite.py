"""``x - x`` is 0 only for a finite ``x``: ``inf - inf`` and ``nan - nan``
are ``nan``.  L6 (``?e - ?e`` => ``0``, in the e-graph rule and in
``simplify_node``) used to fire on any operand, so every optimized plan
answered 0 where the reference interpreter answers ``nan``.  It now fires
only on operands proven integral (keys, sizes, positions)."""
PROGRAM = "sum(<i, x> in X) x - x"
TENSORS = {"X": [1.0, float("inf"), float("nan"), 2.0]}
FORMATS = {"X": "dense"}
SCALARS = {}
CONFIGS = [("greedy", "interpret"), ("greedy", "typed"),
           ("egraph", "interpret"), ("egraph", "typed")]
