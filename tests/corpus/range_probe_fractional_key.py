"""The plan-time range probe, ``sum(<k, v> in lo:hi) if (x == k) then e``
-> ``if (lo <= x && x < hi) then e[k := x]``, is only exact for an integer
``x``: no key of ``0:4`` equals 0.5.  Written without that condition it
answers ``{0: 1, 1: 1, 2: 1, 3: 1}``; the reference gives ``{1: 1, 2: 1}``.
Here ``x`` is a real-valued tensor entry, so the rewrite keeps the range's
own lookup as an integrality test."""
PROGRAM = "sum(<i, x> in X) sum(<k, v> in 0:4) if (x == k) then { i -> 1.0 }"
TENSORS = {"X": [0.5, 2.0, 3.0, 0.25]}
FORMATS = {"X": "dense"}
SCALARS = {}
CONFIGS = [("greedy", "interpret"), ("greedy", "typed"),
           ("egraph", "interpret"), ("egraph", "typed")]
