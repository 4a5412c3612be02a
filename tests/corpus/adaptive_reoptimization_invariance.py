"""Seeded adaptive repro (fuzz seed 7000000061): result invariance under feedback-driven re-optimization.

Not a shrunk failure -- a fixed-seed pin of the adaptive loop: with
profiling on every execution and a 1.05 re-optimize threshold, this
sum-with-guard over a band tensor misestimates (default selectivity vs.
actual), refines its statistics several times, and transparently
re-prepares mid-stream while sparse updates drift ``T0`` -- and every
result, before and after each re-preparation, must equal the serial
reference at that state.
"""
PROGRAM = '(sum(<k1, v2> in T0) (if (k1 <= k1) then let x6 = if (k1 + 2 != 2 && k1 + 2 >= 2) then let x5 = sum(<k3, v4> in v2) { 0 -> 0 } in v2 in k1) * k1) + 0.32 - c0 - 2'
TENSORS = {'T0': [[0.15109728623079438, 0.0], [0.25094844408515343, 0.16493140491617853]]}
FORMATS = {'T0': 'band'}
SCALARS = {'c0': 1.0}
CONFIGS = [('greedy', 'typed'), ('egraph', 'typed')]
MODE = 'adaptive'
DELTAS = [{'name': 'T0', 'coords': [[1, 0], [0, 0]], 'values': [-0.25094844408515343, 2.0]}, {'name': 'T0', 'coords': [[0, 0], [1, 1]], 'values': [-2.0, 1.0]}, {'name': 'T0', 'coords': [[0, 0]], 'values': [-2.0]}]
