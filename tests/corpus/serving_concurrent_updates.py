"""Seeded concurrent repro (fuzz seed 7): serial equivalence under racing catalog updates.

Not a shrunk failure — a fixed-seed pin of the serving layer's snapshot
isolation: readers executing through ``repro.serving.Server`` while a writer
re-binds ``c0`` and re-stores ``T0``/``T1`` must each observe a result equal
to the program evaluated serially at some update prefix.  This case raced
ahead of the catalog-epoch atomicity fix (torn snapshots paired one state's
data with another's epoch) and must stay divergence-free.
"""
PROGRAM = 'sum(<k1, v2> in T0) { k1 + 1 -> (if (3 >= k1 + 0) then ((sum(<k3, v4> in 0:2) (if (k3 != 2 && k3 != 3) then 0) * v4) * c0 + c0 + 0.08) * v2) + 2 }'
TENSORS = {'T0': [0.0, 0.0, 0.0, 0.8172347064826995], 'T1': [0.0, 0.0, 0.0, 0.0, 0.0]}
FORMATS = {'T0': 'trie', 'T1': 'coo'}
SCALARS = {'c0': 0.0}
CONFIGS = [('greedy', 'typed'), ('egraph', 'typed')]
MODE = "concurrent"
UPDATES = [{'kind': 'set_scalar', 'name': 'c0', 'value': -1.258}, {'kind': 'replace', 'name': 'T1', 'value': 2.0, 'fmt': 'dense'}, {'kind': 'set_scalar', 'name': 'c0', 'value': -1.978}, {'kind': 'replace', 'name': 'T0', 'value': 0.75, 'fmt': 'dense'}, {'kind': 'replace', 'name': 'T1', 'value': 2.0, 'fmt': 'coo'}]
