"""T1, ``sum(<k, v> in e) { k -> v }`` -> ``e``, is unsound for a range
starting at 0: iterating ``0:4`` binds the value 0 at key 0, and the
dictionary constructor drops that entry, so the sum is ``{1: 1, 2: 2, 3: 3}``
(three entries), not ``0:4`` (four).  Applied anyway, the e-graph answered
16 instead of 12.  The rule now fires on a range only when its ``lo`` is a
literal >= 1."""
PROGRAM = 'let x3 = sum(<k1, v2> in 0:4) { k1 -> v2 } in sum(<k4, v5> in T0) sum(<k6, v7> in x3) k4'
TENSORS = {'T0': [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]}
FORMATS = {'T0': 'dense'}
SCALARS = {}
CONFIGS = [('egraph', 'interpret'), ('egraph', 'typed')]
