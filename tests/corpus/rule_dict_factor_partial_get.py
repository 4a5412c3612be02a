"""Shrunk fuzz repro (seed 1000000476): a partial lookup ``T1(3)`` over a
rank-2 tensor is itself a dictionary, so factoring it across a ``{k -> ...}``
constructor is unsound — the type condition must follow ranks through
``Get`` nodes."""
PROGRAM = "{ 1 -> 1.27 } * T1(3)"
TENSORS = {"T1": [[0.2, 0.0], [0.0, 0.7], [0.4, 0.0], [0.0, 0.9]]}
FORMATS = {"T1": "dense"}
SCALARS = {}
CONFIGS = [("egraph", "interpret"), ("egraph", "typed")]
