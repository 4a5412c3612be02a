"""The systems compared in the evaluation: STOREL plus the baselines."""

from .base import (
    NotSupportedError,
    System,
    dense_inputs,
    output_shape,
    reference_result,
)
from .numpy_backend import NumpySystem
from .relational import RelationalSystem
from .storel_system import FixedPlanSystem, StorelSystem, TacoLikeSystem

__all__ = [
    "NotSupportedError", "System", "dense_inputs", "output_shape", "reference_result",
    "NumpySystem", "RelationalSystem", "ScipySystem",
    "FixedPlanSystem", "StorelSystem", "TacoLikeSystem",
]


def __getattr__(name: str):
    # ScipySystem imports SciPy, which costs a process ~0.2 s: on first use.
    if name == "ScipySystem":
        from .scipy_backend import ScipySystem
        return ScipySystem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
