"""A scalar readout for gradient tests of the autodiff core.

The core has only the model's layers, and none of them reduces to a scalar.
Tests reduce an op's output with this one node, so that backward() can run
from it and finite differences can compare against its value.
"""

import numpy as np

from gestprop.tensor import Tensor


def weighted_sum(y: Tensor, w: np.ndarray) -> Tensor:
    """sum(y * w) for a fixed array w of y's shape; y's gradient is g * w."""
    out = Tensor(np.sum(y.data * w), _prev=(y,))

    def _bw(g):
        if y.requires_grad:
            y._accumulate(g * w)

    out._backward = _bw
    return out
