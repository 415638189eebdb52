"""Elementary ops that only the tests use, built on ``tensor._emit``.

The oracles for the fused kernels (``unfused_induce_tree`` in conftest and
the ``unfused_*`` functions in ``test_tensor.py``) write each fused
computation as a chain of small records; these are the links of those
chains that no library code needs.  Their gradients are checked by the
``op_gradient_cases`` entries of the same names.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from treeattn.tensor import ShapeError, Tensor, _check_same_vectors, _check_vector, _emit, _Rows


def sigmoid(x: Tensor) -> Tensor:
    # 1 / (1 + exp(-x)) as exp(-log(1 + exp(-x))): no overflow for any finite x,
    # and no kernel shared with the library's logistic, which it is the oracle of
    out = np.exp(-np.logaddexp(0.0, -x.data))
    return _emit("sigmoid", (x,), out, lambda g: (g * out * (1.0 - out),))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit("tanh", (x,), out, lambda g: (g * (1.0 - out * out),))


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(x.data)
    return _emit("exp", (x,), out, lambda g: (g * out,))


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.data)
    return _emit("log", (x,), out, lambda g: (g / x.data,))


def weighted_sum(vectors: Sequence[Tensor], weights: Tensor) -> Tensor:
    """Sum of same-length vectors, each scaled by one entry of ``weights``."""
    _check_vector("weighted_sum", weights)
    if len(vectors) != weights.shape[0]:
        raise ShapeError(
            f"weighted_sum: {len(vectors)} vectors but {weights.shape[0]} weights")
    _check_same_vectors("weighted_sum", vectors)
    stacked = np.stack([v.data for v in vectors])
    out = weights.data @ stacked

    def grad_fn(g):
        grads = [w * g for w in weights.data]
        grads.append(stacked @ g)
        return tuple(grads)

    return _emit("weighted_sum", (*vectors, weights), out, grad_fn)


def mean(x: Tensor) -> Tensor:
    n = x.data.size
    return _emit("mean", (x,), np.array(np.mean(x.data)),
                 lambda g: (np.full_like(x.data, g / n),))


def split(x: Tensor, sections: int) -> tuple[Tensor, ...]:
    """A vector cut into ``sections`` contiguous pieces of equal size, as one
    record with one output per piece."""
    _check_vector("split", x)
    if sections < 1 or x.shape[0] % sections:
        raise ShapeError(f"split: shape {x.shape} does not cut into {sections} equal pieces")
    size = x.shape[0] // sections
    pieces = tuple(x.data[i * size:(i + 1) * size] for i in range(sections))

    def grad_fn(grads):
        return (np.concatenate([np.zeros(size) if g is None else g for g in grads]),)

    return _emit("split", (x,), pieces, grad_fn)


def take_row(matrix: Tensor, index: int) -> Tensor:
    """Row gather from a matrix."""
    if matrix.data.ndim != 2:
        raise ShapeError(f"take_row: expected a matrix, got shape {matrix.shape}")
    if not 0 <= index < matrix.shape[0]:
        raise ShapeError(f"take_row: row {index} outside shape {matrix.shape}")
    out = matrix.data[index].copy()

    return _emit("take_row", (matrix,), out, lambda g: (_Rows(index, g),))
