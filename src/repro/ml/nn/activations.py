"""Activation functions for the feed-forward networks.

Clementine's neural-network node builds sigmoid multilayer perceptrons; the
paper (§3.2) notes hidden activations may be "linear, hard limit, sigmoid,
or tan-sigmoid". We implement the differentiable ones (hard-limit units are
not trainable by backprop and Clementine does not use them for regression).

Each activation exposes the function and its derivative *expressed in terms
of the activation output*, which is what backpropagation consumes (e.g.
``sigmoid' = a (1 - a)``) — this avoids recomputing the pre-activation.
Both are defined in place, because the training kernel evaluates them into
preallocated buffers; ``fn`` and ``deriv_from_output`` are the allocating
forms of the same arithmetic, so either form gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Activation", "SIGMOID", "TANH", "LINEAR", "get_activation"]


@dataclass(frozen=True)
class Activation:
    """An activation function and its output-space derivative.

    ``apply(z)`` overwrites pre-activations ``z`` with activations;
    ``deriv_into(a, out)`` writes the derivative at outputs ``a`` into
    ``out``. ``deriv_into`` is ``None`` when the derivative is 1 everywhere,
    so callers can skip the multiply.
    """

    name: str
    apply: Callable[[np.ndarray], object]
    deriv_into: Callable[[np.ndarray, np.ndarray], object] | None

    def fn(self, z: np.ndarray) -> np.ndarray:
        out = np.array(z, dtype=np.float64)
        self.apply(out)
        return out

    def deriv_from_output(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        out = np.ones_like(a)
        if self.deriv_into is not None:
            self.deriv_into(a, out)
        return out


def _sigmoid(z: np.ndarray) -> None:
    # Clip to keep exp() finite; saturation beyond ±40 is numerically exact.
    np.clip(z, -40.0, 40.0, out=z)
    np.negative(z, z)
    np.exp(z, z)
    np.add(z, 1.0, z)
    np.divide(1.0, z, z)


def _sigmoid_deriv(a: np.ndarray, out: np.ndarray) -> None:
    np.subtract(1.0, a, out)
    np.multiply(a, out, out)


def _tanh_deriv(a: np.ndarray, out: np.ndarray) -> None:
    np.multiply(a, a, out)
    np.subtract(1.0, out, out)


SIGMOID = Activation(name="sigmoid", apply=_sigmoid, deriv_into=_sigmoid_deriv)
TANH = Activation(name="tanh", apply=lambda z: np.tanh(z, z), deriv_into=_tanh_deriv)
LINEAR = Activation(name="linear", apply=lambda z: None, deriv_into=None)

_REGISTRY = {act.name: act for act in (SIGMOID, TANH, LINEAR)}


def get_activation(name: str) -> Activation:
    """Look up an activation by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
