"""Feed-forward multilayer perceptron with backpropagation (numpy).

A from-scratch reimplementation of the network underlying Clementine's NN
node: fully connected layers, saturating (tan-sigmoid) hidden units — the
paper (§3.2) lists "linear, hard limit, sigmoid, or tan-sigmoid" hidden
activations — a linear output over range-scaled targets (§3.4),
squared-error loss, gradients by reverse-mode accumulation. The representation supports the structural edits the Prune /
Exhaustive-Prune training methods need — dropping hidden units and masking
inputs — without disturbing the remaining weights.

Parameter layout: every parameter lives in one contiguous float64 vector,
``MLP.params``. ``MLP.weights`` is a list of ``(fan_in + 1, fan_out)`` views
into it, one per layer in order, whose first row is the bias. Writing
through a view writes the vector, so an optimizer updates all layers in one
pass over ``params`` and a snapshot or a clone is one copy.

Evaluation goes through :class:`Workspace`, which binds one batch once —
input mask applied, activation/delta/gradient buffers allocated — and then
runs the forward and backward passes into those buffers. ``forward``,
``loss``, ``loss_and_grad`` and the trainer all use it; there is no second
backprop. Bit-identity contract: the workspace performs the same
floating-point operations, in the same order and on the same row
groupings, as the textbook ``act(a @ W + b)`` chain with fresh
temporaries, so both give the same bits. Train and validation rows are
therefore evaluated as separate batches: stacking them into one GEMM
changes how BLAS blocks the rows, and with it the last bit of some outputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.nn.activations import Activation, get_activation

__all__ = ["MLP", "Workspace"]


class MLP:
    """A fully-connected feed-forward network for scalar regression.

    Parameters
    ----------
    layer_sizes:
        ``[n_inputs, hidden_1, ..., hidden_k, n_outputs]``; at least one
        hidden layer is required (a zero-hidden-layer MLP is just the
        linear-regression model, which has its own implementation).
    rng:
        Generator for weight initialization.
    hidden, output:
        Activation names (default tanh hidden / linear output).
    init_scale:
        Weights start uniform in ``±init_scale / sqrt(fan_in)``.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        hidden: str = "tanh",
        output: str = "linear",
        init_scale: float = 1.0,
    ) -> None:
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 3:
            raise ValueError(f"need [in, hidden..., out], got {sizes}")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        self.layer_sizes = sizes
        self.hidden_act: Activation = get_activation(hidden)
        self.output_act: Activation = get_activation(output)
        layers = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = init_scale / np.sqrt(fan_in)
            layers.append(rng.uniform(-bound, bound, size=(fan_in + 1, fan_out)))
        self._set_params(layers)
        # Input mask: pruned inputs are silenced without re-indexing columns,
        # so the encoder's feature order stays valid after input pruning.
        self.input_mask = np.ones(sizes[0], dtype=bool)

    # -- basic properties ----------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    @property
    def hidden_sizes(self) -> list[int]:
        return self.layer_sizes[1:-1]

    @property
    def n_params(self) -> int:
        return self.params.size

    def layer_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Split a vector laid out like ``params`` into per-layer
        ``(fan_in + 1, fan_out)`` views."""
        views, start = [], 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            stop = start + (fan_in + 1) * fan_out
            views.append(flat[start:stop].reshape(fan_in + 1, fan_out))
            start = stop
        return views

    def _set_params(self, layers: list[np.ndarray]) -> None:
        self.params = np.concatenate([w.ravel() for w in layers])
        self.weights = self.layer_views(self.params)

    def clone(self) -> "MLP":
        """Deep copy (weights and mask)."""
        dup = object.__new__(MLP)
        dup.__setstate__({**self.__dict__, "layer_sizes": list(self.layer_sizes),
                          "params": self.params.copy(),
                          "input_mask": self.input_mask.copy()})
        return dup

    # deepcopy (and pickle) would copy each view on its own, detaching it
    # from ``params``; rebuild the views over the one vector instead.
    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "weights"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.weights = self.layer_views(self.params)

    # -- forward / backward ----------------------------------------------------

    def forward(self, X: np.ndarray) -> list[np.ndarray]:
        """Return the list of layer activations, inputs first, output last."""
        return Workspace(self, X).forward()

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Network output, shape ``(n,)`` for scalar regression."""
        out = self.forward(X)[-1]
        return out[:, 0] if self.n_outputs == 1 else out

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean squared error over the batch."""
        ws = Workspace(self, X, y)
        ws.forward()
        return ws.loss()

    def loss_and_grad(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """MSE and its gradient w.r.t. every weight matrix (backprop)."""
        ws = Workspace(self, X, y)
        ws.forward()
        loss = ws.loss()
        ws.backward()
        return loss, ws.grads

    # -- structural edits (for pruning) --------------------------------------

    def drop_hidden_unit(self, hidden_layer: int, unit: int) -> None:
        """Remove one unit from hidden layer ``hidden_layer`` (0-based).

        The unit's incoming column and outgoing row are deleted; everything
        else is untouched, so retraining resumes from the surviving weights.
        """
        n_hidden = len(self.layer_sizes) - 2
        if not (0 <= hidden_layer < n_hidden):
            raise ValueError(f"hidden_layer must be in [0, {n_hidden}), got {hidden_layer}")
        size = self.layer_sizes[hidden_layer + 1]
        if size <= 1:
            raise ValueError("cannot drop the last unit of a hidden layer")
        if not (0 <= unit < size):
            raise ValueError(f"unit must be in [0, {size}), got {unit}")
        layers = list(self.weights)
        layers[hidden_layer] = np.delete(layers[hidden_layer], unit, axis=1)
        layers[hidden_layer + 1] = np.delete(layers[hidden_layer + 1], unit + 1, axis=0)  # +1: bias row
        self.layer_sizes[hidden_layer + 1] = size - 1
        self._set_params(layers)

    def mask_input(self, index: int) -> None:
        """Silence input ``index`` (prune an input field)."""
        if not (0 <= index < self.n_inputs):
            raise ValueError(f"index must be in [0, {self.n_inputs}), got {index}")
        if self.input_mask.sum() <= 1 and self.input_mask[index]:
            raise ValueError("cannot mask the last active input")
        self.input_mask[index] = False

    @property
    def active_inputs(self) -> np.ndarray:
        """Indices of inputs that are still unmasked."""
        return np.flatnonzero(self.input_mask)

    def __repr__(self) -> str:  # pragma: no cover - formatting
        return (
            f"MLP(layers={self.layer_sizes}, hidden={self.hidden_act.name}, "
            f"output={self.output_act.name}, active_inputs={int(self.input_mask.sum())})"
        )


class Workspace:
    """Forward/backward evaluation of one network on one fixed batch.

    Binding checks and converts the inputs, applies the input mask and
    allocates every activation, delta and gradient buffer; each later
    ``forward``/``loss``/``backward`` call only does arithmetic into those
    buffers, reading the network's current ``params``. The arrays returned
    are the buffers themselves and are overwritten by the next call. The
    network's layout (sizes, mask) must not change while a workspace is
    in use.

    ``grads`` are per-layer views of the flat gradient vector ``grad``,
    laid out like ``net.params``.

    Ufunc outputs are passed positionally: on these tiny arrays parsing an
    ``out=`` keyword is a measurable share of each call.
    """

    def __init__(self, net: MLP, X: np.ndarray, y: np.ndarray | None = None) -> None:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != net.n_inputs:
            raise ValueError(f"expected {net.n_inputs} inputs, got {X.shape[1]}")
        if not net.input_mask.all():
            X = X * net.input_mask  # broadcast row-wise
        n, sizes, last = X.shape[0], net.layer_sizes, len(net.weights) - 1
        self.layers = [
            (w[1:], w[0], net.output_act if li == last else net.hidden_act)
            for li, w in enumerate(net.weights)
        ]
        self.acts = [X] + [np.empty((n, s)) for s in sizes[1:]]
        self.y = None if y is None else np.asarray(y, dtype=np.float64).reshape(-1, net.n_outputs)
        self.diff, self.sq = np.empty((n, net.n_outputs)), np.empty((n, net.n_outputs))
        self.grad = np.empty(net.n_params)
        self.grads = net.layer_views(self.grad)
        self.deltas = [np.empty((n, s)) for s in sizes[1:]]
        self.derivs = [np.empty((n, s)) for s in sizes[1:]]

    def forward(self) -> list[np.ndarray]:
        """Layer activations, inputs first, output last."""
        a = self.acts[0]
        for (w, b, act), z in zip(self.layers, self.acts[1:]):
            np.matmul(a, w, z)
            np.add(z, b, z)
            act.apply(z)
            a = z
        return self.acts

    def loss(self) -> float:
        """MSE of the last ``forward`` against the targets ``y`` bound."""
        np.subtract(self.acts[-1], self.y, self.diff)
        np.multiply(self.diff, self.diff, self.sq)
        # np.mean's own arithmetic, without its Python-level wrapper.
        return float(np.add.reduce(self.sq, axis=None) / self.sq.size)

    def backward(self) -> None:
        """Fill ``grad`` from the last ``forward``/``loss``."""
        delta = self.deltas[-1]
        # d(loss)/d(output) = 2/(n*q) * diff; each layer's act' turns the
        # incoming delta into d(loss)/d(z) of that layer.
        np.multiply(2.0 / self.diff.size, self.diff, delta)
        for li in range(len(self.layers) - 1, -1, -1):
            w, _, act = self.layers[li]
            if act.deriv_into is not None:
                deriv = self.derivs[li]
                act.deriv_into(self.acts[li + 1], deriv)
                np.multiply(delta, deriv, delta)
            g = self.grads[li]
            np.add.reduce(delta, axis=0, out=g[0])
            np.matmul(self.acts[li].T, delta, g[1:])
            if li > 0:
                delta = np.matmul(delta, w.T, self.deltas[li - 1])
