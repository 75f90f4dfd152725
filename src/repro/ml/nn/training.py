"""Gradient-descent training with momentum, adaptive rate, early stopping.

Clementine-era networks were trained by batch backpropagation ("variation of
steepest descent", paper §3.2). We implement:

* **Rprop** (resilient backpropagation, Riedmiller & Braun 1993): per-weight
  adaptive step sizes driven by gradient signs. This is the default batch
  trainer — it is period-appropriate, has no learning-rate tuning problem,
  and converges an order of magnitude deeper than plain gradient descent on
  these small regression sets;
* plain full-batch gradient descent with classical momentum and either a
  constant rate (NN-S — the paper specifies the Single-layer method has "a
  constant learning rate") or *bold-driver* adaptation;
* early stopping on a held-out validation split with weight restore —
  the mechanism whose *absence* in a final full-data fit makes the
  chronological neural nets over-fit exactly as the paper reports.

Datasets here are small (tens to hundreds of records), so full-batch
updates are the faithful choice, and an epoch costs Python dispatch more
than arithmetic. :func:`train` therefore binds one
:class:`~repro.ml.nn.network.Workspace` per batch (train, validation) and
flat optimizer state laid out like ``MLP.params`` once per call; an epoch
is then one forward/loss/backward pass into preallocated buffers, one
update over the whole parameter vector and, on a new best validation
loss, one snapshot copy. Every floating-point operation and RNG draw
happens in the same order as in the textbook per-layer trainer, so loss
histories, stopping epochs and final weights are bit-identical to it
(pinned by ``tests/ml/nn/test_training.py::TestTrajectoryPin``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import NumericalError
from repro.ml.nn.network import MLP, Workspace
from repro.obs.metrics import default_registry as _metrics

__all__ = ["TrainingConfig", "TrainingResult", "train", "holdout_split"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for one training run.

    Attributes
    ----------
    optimizer:
        ``"rprop"`` (default) or ``"gd"`` (plain gradient descent).
    max_epochs:
        Upper bound on epochs.
    learning_rate:
        Initial (or constant) step size — gd only.
    momentum:
        Classical momentum coefficient — gd only.
    adaptive_rate:
        Enable bold-driver adaptation for gd; ``False`` keeps the rate
        constant (the NN-S behaviour).
    patience:
        Stop after this many epochs without validation improvement
        (ignored when no validation set is provided).
    min_delta:
        Minimum relative improvement that resets patience.
    divergence_factor:
        Training is declared divergent — a typed
        :class:`~repro.errors.NumericalError` with cause ``nn-divergence``
        — when the loss goes NaN/Inf or exceeds
        ``divergence_factor × max(first loss, 1)``. Clean runs never get
        near the bound, so detection changes no numbers.
    """

    optimizer: str = "rprop"
    max_epochs: int = 2000
    learning_rate: float = 0.2
    momentum: float = 0.9
    adaptive_rate: bool = True
    rate_grow: float = 1.05
    rate_shrink: float = 0.5
    min_rate: float = 1e-5
    max_rate: float = 2.0
    patience: int = 100
    min_delta: float = 1e-5
    divergence_factor: float = 1e6
    # Rprop constants (Riedmiller & Braun defaults).
    rprop_init: float = 0.01
    rprop_grow: float = 1.2
    rprop_shrink: float = 0.5
    rprop_min: float = 1e-7
    rprop_max: float = 1.0

    def __post_init__(self) -> None:
        if self.optimizer not in ("rprop", "gd"):
            raise ValueError(f"optimizer must be 'rprop' or 'gd', got {self.optimizer!r}")
        if self.max_epochs <= 0:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (0.0 < self.learning_rate <= self.max_rate):
            raise ValueError(f"learning_rate must be in (0, {self.max_rate}]")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.patience <= 0:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.divergence_factor <= 1.0:
            raise ValueError(
                f"divergence_factor must be > 1, got {self.divergence_factor}"
            )


@dataclass
class TrainingResult:
    """Outcome of :func:`train`."""

    final_train_loss: float
    best_val_loss: float | None
    epochs_run: int
    stopped_early: bool
    loss_history: list[float] = field(default_factory=list, repr=False)


def holdout_split(
    n: int, val_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random (train_idx, val_idx) split; validation gets >= 1 record when
    ``val_fraction > 0`` and ``n >= 2``."""
    if not (0.0 <= val_fraction < 1.0):
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
    if val_fraction == 0.0 or n < 2:
        return np.arange(n), np.empty(0, dtype=int)
    n_val = min(max(int(round(val_fraction * n)), 1), n - 1)
    perm = rng.permutation(n)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _rprop(config: TrainingConfig, params: np.ndarray, grad: np.ndarray):
    """Rprop- over the flat parameter vector: per-weight signed steps that
    grow while the gradient sign holds, and on a sign flip shrink and skip
    that weight's update."""
    n = params.size
    step = np.full(n, config.rprop_init)
    sign, prev_sign, prod, tmp = np.empty(n), np.zeros(n), np.empty(n), np.empty(n)
    agree, flip = np.empty(n, dtype=bool), np.empty(n, dtype=bool)

    def update(loss: float, epoch: int) -> None:
        nonlocal sign, prev_sign
        np.sign(grad, sign)
        np.multiply(sign, prev_sign, prod)
        np.greater(prod, 0.0, agree)
        np.less(prod, 0.0, flip)
        np.multiply(step, config.rprop_grow, tmp)
        np.minimum(tmp, config.rprop_max, out=tmp)  # out only by keyword here
        np.copyto(step, tmp, where=agree)
        np.multiply(step, config.rprop_shrink, tmp)
        np.maximum(tmp, config.rprop_min, out=tmp)
        np.copyto(step, tmp, where=flip)
        np.copyto(sign, 0.0, where=flip)
        np.multiply(sign, step, tmp)
        np.subtract(params, tmp, params)
        sign, prev_sign = prev_sign, sign

    return update


def _gd(config: TrainingConfig, params: np.ndarray, grad: np.ndarray):
    """Full-batch gradient descent with classical momentum; with
    ``adaptive_rate`` the bold driver grows the rate after an improving
    epoch and, after a worsening one, shrinks it and damps the momentum."""
    velocity, tmp = np.zeros(params.size), np.empty(params.size)
    lr, prev_loss = config.learning_rate, np.inf

    def update(loss: float, epoch: int) -> None:
        nonlocal lr, prev_loss
        if config.adaptive_rate and loss > prev_loss * (1.0 + 1e-12) and epoch > 0:
            lr = max(lr * config.rate_shrink, config.min_rate)
            np.multiply(velocity, 0.0, velocity)
        elif config.adaptive_rate:
            lr = min(lr * config.rate_grow, config.max_rate)
        prev_loss = loss
        np.multiply(velocity, config.momentum, velocity)
        np.multiply(grad, lr, tmp)
        np.subtract(velocity, tmp, velocity)
        np.add(params, velocity, params)

    return update


def train(
    net: MLP,
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    X_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
) -> TrainingResult:
    """Train ``net`` in place; returns the run summary.

    When a validation set is given, the weights achieving the lowest
    validation loss are restored at the end (early stopping with restore).
    Each call adds 1 to the ``ml.nn.train_calls`` counter and the epochs it
    ran to ``ml.nn.epochs`` (default metrics registry), also when it raises.
    """
    has_val = X_val is not None and y_val is not None and len(np.atleast_1d(y_val)) > 0
    fit = Workspace(net, X, y)
    val = Workspace(net, X_val, y_val) if has_val else None
    params = net.params
    optimizer = _rprop if config.optimizer == "rprop" else _gd
    update = optimizer(config, params, fit.grad)
    best_val = np.inf
    best_params = np.empty_like(params)
    since_best = 0
    history: list[float] = []
    stopped_early = False
    epochs_run = 0

    loss_bound: float | None = None
    try:
        for epoch in range(config.max_epochs):
            epochs_run = epoch + 1
            fit.forward()
            loss = fit.loss()
            history.append(loss)
            if loss_bound is None:
                loss_bound = max(loss if math.isfinite(loss) else 1.0, 1.0) \
                    * config.divergence_factor
            if not math.isfinite(loss) or loss > loss_bound:
                _metrics().counter("robust.nn.divergence").inc()
                raise NumericalError(
                    f"training diverged at epoch {epochs_run}: loss={loss!r} "
                    f"(bound {loss_bound:.3g})",
                    cause="nn-divergence",
                    context={"epoch": epochs_run, "loss": loss,
                             "bound": float(loss_bound), "optimizer": config.optimizer},
                )
            fit.backward()
            update(loss, epoch)

            if val is not None:
                val.forward()
                val_loss = val.loss()
                if not math.isfinite(val_loss):
                    _metrics().counter("robust.nn.divergence").inc()
                    raise NumericalError(
                        f"validation loss went non-finite at epoch {epochs_run}",
                        cause="nn-divergence",
                        context={"epoch": epochs_run, "loss": val_loss,
                                 "optimizer": config.optimizer},
                    )
                if val_loss < best_val * (1.0 - config.min_delta):
                    best_val = val_loss
                    np.copyto(best_params, params)
                    since_best = 0
                else:
                    since_best += 1
                    if since_best >= config.patience:
                        stopped_early = True
                        break
    finally:
        _metrics().counter("ml.nn.train_calls").inc()
        _metrics().counter("ml.nn.epochs").inc(epochs_run)

    has_best = has_val and math.isfinite(best_val)
    if has_best:
        np.copyto(params, best_params)
    fit.forward()
    return TrainingResult(
        final_train_loss=fit.loss(),
        best_val_loss=best_val if has_best else None,
        epochs_run=epochs_run,
        stopped_early=stopped_early,
        loss_history=history,
    )
