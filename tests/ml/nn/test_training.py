"""Tests for Rprop / gradient-descent training and early stopping."""

import hashlib

import numpy as np
import pytest

from repro.ml.nn.network import MLP
from repro.ml.nn.training import TrainingConfig, holdout_split, train


def _problem(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    y = 0.2 + 0.5 * X[:, 0] * X[:, 1]  # smooth nonlinear target in [0.2, 0.7]
    return X, y


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"optimizer": "adam"},
            {"max_epochs": 0},
            {"learning_rate": 0.0},
            {"momentum": 1.0},
            {"patience": 0},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainingConfig(**kw)


class TestHoldoutSplit:
    def test_partition(self, rng):
        tr, va = holdout_split(20, 0.25, rng)
        assert len(tr) + len(va) == 20
        assert set(tr.tolist()).isdisjoint(va.tolist())

    def test_zero_fraction(self, rng):
        tr, va = holdout_split(10, 0.0, rng)
        assert len(tr) == 10 and len(va) == 0

    def test_validation_never_everything(self, rng):
        tr, va = holdout_split(3, 0.9, rng)
        assert len(tr) >= 1

    def test_rejects_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            holdout_split(10, 1.0, rng)


class TestRpropTraining:
    def test_loss_decreases(self):
        X, y = _problem()
        net = MLP([2, 8, 1], np.random.default_rng(1))
        initial = net.loss(X, y)
        res = train(net, X, y, TrainingConfig(max_epochs=400))
        assert res.final_train_loss < initial * 0.1

    def test_fits_tightly(self):
        X, y = _problem()
        net = MLP([2, 8, 1], np.random.default_rng(1))
        train(net, X, y, TrainingConfig(max_epochs=2000))
        assert net.loss(X, y) < 1e-4

    def test_history_recorded(self):
        X, y = _problem()
        net = MLP([2, 4, 1], np.random.default_rng(1))
        res = train(net, X, y, TrainingConfig(max_epochs=50))
        assert len(res.loss_history) == res.epochs_run == 50


class TestGdTraining:
    def test_constant_rate_converges_on_easy_problem(self):
        X, y = _problem()
        net = MLP([2, 6, 1], np.random.default_rng(2))
        initial = net.loss(X, y)
        cfg = TrainingConfig(
            optimizer="gd", max_epochs=800, learning_rate=0.3,
            adaptive_rate=False,
        )
        res = train(net, X, y, cfg)
        assert res.final_train_loss < initial * 0.3

    def test_bold_driver_also_converges(self):
        X, y = _problem()
        net = MLP([2, 6, 1], np.random.default_rng(3))
        initial = net.loss(X, y)
        cfg = TrainingConfig(
            optimizer="gd", max_epochs=600, learning_rate=0.2,
            adaptive_rate=True,
        )
        res = train(net, X, y, cfg)
        assert res.final_train_loss < initial * 0.2


class TestTrainingMetrics:
    def test_counts_calls_and_epochs_once_per_call(self, monkeypatch):
        import repro.ml.nn.methods as methods
        import repro.ml.nn.pruning as pruning
        from repro.obs.metrics import default_registry

        runs = []

        def recording_train(*args, **kwargs):
            res = train(*args, **kwargs)
            runs.append(res.epochs_run)
            return res

        monkeypatch.setattr(methods, "train", recording_train)
        monkeypatch.setattr(pruning, "train", recording_train)
        registry = default_registry()
        calls, epochs = registry.counter("ml.nn.train_calls"), registry.counter("ml.nn.epochs")
        calls0, epochs0 = calls.value, epochs.value
        X, y = _problem(n=24)
        methods.build_prune(X, y, np.random.default_rng(3))  # trains, then retrains per removal
        assert len(runs) >= 2
        assert calls.value - calls0 == len(runs)
        assert epochs.value - epochs0 == sum(runs)


class TestEarlyStopping:
    def test_stops_before_max_epochs(self):
        X, y = _problem(n=40)
        rng = np.random.default_rng(4)
        Xv = rng.random((15, 2))
        yv = 0.2 + 0.5 * Xv[:, 0] * Xv[:, 1]
        net = MLP([2, 16, 1], rng)
        cfg = TrainingConfig(max_epochs=10_000, patience=40)
        res = train(net, X, y, cfg, Xv, yv)
        assert res.stopped_early
        assert res.epochs_run < 10_000
        assert res.best_val_loss is not None

    def test_restores_best_weights(self):
        X, y = _problem(n=30)
        rng = np.random.default_rng(5)
        Xv = rng.random((10, 2))
        yv = 0.2 + 0.5 * Xv[:, 0] * Xv[:, 1]
        net = MLP([2, 12, 1], rng)
        res = train(net, X, y, TrainingConfig(max_epochs=3000, patience=60), Xv, yv)
        # After restore, validation loss equals the best seen (within fp noise).
        assert net.loss(Xv, yv) == pytest.approx(res.best_val_loss, rel=1e-9)

    def test_no_validation_runs_to_cap(self):
        X, y = _problem(n=30)
        net = MLP([2, 4, 1], np.random.default_rng(6))
        res = train(net, X, y, TrainingConfig(max_epochs=30))
        assert res.epochs_run == 30
        assert not res.stopped_early
        assert res.best_val_loss is None


def _trajectory_digest(net, res) -> str:
    """sha256 over everything a training run produces: the per-epoch loss
    history, the summary scalars and the final weight bytes."""
    h = hashlib.sha256()
    h.update(np.asarray(res.loss_history, dtype=np.float64).tobytes())
    h.update(repr((res.epochs_run, res.best_val_loss, res.final_train_loss)).encode())
    for w in net.weights:
        h.update(np.ascontiguousarray(w).tobytes())
    return h.hexdigest()


#: name -> (layer sizes, config, validate?, structural edit before training)
_TRAJECTORY_CASES = {
    "rprop-early-stop": ([5, 9, 1], dict(max_epochs=4000, patience=40), True, None),
    "rprop-to-cap": ([5, 7, 1], dict(max_epochs=300), False, None),
    "gd-constant": ([5, 8, 1], dict(optimizer="gd", max_epochs=400, learning_rate=0.15,
                                    adaptive_rate=False, patience=150), True, None),
    "gd-bold-driver": ([5, 8, 1], dict(optimizer="gd", max_epochs=300, learning_rate=2.0),
                       False, None),
    "masked-input": ([5, 9, 1], dict(max_epochs=600, patience=60), True, "mask"),
    "dropped-unit": ([5, 9, 1], dict(max_epochs=600, patience=60), True, "drop"),
    "two-hidden": ([5, 9, 4, 1], dict(max_epochs=800, patience=80), True, None),
}

#: Digests of the trajectories above, generated by the per-layer trainer
#: this flat-buffer trainer replaced; training must stay bit-identical.
_TRAJECTORY_PINS = {
    "rprop-early-stop": "63df6cff1f76cd156fcceb382e629d1193a32594c5741942b8aad83976a416ed",
    "rprop-to-cap": "9f4fc0a34bff26109c9aabc62085d0158bfee5b805eb853ac8cf29873fef843f",
    "gd-constant": "a9c0418e01805815a0248a6255e2d83bdf2116e57ad290d8b71467bb902886d5",
    "gd-bold-driver": "13e39e4e0e26cd8e63e82442cb2a73758d339776bc66b27395e783aab5f899cd",
    "masked-input": "d76454330f500da546170f9099c145b966cf9c37259052b1155a877db1bbbd37",
    "dropped-unit": "c290d938007a5498498803239a465c10e360149e8c1ad6185488e3c8d49c38f5",
    "two-hidden": "d655b1f7e0dde034eb0b91170de51d1021183e8f70f96c8680b0c32c88a00e86",
}


def _run_trajectory(name):
    sizes, kw, validate, edit = _TRAJECTORY_CASES[name]
    rng = np.random.default_rng(2024)
    X = rng.random((23, 5))
    y = 0.3 + 0.4 * np.tanh(X[:, 0] * X[:, 1] - X[:, 2]) + 0.1 * X[:, 3]
    net = MLP(sizes, rng)
    if edit == "mask":
        net.mask_input(2)
    elif edit == "drop":
        net.drop_hidden_unit(0, 3)
    val = (X[17:], y[17:]) if validate else ()
    res = train(net, X[:17], y[:17], TrainingConfig(**kw), *val)
    return net, res


class TestTrajectoryPin:
    @pytest.mark.parametrize("name", sorted(_TRAJECTORY_CASES))
    def test_trajectory_matches_pin(self, name):
        net, res = _run_trajectory(name)
        assert _trajectory_digest(net, res) == _TRAJECTORY_PINS[name]

    def test_cases_cover_what_they_name(self):
        _, res = _run_trajectory("rprop-early-stop")
        assert res.stopped_early
        _, res = _run_trajectory("rprop-to-cap")
        assert res.epochs_run == 300 and not res.stopped_early
        _, res = _run_trajectory("gd-bold-driver")
        h = res.loss_history
        assert any(b > a * (1.0 + 1e-12) for a, b in zip(h, h[1:]))  # a shrink
