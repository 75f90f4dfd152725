"""Tests for the MLP: forward pass, gradients, structural edits."""

import numpy as np
import pytest

from repro.ml.nn.network import MLP


def _net(sizes=(3, 5, 1), seed=0, **kw):
    return MLP(list(sizes), np.random.default_rng(seed), **kw)


class TestConstruction:
    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError):
            _net((3, 1))

    def test_rejects_zero_sizes(self):
        with pytest.raises(ValueError):
            _net((3, 0, 1))

    def test_param_count(self):
        net = _net((3, 5, 1))
        assert net.n_params == (3 + 1) * 5 + (5 + 1) * 1

    def test_reproducible_init(self):
        a, b = _net(seed=9), _net(seed=9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)


class TestForward:
    def test_output_shape(self):
        net = _net()
        X = np.random.default_rng(1).normal(size=(7, 3))
        assert net.predict(X).shape == (7,)

    def test_rejects_wrong_input_width(self):
        with pytest.raises(ValueError):
            _net().predict(np.zeros((2, 4)))

    def test_activations_list_lengths(self):
        net = _net((3, 5, 2, 1))
        acts = net.forward(np.zeros((4, 3)))
        assert [a.shape[1] for a in acts] == [3, 5, 2, 1]

    def test_linear_output_unbounded(self):
        net = _net(output="linear")
        net.weights[-1][:] = 100.0
        assert net.predict(np.ones((1, 3)))[0] > 1.0


class TestGradients:
    @pytest.mark.parametrize("hidden,out", [("sigmoid", "sigmoid"), ("tanh", "linear")])
    def test_matches_finite_differences(self, hidden, out):
        net = _net((3, 4, 1), hidden=hidden, output=out)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 3))
        y = rng.random(6)
        _, grads = net.loss_and_grad(X, y)
        eps = 1e-6
        for li, w in enumerate(net.weights):
            for idx in [(0, 0), (1, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                orig = w[idx]
                w[idx] = orig + eps
                up = net.loss(X, y)
                w[idx] = orig - eps
                dn = net.loss(X, y)
                w[idx] = orig
                num = (up - dn) / (2 * eps)
                assert grads[li][idx] == pytest.approx(num, abs=1e-5), (li, idx)

    def test_loss_nonnegative(self):
        net = _net()
        X = np.zeros((3, 3))
        assert net.loss(X, np.ones(3)) >= 0.0


def _reference_loss_and_grad(net, X, y):
    """Textbook backprop with fresh temporaries: the arithmetic the
    preallocated workspace must reproduce bit for bit."""
    acts = [X * net.input_mask]
    for li, w in enumerate(net.weights):
        act = net.output_act if li == len(net.weights) - 1 else net.hidden_act
        acts.append(act.fn(acts[-1] @ w[1:] + w[0]))
    diff = acts[-1] - y.reshape(-1, 1)
    loss = float(np.mean(diff * diff))
    grads = [None] * len(net.weights)
    delta = (2.0 / diff.size) * diff * net.output_act.deriv_from_output(acts[-1])
    for li in range(len(net.weights) - 1, -1, -1):
        grads[li] = np.vstack([delta.sum(axis=0), acts[li].T @ delta])
        if li > 0:
            delta = (delta @ net.weights[li][1:].T) * net.hidden_act.deriv_from_output(acts[li])
    return loss, grads


class TestWorkspaceMatchesReference:
    @pytest.mark.parametrize("sizes", [(4, 6, 1), (4, 7, 3, 1)])
    @pytest.mark.parametrize("hidden,out", [("tanh", "linear"), ("sigmoid", "sigmoid"),
                                            ("linear", "linear")])
    @pytest.mark.parametrize("rows", [1, 6, 23])
    def test_bit_identical_to_textbook_backprop(self, sizes, hidden, out, rows):
        net = _net(sizes, seed=rows, hidden=hidden, output=out)
        rng = np.random.default_rng(rows)
        X = rng.normal(size=(rows, sizes[0]))
        y = rng.random(rows)
        if rows > 1:
            net.mask_input(1)
        loss, grads = net.loss_and_grad(X, y)
        ref_loss, ref_grads = _reference_loss_and_grad(net, X, y)
        assert loss == ref_loss
        for g, r in zip(grads, ref_grads):
            assert g.tobytes() == r.tobytes()


class TestStructuralEdits:
    def test_drop_hidden_unit_shrinks_layer(self):
        net = _net((3, 5, 1))
        net.drop_hidden_unit(0, 2)
        assert net.hidden_sizes == [4]
        assert net.weights[0].shape == (4, 4)
        assert net.weights[1].shape == (5, 1)

    def test_drop_preserves_other_units_function(self):
        net = _net((3, 5, 1))
        X = np.random.default_rng(3).normal(size=(4, 3))
        # Zero unit 2's outgoing weight so dropping it cannot change output.
        net.weights[1][3, :] = 0.0  # +1 for bias row
        before = net.predict(X)
        net.drop_hidden_unit(0, 2)
        np.testing.assert_allclose(net.predict(X), before, atol=1e-12)

    def test_cannot_drop_last_unit(self):
        net = _net((3, 1, 1))
        with pytest.raises(ValueError):
            net.drop_hidden_unit(0, 0)

    def test_drop_bounds_checked(self):
        net = _net((3, 5, 1))
        with pytest.raises(ValueError):
            net.drop_hidden_unit(1, 0)
        with pytest.raises(ValueError):
            net.drop_hidden_unit(0, 5)

    def test_mask_input_silences_feature(self):
        net = _net()
        X = np.random.default_rng(4).normal(size=(5, 3))
        net.mask_input(1)
        X2 = X.copy()
        X2[:, 1] = 99.0
        np.testing.assert_allclose(net.predict(X), net.predict(X2))

    def test_cannot_mask_all_inputs(self):
        net = _net()
        net.mask_input(0)
        net.mask_input(1)
        with pytest.raises(ValueError):
            net.mask_input(2)

    def test_active_inputs_tracks_mask(self):
        net = _net()
        net.mask_input(0)
        assert net.active_inputs.tolist() == [1, 2]

    def test_weights_are_views_of_one_vector(self):
        net = _net((3, 5, 2, 1))
        assert net.params.size == net.n_params == sum(w.size for w in net.weights)
        assert all(np.shares_memory(w, net.params) for w in net.weights)
        net.params[:] = 0.0
        assert not any(w.any() for w in net.weights)
        net.drop_hidden_unit(0, 1)
        assert net.params.size == sum(w.size for w in net.weights)
        assert all(np.shares_memory(w, net.params) for w in net.weights)

    def test_deepcopy_keeps_views_over_its_own_vector(self):
        import copy

        net = _net((3, 5, 1))
        X = np.random.default_rng(5).normal(size=(4, 3))
        dup = copy.deepcopy(net)
        np.testing.assert_array_equal(dup.predict(X), net.predict(X))
        dup.params[:] = 0.0  # visible through dup's views, not through net's
        assert not dup.predict(X).any()
        assert net.predict(X).any()

    def test_clone_is_independent(self):
        net = _net()
        dup = net.clone()
        dup.weights[0][0, 0] += 1.0
        dup.mask_input(0)
        assert net.weights[0][0, 0] != dup.weights[0][0, 0]
        assert net.input_mask[0] and not dup.input_mask[0]
