"""Tests for modules, layers, optimizers and losses."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import (
    MLP,
    Adam,
    Dense,
    Embedding,
    LayerNorm,
    Tensor,
    clip_global_norm,
    log_mse_loss,
    pairwise_rank_loss,
)

rng = np.random.default_rng(11)


class TestModule:
    def test_parameters_collected_recursively(self):
        m = MLP([4, 8, 2])
        assert len(m.parameters()) == 2  # two weight matrices, no biases
        assert m.num_parameters() == 4 * 8 + 8 * 2

    def test_named_parameters_unique(self):
        m = MLP([4, 8, 8, 2])
        names = [n for n, _ in m.named_parameters()]
        assert len(names) == len(set(names))

    def test_state_dict_roundtrip(self):
        m1 = MLP([4, 8, 2], rng=np.random.default_rng(1))
        m2 = MLP([4, 8, 2], rng=np.random.default_rng(2))
        x = Tensor(rng.normal(size=(3, 4)))
        assert not np.allclose(m1(x).numpy(), m2(x).numpy())
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_allclose(m1(x).numpy(), m2(x).numpy(), rtol=1e-6)

    def test_load_state_dict_missing_key(self):
        m = MLP([4, 2])
        with pytest.raises(KeyError):
            m.load_state_dict({})

    def test_load_state_dict_shape_mismatch(self):
        m = MLP([4, 2])
        state = m.state_dict()
        name = next(iter(state))
        state[name] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            m.load_state_dict(state)


class TestDense:
    def test_shapes(self):
        d = Dense(4, 7)
        assert d(Tensor(rng.normal(size=(3, 4)))).shape == (3, 7)

    def test_activations(self):
        x = Tensor(rng.normal(size=(5, 4)))
        assert (Dense(4, 3, activation="relu")(x).numpy() >= 0).all()

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            Dense(4, 3, activation="gelu")
        with pytest.raises(ValueError):
            Dense(4, 3, activation="tanh")

    def test_weight_is_the_only_parameter(self):
        assert len(Dense(4, 3).parameters()) == 1


def _tape_dense(layer, x):
    """``Dense`` as the separate tape ops it used to record: matmul, then
    activation. The one-node :class:`Dense` is checked against it."""
    y = x @ layer.weight
    return y if layer.activation is None else y.relu()


class TestDenseAgainstTheCompositeTape:
    """One node, the same bits: output, ``x.grad`` and the weight gradient,
    for each activation, on 2-D rows and the Transformer's 3-D
    [batch, time, dim] inputs."""

    @given(
        leading=st.sampled_from([(1,), (6,), (33,), (1, 1), (3, 5), (2, 17)]),
        dims=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        activation=st.sampled_from([None, "relu"]),
        x_grad=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_the_composite_tape(self, leading, dims, activation, x_grad, seed):
        r = np.random.default_rng(seed)
        in_dim, out_dim = dims
        x_data = (r.normal(size=leading + (in_dim,)) * 3).astype(np.float32)
        upstream = r.normal(size=leading + (out_dim,)).astype(np.float32)
        upstream[r.random(upstream.shape) < 0.2] = -0.0
        runs = []
        for forward in (Dense.__call__, _tape_dense):
            layer = Dense(in_dim, out_dim, activation=activation, rng=np.random.default_rng(seed))
            x = Tensor(x_data, requires_grad=x_grad)
            out = forward(layer, x)
            (out * Tensor(upstream)).sum().backward()
            runs.append([out.numpy(), x.grad, *(p.grad for p in layer.parameters())])
        (got, want) = runs
        assert (got[1] is None) == (want[1] is None) == (not x_grad)
        for a, b in zip(got, want):
            if b is not None:
                assert a.dtype == b.dtype == np.float32 and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        assert layer.apply(x_data).tobytes() == want[0].tobytes()  # predict's path


class TestEmbedding:
    def test_lookup_shape(self):
        e = Embedding(10, 6)
        out = e(np.array([1, 3, 3]))
        assert out.shape == (3, 6)

    def test_gradient_flows_to_rows(self):
        e = Embedding(10, 4)
        out = e(np.array([2, 2, 5]))
        out.sum().backward()
        g = e.table.grad
        np.testing.assert_allclose(g[2], 2.0 * np.ones(4), rtol=1e-5)
        np.testing.assert_allclose(g[5], np.ones(4), rtol=1e-5)
        np.testing.assert_allclose(g[0], np.zeros(4))


class TestLayerNorm:
    def test_layer_norm_standardizes(self):
        ln = LayerNorm(16)
        x = Tensor(rng.normal(2.0, 3.0, size=(8, 16)))
        y = ln(x).numpy()
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-2)


class TestOptimizers:
    def quadratic(self, opt_cls, **kw):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = opt_cls([x], **kw)
        for _ in range(200):
            loss = (x * x).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        return np.abs(x.data).max()

    def test_adam_converges(self):
        assert self.quadratic(Adam, lr=0.3) < 1e-2

    def test_adam_first_step_moves_each_coordinate_by_lr(self):
        # Bias correction makes step one lr * g / (|g| + eps) per coordinate.
        x = Tensor(np.array([5.0, -3.0], dtype=np.float32), requires_grad=True)
        opt = Adam([x], lr=0.1)
        (x * x).sum().backward()
        opt.step()
        np.testing.assert_allclose(x.data, [4.9, -2.9], rtol=1e-6)
        assert x.data.dtype == np.float32

    def test_adam_skips_parameters_without_grad(self):
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        opt = Adam([a, b], lr=0.1)
        (a * a).sum().backward()
        opt.step()
        np.testing.assert_array_equal(b.data, [1.0, 1.0])
        assert not np.array_equal(a.data, [1.0, 1.0])
        assert opt.step_count == 1

    def test_adam_zero_grad_clears_every_parameter(self):
        params = [Tensor(np.ones(2), requires_grad=True) for _ in range(2)]
        opt = Adam(params)
        sum((p * p).sum() for p in params).backward()
        assert all(p.grad is not None for p in params)
        opt.zero_grad()
        assert all(p.grad is None for p in params)

    def test_lr_decay_schedule(self):
        x = Tensor(np.zeros(1), requires_grad=True)
        opt = Adam([x], lr=1.0, decay=0.5, decay_every=10)
        assert opt.lr == 1.0
        opt.step_count = 10
        assert opt.lr == 0.5
        opt.step_count = 25
        assert opt.lr == 0.25

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Tensor(np.zeros(1), requires_grad=True)], lr=0.0)

    def test_clip_global_norm(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        a.grad = np.array([3.0, 0.0, 4.0], dtype=np.float32)  # norm 5
        norm = clip_global_norm([a], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(a.grad) == pytest.approx(1.0, rel=1e-5)

    def test_clip_noop_below_threshold(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.3, 0.4], dtype=np.float32)
        clip_global_norm([a], max_norm=10.0)
        np.testing.assert_allclose(a.grad, [0.3, 0.4], rtol=1e-6)


class TestLosses:
    def test_log_mse_zero_for_exact(self):
        target = np.array([1e-6, 1e-3, 0.5])
        pred = Tensor(np.log(target))
        assert log_mse_loss(pred, target).item() == pytest.approx(0.0, abs=1e-6)

    def test_log_mse_positive_otherwise(self):
        target = np.array([1e-6, 1e-3])
        pred = Tensor(np.array([0.0, 0.0]))
        assert log_mse_loss(pred, target).item() > 0

    def test_rank_loss_zero_for_separated_scores(self):
        # Correct order with margin > 1 -> hinge loss 0.
        target = np.array([1.0, 2.0, 3.0])
        pred = Tensor(np.array([0.0, 5.0, 10.0]))
        groups = np.zeros(3, dtype=int)
        loss = pairwise_rank_loss(pred, target, groups, phi="hinge")
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_rank_loss_penalizes_inversions(self):
        target = np.array([1.0, 2.0])
        good = pairwise_rank_loss(Tensor(np.array([0.0, 5.0])), target, np.zeros(2, int))
        bad = pairwise_rank_loss(Tensor(np.array([5.0, 0.0])), target, np.zeros(2, int))
        assert bad.item() > good.item()

    def test_rank_loss_ignores_cross_group_pairs(self):
        target = np.array([1.0, 2.0])
        pred = Tensor(np.array([5.0, 0.0]))  # inverted
        loss = pairwise_rank_loss(pred, target, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-7)

    def test_rank_loss_logistic_positive_everywhere(self):
        target = np.array([1.0, 2.0, 3.0])
        pred = Tensor(np.array([0.0, 5.0, 10.0]))
        loss = pairwise_rank_loss(pred, target, np.zeros(3, int), phi="logistic")
        assert loss.item() > 0  # log(1+e^-z) > 0 for finite z

    def test_rank_loss_unknown_phi(self):
        with pytest.raises(ValueError):
            pairwise_rank_loss(
                Tensor(np.zeros(2)), np.array([1.0, 2.0]), np.zeros(2, int), phi="huber"
            )
