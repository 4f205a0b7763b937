"""Gradient-correctness and semantics tests for the autodiff engine."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import clip, log_softmax, ones, sigmoid, sqrt, stack, tanh, zeros
from repro.data import assemble_batch
from repro.data.features import (
    NODE_FEATURE_DIM,
    STATIC_FEATURE_DIM,
    TILE_FEATURE_DIM,
    KernelFeatures,
)
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.nn import Tensor, array_run, no_grad, segment_sum
from repro.nn.tensor import relu_array, relu_inplace, scatter_add_rows

#: float32 bit patterns: NaNs (quiet, signalling, negative), ±0, ±inf,
#: smallest and largest subnormals of both signs, ±1.
SPECIAL_BITS = [
    0x7FC00000, 0x7F800001, 0xFFC00001, 0x00000000, 0x80000000, 0x7F800000,
    0xFF800000, 0x00000001, 0x007FFFFF, 0x80000001, 0x807FFFFF, 0x3F800000,
    0xBF800000,
]


def _small_model_and_batch():
    """A small GraphSAGE model and a two-kernel batch to run it on."""
    gen = np.random.default_rng(5)
    items = []
    for group, n in enumerate((3, 4)):
        kernel = KernelFeatures(
            gen.integers(0, 8, n).astype(np.int64),
            gen.random((n, NODE_FEATURE_DIM)).astype(np.float32),
            np.triu(np.ones((n, n), dtype=np.float32), k=1),
            gen.random(STATIC_FEATURE_DIM).astype(np.float32),
        )
        items.append((kernel, gen.random(TILE_FEATURE_DIM).astype(np.float32), 0.0, group))
    cfg = ModelConfig(hidden_dim=8, opcode_embedding_dim=4, lstm_hidden=6, gnn_layers=1)
    return LearnedPerformanceModel(cfg, seed=0), assemble_batch(items)


def numeric_grad(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central finite differences of scalar-valued f with respect to x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        fp = f()
        x[idx] = old - eps
        fm = f()
        x[idx] = old
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def check_grad(build, x_data, atol=2e-2):
    """Compare autodiff gradient of sum(build(x)) against finite differences."""
    x = Tensor(x_data.copy(), requires_grad=True)
    out = build(x)
    loss = out.sum() if out.size > 1 else out
    loss.backward()

    def f():
        with no_grad():
            o = build(Tensor(x.data))
        return float(o.numpy().sum())

    num = numeric_grad(f, x.data)
    assert x.grad is not None
    np.testing.assert_allclose(x.grad, num, atol=atol, rtol=2e-2)


rng = np.random.default_rng(42)


class TestElementwiseGrads:
    def test_add_mul(self):
        check_grad(lambda x: x * 3.0 + x * x, rng.normal(size=(3, 4)))

    def test_sub_div(self):
        check_grad(lambda x: (x - 1.5) / (x * x + 2.0), rng.normal(size=(4,)))

    def test_exp_log(self):
        check_grad(lambda x: (x.exp() + 1.0).log(), rng.normal(size=(3, 3)))

    def test_tanh_sigmoid(self):
        check_grad(lambda x: tanh(x) * sigmoid(x), rng.normal(size=(5,)))

    def test_relu(self):
        check_grad(lambda x: x.relu() * 2.0, rng.normal(size=(6,)) + 0.3)

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64))
    @example(SPECIAL_BITS)
    @settings(max_examples=200, deadline=None)
    def test_relu_kernel_is_where_for_every_bit_pattern(self, bits):
        x = np.asarray(bits, dtype=np.uint32).view(np.float32)
        expected = np.where(x > 0, x, 0.0)
        with np.errstate(invalid="ignore"):  # quieting a signalling NaN flags it
            got, taped = relu_array(x), Tensor(x).relu().data
            buffer = x.copy()
            written = relu_inplace(buffer)
        assert written is buffer
        assert got.dtype == taped.dtype == written.dtype == expected.dtype == np.float32
        for result in (got, taped, written):
            assert np.array_equal(result.view(np.uint32), expected.view(np.uint32))

    def test_sqrt_abs(self):
        check_grad(lambda x: sqrt(x.abs() + 1.0), rng.normal(size=(4,)))

    def test_pow(self):
        check_grad(lambda x: (x * x + 1.0) ** 1.5, rng.normal(size=(4,)))

    def test_maximum(self):
        y = Tensor(rng.normal(size=(5,)))
        check_grad(lambda x: x.maximum(y), rng.normal(size=(5,)))

    def test_clip(self):
        w = Tensor(rng.normal(size=(8,)))
        check_grad(lambda x: clip(x, -0.5, 0.5) * w, rng.normal(size=(8,)))


class TestMatmulGrads:
    def test_2d(self):
        w = Tensor(rng.normal(size=(4, 3)))
        check_grad(lambda x: x @ w, rng.normal(size=(2, 4)))

    def test_2d_right(self):
        a = Tensor(rng.normal(size=(2, 4)))
        check_grad(lambda x: a @ x, rng.normal(size=(4, 3)))

    def test_batched(self):
        w = Tensor(rng.normal(size=(2, 4, 3)))
        check_grad(lambda x: x @ w, rng.normal(size=(2, 5, 4)))


class TestBroadcastGrads:
    def test_row_vector_broadcast(self):
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)))
        loss = (x + b).sum()
        loss.backward()
        np.testing.assert_allclose(b.grad, np.full(4, 3.0), atol=1e-5)

    def test_scalar_broadcast(self):
        s = Tensor(2.0, requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)))
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, x.numpy().sum(), rtol=1e-5)

    def test_keepdims_broadcast(self):
        check_grad(lambda x: x - x.mean(axis=1, keepdims=True), rng.normal(size=(3, 5)))


class TestReductionGrads:
    def test_sum_axis(self):
        check_grad(lambda x: x.sum(axis=0) * 2.0, rng.normal(size=(3, 4)))

    def test_mean(self):
        check_grad(lambda x: x.mean(), rng.normal(size=(4, 4)))

    def test_max(self):
        # Use distinct values so the max is differentiable.
        x = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        check_grad(lambda t: t.max(axis=1), x)

    def test_max_keepdims(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4) / 5.0
        check_grad(lambda t: t - t.max(axis=1, keepdims=True), x)


class TestShapeGrads:
    def test_reshape_transpose(self):
        check_grad(lambda x: x.reshape(6, 2).transpose(1, 0), rng.normal(size=(3, 4)))

    def test_getitem(self):
        check_grad(lambda x: x[1:, :2] * 3.0, rng.normal(size=(3, 4)))

    def test_concat(self):
        y = Tensor(rng.normal(size=(2, 3)))
        check_grad(lambda x: Tensor.concat([x, y], axis=0), rng.normal(size=(2, 3)))

    def test_stack(self):
        y = Tensor(rng.normal(size=(3,)))
        check_grad(lambda x: stack([x, y], axis=0), rng.normal(size=(3,)))

    def test_take_rows(self):
        idx = np.array([0, 2, 2, 1])
        check_grad(lambda x: x.take_rows(idx), rng.normal(size=(3, 4)))


class TestSoftmaxGrads:
    def test_softmax(self):
        check_grad(lambda x: x.softmax(axis=-1) ** 2.0, rng.normal(size=(3, 5)))

    def test_log_softmax(self):
        check_grad(lambda x: log_softmax(x, axis=-1) * 0.5, rng.normal(size=(2, 6)))

    def test_masked_softmax_zeros_invalid(self):
        mask = np.array([[True, True, False]])
        out = Tensor(rng.normal(size=(1, 3))).softmax(axis=-1, mask=mask)
        assert out.numpy()[0, 2] == 0.0
        assert out.numpy()[0, :2].sum() == pytest.approx(1.0, abs=1e-5)


class TestEngine:
    def test_grad_accumulates_over_paths(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0], rtol=1e-6)

    def test_diamond_graph_single_backward(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a = x * 2.0
        b = a + a  # two paths through `a`
        b.sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0], rtol=1e-6)

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_keeps_no_backward_state(self, monkeypatch):
        """An op off the tape computes nothing only its backward reads:
        transpose's inverse permutation, concat's split points, abs's sign."""
        calls = []

        def counted(name):
            real = getattr(np, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("argsort", "cumsum", "sign"):
            monkeypatch.setattr(np, name, counted(name))
        x = Tensor(np.arange(6.0).reshape(2, 3) - 2.0, requires_grad=True)
        with no_grad():
            x.transpose(1, 0)
            Tensor.concat([x, x], axis=1)
            x.abs()
            x.relu()
            x.maximum(x * 0.5)
        assert calls == []
        x.transpose(1, 0).sum().backward()
        assert calls == ["argsort"]

    def test_no_grad_is_thread_local(self):
        # A serving thread under no_grad() must not disable the tape for a
        # concurrently training thread (the train-while-serving workflow).
        import threading

        inside = threading.Event()
        release = threading.Event()

        def infer():
            with no_grad():
                inside.set()
                release.wait(timeout=5)

        worker = threading.Thread(target=infer)
        worker.start()
        try:
            assert inside.wait(timeout=5)
            x = Tensor(np.ones(3), requires_grad=True)
            y = x * 2.0  # built while the other thread sits in no_grad()
            assert y.requires_grad
            y.sum().backward()
            np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0], rtol=1e-6)
        finally:
            release.set()
            worker.join()

    def test_array_run_is_thread_local(self):
        # A serving thread's predict must not take a concurrently training
        # thread's forward off the tape.
        import threading

        model, batch = _small_model_and_batch()
        inside = threading.Event()
        release = threading.Event()

        def infer():
            with array_run():
                inside.set()
                release.wait(timeout=5)

        worker = threading.Thread(target=infer)
        worker.start()
        try:
            assert inside.wait(timeout=5)
            assert isinstance(model(batch), Tensor)
        finally:
            release.set()
            worker.join()

    def test_an_exception_in_predict_leaves_the_tape_on(self):
        model, batch = _small_model_and_batch()
        with mock.patch.object(model, "_gnn_operands", side_effect=RuntimeError("boom")):
            with pytest.raises(RuntimeError, match="boom"):
                model.predict(batch)
        out = model(batch)
        assert isinstance(out, Tensor) and out.requires_grad

    def test_detach(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x.detach() * 5.0
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_integer_tensors_stay_integer(self):
        t = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.data.dtype, np.integer)

    @pytest.mark.parametrize(
        "dtype",
        [
            np.int8, np.int16, np.int32, np.int64,
            np.uint8, np.uint16, np.uint32, np.uint64,
            np.bool_, np.float16, np.float32, np.float64,
        ],
    )
    def test_dtype_table(self, dtype):
        """Signed and unsigned integers are index carriers and keep their
        dtype; everything else, bool included, becomes float32."""
        data = Tensor(np.ones(3, dtype=dtype)).data
        if np.issubdtype(dtype, np.integer):
            assert data.dtype == dtype
        else:
            assert data.dtype == np.float32
        np.testing.assert_array_equal(data, np.ones(3))

    def test_dtype_of_python_values(self):
        assert Tensor([1, 2, 3]).data.dtype.kind == "i"
        assert Tensor(2).data.dtype.kind == "i"
        assert Tensor([1.0, 2.0]).data.dtype == np.float32
        assert Tensor(0.5).data.dtype == np.float32
        assert Tensor([True, False]).data.dtype == np.float32

    def test_item_and_helpers(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)
        assert zeros((2, 2)).numpy().sum() == 0.0
        assert ones((2, 2)).numpy().sum() == 4.0

    def test_T_property(self):
        x = Tensor(rng.normal(size=(2, 3)))
        assert x.T.shape == (3, 2)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=4),
            elements=st.floats(-2, 2, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_sum_grad_is_ones(self, arr):
        x = Tensor(arr, requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(x.data), rtol=1e-6)


#: float32 values whose sums depend on the order they are added in, and
#: both zeros (np.add.at turns a lone -0.0 into +0.0: it adds into +0.0).
SCATTER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3e7, -3e7]),
    st.floats(-1e4, 1e4, width=32),
)


def add_at(shape, key, values) -> np.ndarray:
    """The oracle: ``np.add.at`` into float32 zeros."""
    full = np.zeros(shape, dtype=np.float32)
    np.add.at(full, key, values)
    return full


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def scatters(draw):
    """(num_rows, index, values): duplicate indices, unused rows, empty
    and 2-D indices, and values with 0 to 2 trailing axes."""
    num_rows = draw(st.integers(1, 9))
    index_shape = draw(st.sampled_from([(0,), (1,), (7,), (23,), (3, 4)]))
    index = draw(hnp.arrays(np.int64, index_shape, elements=st.integers(0, num_rows - 1)))
    trailing = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    values = draw(hnp.arrays(np.float32, index_shape + trailing, elements=SCATTER_VALUES))
    return num_rows, index, values


class TestScatterIsAddAt:
    """``scatter_add_rows`` — the backward of ``take_rows`` and
    ``__getitem__`` and the forward of ``segment_sum`` — equals
    ``np.add.at`` bit for bit, signs of zero included."""

    @given(scatters())
    @settings(max_examples=150, deadline=None)
    @example((3, np.array([1, 1, 2]), np.array([-0.0, -0.0, -0.0], dtype=np.float32)))
    @example((2, np.array([0, 0, 0]), np.array([3e7, 1.0, -3e7], dtype=np.float32)))
    def test_scatter_add_rows(self, case):
        num_rows, index, values = case
        want = add_at((num_rows,) + values.shape[index.ndim :], index, values)
        got = scatter_add_rows(index, values, num_rows)
        assert_same_bits(got, want)
        assert not np.shares_memory(got, values)

    @given(scatters())
    @settings(max_examples=60, deadline=None)
    def test_take_rows_backward(self, case):
        num_rows, index, grad = case
        x = Tensor(np.ones((num_rows,) + grad.shape[index.ndim :]), requires_grad=True)
        out = x.take_rows(index)
        out.backward(grad)
        assert_same_bits(x.grad, add_at(x.shape, index, grad))

    @given(scatters())
    @settings(max_examples=60, deadline=None)
    def test_segment_sum_forward(self, case):
        num_rows, index, values = case
        if index.ndim != 1:
            index, values = index.reshape(-1), values.reshape((-1,) + values.shape[2:])
        out = segment_sum(Tensor(values), index, num_rows).numpy()
        assert_same_bits(out, add_at((num_rows,) + values.shape[1:], index, values))

    @pytest.mark.parametrize(
        "key",
        [
            (slice(1, None), slice(None, 2)),
            np.array([2, 0, 2, 2]),
            (np.array([0, 1, 1]), np.array([3, 3, 3])),
            (slice(None), np.array([1, 1, 0])),
            (np.array([[1, 1], [0, 1]]), slice(None), np.array([[2, 2], [0, 2]])),
            np.array([True, False, True]),
            (Ellipsis, 1),
        ],
    )
    def test_getitem_backward(self, key):
        r = np.random.default_rng(5)
        x = Tensor(r.normal(size=(3, 4, 3)), requires_grad=True)
        out = x[key]
        grad = (r.normal(size=out.shape) * 1e4).astype(np.float32)
        grad.reshape(-1)[::3] = -0.0
        out.backward(grad)
        assert_same_bits(x.grad, add_at(x.shape, key, grad))
