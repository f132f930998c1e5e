import threading

import numpy as np
import pytest

from flowgnn.errors import NotScalarLoss, NumericalError, ShapeMismatch
from flowgnn.mlp import DenseNetwork
from flowgnn.nn import (
    EVAL,
    BatchNorm,
    Parameter,
    Tensor,
    add,
    concat_cols,
    cross_entropy,
    finite_difference_check,
    gather_rows,
    matmul,
    mul,
    mul_const,
    no_tape,
    relu,
    scatter_rows,
    segment_pool,
    sum_all,
)


def test_dense_identity_weights():
    x = Tensor([[1.0, 2.0]])
    w = Parameter(np.eye(2), "w")
    b = Parameter(np.zeros((1, 2)), "b")
    y = add(matmul(x, w), b)
    assert np.allclose(y.data, [[1.0, 2.0]])


def test_dense_hand_multiplication():
    x = Tensor([[1.0, 2.0]])
    w = Parameter([[3.0], [4.0]], "w")
    b = Parameter([[1.0]], "b")
    y = add(matmul(x, w), b)
    assert y.item() == pytest.approx(12.0)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))


def test_relu_values():
    y = relu(Tensor([[-1.0, 2.0]]))
    assert np.array_equal(y.data, [[0.0, 2.0]])


def _relu_where(x):
    """The np.where form of relu and its gradient, kept as the oracle."""
    mask = x > 0.0
    return np.where(mask, x, 0.0), mask


def test_relu_matches_where_form_bit_for_bit(rng):
    tiny = np.finfo(np.float64).smallest_subnormal
    edge = [0.0, -0.0, tiny, -tiny, 4 * tiny, -4 * tiny, 1e308, -1e308,
            np.finfo(np.float64).max, -np.finfo(np.float64).max]
    x = np.concatenate([edge, rng.normal(size=190), rng.normal(scale=1e-300, size=200)])
    rng.shuffle(x)
    x = x.reshape(20, 20)
    g = rng.normal(size=x.shape)
    g[0] = [0.0, -0.0] * 10  # signed zero gradients keep their sign through the mask
    a = Parameter(x, "a")
    y = relu(a)
    want, mask = _relu_where(x)
    assert y.data.tobytes() == want.tobytes()
    (grad,) = y._backward(g)
    assert grad.tobytes() == (g * mask).tobytes()


def _proba(logits):
    """predict_proba of an mlp whose logits are the given rows: its hidden
    layer lifts each row above zero through relu and its head lowers it back."""
    logits = np.asarray(logits, dtype=np.float64)
    k = logits.shape[1]
    model = DenseNetwork("mlp", k, k, 1, np.random.default_rng(0), num_classes=k)
    for layer, shift in ((model.hidden[0], 2000.0), (model.out, -2000.0)):
        layer.W.data, layer.b.data = np.eye(k), np.full((1, k), shift)
    return model.predict_proba(logits)


def test_softmax_symmetry():
    assert np.array_equal(_proba([[0.0, 0.0]]), [[0.5, 0.5]])


def test_softmax_large_logits_stay_finite():
    y = _proba([[1000.0, 0.0]])
    assert np.all(np.isfinite(y))
    assert y[0, 0] == pytest.approx(1.0)
    assert y[0, 1] == pytest.approx(0.0)


def test_softmax_rows_sum_to_one(rng):
    y = _proba(rng.normal(scale=5.0, size=(40, 7)))
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)


def test_no_tape_nests_and_restores_recording():
    a = Parameter([[1.0, 2.0]], "a")
    with no_tape():
        with no_tape():
            inner = add(a, a)
        outer = mul(a, a)
    after = add(a, a)
    assert inner._parents == () and inner._backward is None
    assert outer._parents == () and outer._backward is None
    assert after._parents == (a, a) and after._backward is not None


def test_no_tape_holds_for_its_own_thread_only():
    a = Parameter([[1.0]], "a")
    seen = []
    worker = threading.Thread(target=lambda: seen.append(add(a, a)._parents))
    with no_tape():
        worker.start()
        worker.join(timeout=10)
        assert add(a, a)._parents == ()
    assert not worker.is_alive() and seen == [(a, a)]


def test_no_tape_keeps_finiteness_checks_and_recovers_from_them():
    big = Tensor([[1e200]])
    with pytest.raises(NumericalError, match="matmul"), np.errstate(over="ignore"):
        with no_tape():
            matmul(big, big)
    assert matmul(big, Tensor([[1.0]]))._parents != ()


def test_cross_entropy_symmetric_case():
    loss = cross_entropy(Tensor([[0.0, 0.0]]), [0])
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_cross_entropy_confident_correct():
    loss = cross_entropy(Tensor([[30.0, -30.0]]), [0])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_hand_value():
    # -log(e^2 / (e^1 + e^2))
    loss = cross_entropy(Tensor([[1.0, 2.0]]), [1])
    assert loss.item() == pytest.approx(0.3132616875182228, abs=1e-12)


def test_cross_entropy_nonnegative(rng):
    for _ in range(20):
        logits = Tensor(rng.normal(size=(5, 4)))
        targets = rng.integers(0, 4, size=5)
        assert cross_entropy(logits, targets).item() >= 0.0


def test_backward_requires_scalar():
    t = Tensor([[1.0, 2.0]])
    with pytest.raises(NotScalarLoss):
        t.backward()


def test_backward_resets_accumulation():
    w = Parameter([[2.0]], "w")
    loss = sum_all(mul(w, w))
    loss.backward()
    first = w.grad.copy()
    loss2 = sum_all(mul(w, w))
    loss2.backward()
    assert np.array_equal(w.grad, first)  # not doubled


def test_backward_sets_grad_on_leaves_only(rng):
    x = Tensor(rng.normal(size=(4, 3)))
    w = Parameter(rng.normal(size=(3, 2)), "w")
    h = matmul(x, w)
    r = relu(h)
    loss = sum_all(mul(r, r))
    loss.backward()
    assert h.grad is None and r.grad is None and loss.grad is None
    mask = (h.data > 0.0).astype(np.float64)
    expected_h = 2.0 * h.data * mask
    assert np.array_equal(w.grad, x.data.T @ expected_h)
    assert np.array_equal(x.grad, expected_h @ w.data.T)
    first = w.grad, x.grad
    loss.backward()  # the tape can be walked again
    assert np.array_equal(w.grad, first[0]) and np.array_equal(x.grad, first[1])
    assert h.grad is None


def test_duplicated_parent_accumulates():
    w = Parameter([[3.0]], "w")
    loss = sum_all(mul(w, w))
    loss.backward()
    assert w.grad[0, 0] == pytest.approx(6.0)


def test_nan_raises_numerical_error():
    with pytest.raises(NumericalError):
        Tensor([[np.nan]])
    big = Tensor([[1e308]])
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        add(big, big)


def test_overflow_names_the_op():
    big = Tensor([[1e200, 1e200]])
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="in matmul"):
        matmul(big, Tensor([[1e200], [1e200]]))
    bn = BatchNorm(2)
    bn.gamma.data = np.full((1, 2), 1e308)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="in batchnorm"):
        bn(Tensor([[10.0, -10.0]]), EVAL)


def test_broadcast_add_gradients():
    x = Parameter(np.arange(6.0).reshape(3, 2), "x")
    b = Parameter(np.zeros((1, 2)), "b")
    loss = sum_all(add(x, b))
    loss.backward()
    assert np.array_equal(b.grad, [[3.0, 3.0]])


def test_scatter_gather_are_transposes(rng):
    # <B x, y> == <x, B^T y> for the coordinate-form propagation ops
    index = np.array([0, 2, 1, 2])
    coeff = rng.random(4)
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(3, 3))
    bx = scatter_rows(Tensor(x), index, coeff, 3)
    bty = gather_rows(Tensor(y), index, coeff)
    assert np.isclose((bx.data * y).sum(), (x * bty.data).sum())


def test_segment_pool_modes():
    x = Tensor([[1.0, 5.0], [3.0, 1.0], [10.0, 10.0]])
    segs = [0, 2, 3]
    assert np.allclose(segment_pool(x, segs, "mean").data, [[2.0, 3.0], [10.0, 10.0]])
    assert np.allclose(segment_pool(x, segs, "add").data, [[4.0, 6.0], [10.0, 10.0]])
    assert np.allclose(segment_pool(x, segs, "max").data, [[3.0, 5.0], [10.0, 10.0]])
    with pytest.raises(ShapeMismatch, match="segment_pool"):
        segment_pool(x, [0, 2], "mean")  # offsets stop short of the last row


@pytest.mark.parametrize("mode,reduce", [("mean", np.mean), ("add", np.sum), ("max", np.max)])
def test_segment_pool_matches_per_segment_reductions(rng, mode, reduce):
    x = rng.normal(size=(20, 4))
    offsets = [0, 1, 7, 12, 20]
    expected = np.vstack([reduce(x[lo:hi], axis=0) for lo, hi in zip(offsets, offsets[1:])])
    assert np.array_equal(segment_pool(Tensor(x), offsets, mode).data, expected)


def test_segment_pool_max_ties_send_gradient_to_first_row():
    # graph 0 ties on rows 1 and 2 (column 0) and rows 0 and 2 (column 1);
    # graph 1 ties on all three rows of column 0
    x = Parameter([[1.0, 4.0], [3.0, 2.0], [3.0, 4.0],
                   [7.0, 0.0], [7.0, 5.0], [7.0, 5.0]], "x")
    pooled = segment_pool(x, [0, 3, 6], "max")
    assert np.array_equal(pooled.data, [[3.0, 4.0], [7.0, 5.0]])
    sum_all(mul_const(pooled, [[1.0, 2.0], [3.0, 4.0]])).backward()
    assert np.array_equal(x.grad, [[0.0, 2.0], [1.0, 0.0], [0.0, 0.0],
                                   [3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])


def test_gather_rows_rejects_negative_index():
    with pytest.raises(ShapeMismatch, match="gather_rows"):
        gather_rows(Tensor(np.ones((3, 2))), np.array([-1]), np.array([1.0]))


@pytest.mark.parametrize("coeff", [[2.0], [1.0, 1.0]])
def test_gather_rows_rejects_coeff_of_wrong_length(coeff):
    with pytest.raises(ShapeMismatch, match="gather_rows"):
        gather_rows(Tensor(np.ones((3, 2))), np.array([0, 1, 2]), np.array(coeff))


def test_scatter_rows_rejects_index_past_output():
    with pytest.raises(ShapeMismatch, match="scatter_rows"):
        scatter_rows(Tensor(np.ones((1, 2))), np.array([5]), np.array([1.0]), 3)


def test_concat_cols_backward(rng):
    a = Parameter(rng.normal(size=(3, 2)), "a")
    b = Parameter(rng.normal(size=(3, 4)), "b")
    loss = sum_all(mul_const(concat_cols([a, b]), np.arange(18.0).reshape(3, 6)))
    loss.backward()
    assert a.grad.shape == (3, 2)
    assert b.grad.shape == (3, 4)
    assert np.array_equal(a.grad, np.arange(18.0).reshape(3, 6)[:, :2])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_composite_expression(seed):
    g = np.random.default_rng(seed)
    w1 = Parameter(g.normal(size=(5, 4)), "w1")
    w2 = Parameter(g.normal(size=(8, 3)), "w2")
    x = g.normal(size=(6, 5))
    index = g.integers(0, 4, size=6)
    coeff = g.random(6) + 0.5

    def f():
        h = relu(matmul(Tensor(x), w1))
        agg = scatter_rows(h, index, coeff, 4)
        gat = gather_rows(agg, index, coeff)
        stacked = concat_cols([gat, h])
        pooled = segment_pool(matmul(stacked, w2), [0, 3, 6], "mean")
        return add(mul_const(sum_all(mul(pooled, pooled)), 0.5),
                   cross_entropy(pooled, [0, 2]))

    report = finite_difference_check(f, [w1, w2], rng=np.random.default_rng(7),
                                     coords_per_param=10)
    assert report.passed, report.failures()


def test_gradcheck_flags_corrupted_gradient():
    # negative control: a loss whose recorded backward is deliberately wrong
    w = Parameter([[2.0]], "w")

    def broken_loss():
        out = sum_all(mul(w, w))
        original = out._backward
        out._backward = lambda g: tuple(c * 1.5 for c in original(g))
        return out

    report = finite_difference_check(broken_loss, [w], coords_per_param=1)
    assert not report.passed
    assert report.max_rel_error > 1e-4


def test_quadratic_gradient_exact():
    w = Parameter([[3.0]], "w")

    def f():
        return sum_all(mul(w, w))

    report = finite_difference_check(f, [w], h=1e-5, coords_per_param=1)
    check = report.checks[0]
    assert check.analytic == pytest.approx(6.0, abs=1e-12)
    assert check.numeric == pytest.approx(6.0, abs=1e-9)
