import numpy as np
import pytest

from flowgnn.errors import BatchTooSmall
from flowgnn.nn import (
    Adam,
    BatchNorm,
    Dense,
    Parameter,
    Tensor,
    dropout,
    dropout_values,
    finite_difference_check,
    mul,
    sum_all,
)


class TestBatchNorm:
    def test_train_two_rows_hand_value(self):
        bn = BatchNorm(1, eps=1e-5)
        y = bn(Tensor([[1.0], [3.0]]), "train")
        expected = 1.0 / np.sqrt(1.0 + 1e-5)
        assert np.allclose(y.data, [[-expected], [expected]])

    def test_eval_identity_statistics(self):
        bn = BatchNorm(2, eps=1e-12)
        y = bn(Tensor([[0.5, -1.0], [2.0, 3.0]]), "eval")
        assert np.allclose(y.data, [[0.5, -1.0], [2.0, 3.0]], atol=1e-9)

    def test_train_single_row_rejected(self):
        bn = BatchNorm(2)
        with pytest.raises(BatchTooSmall):
            bn(Tensor([[1.0, 2.0]]), "train")

    def test_train_output_is_normalized(self, rng):
        # scale the data so eps effects sit far below the tolerance
        bn = BatchNorm(3)
        x = Tensor(rng.normal(loc=50.0, scale=100.0, size=(200, 3)))
        y = bn(x, "train")
        assert np.allclose(y.data.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(y.data.var(axis=0), 1.0, atol=1e-6)

    @pytest.mark.parametrize("shift", [True, False])
    def test_train_statistics_match_numpy_bit_for_bit(self, rng, shift):
        x = rng.normal(loc=3.0, scale=7.0, size=(37, 5))
        x[:, 1] = 2.5  # a constant column has variance exactly 0
        x[:, 3] = rng.normal(scale=1e-200, size=37)
        bn = BatchNorm(5, momentum=0.3, shift=shift)
        bn.gamma.data = rng.normal(size=(1, 5))
        if shift:
            bn.beta.data = rng.normal(size=(1, 5))
        y = bn(Tensor(x), "train")
        mean, var = x.mean(axis=0), x.var(axis=0)
        want = (x - mean) * (1.0 / np.sqrt(var + bn.eps)) * bn.gamma.data
        if shift:
            want = want + bn.beta.data
        assert y.data.tobytes() == want.tobytes()
        assert bn.running_mean.tobytes() == (0.3 * mean).tobytes()
        assert bn.running_var.tobytes() == (0.7 + 0.3 * var).tobytes()

    def test_running_stats_move_toward_batch(self, rng):
        bn = BatchNorm(2, momentum=0.1)
        x = rng.normal(loc=4.0, size=(50, 2))
        bn(Tensor(x), "train")
        assert np.allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * x.mean(axis=0))

    def test_gradients_train_and_eval(self, rng):
        for mode in ("train", "eval"):
            bn = BatchNorm(3, eps=1e-5)
            bn.running_mean = rng.normal(size=3)
            bn.running_var = rng.random(3) + 0.5
            x = Parameter(rng.normal(size=(6, 3)), "x")

            def f():
                return sum_all(mul(bn(x, mode), bn(x, mode)))

            params = [x, bn.gamma, bn.beta]
            report = finite_difference_check(f, params, coords_per_param=6,
                                             rng=np.random.default_rng(3))
            assert report.passed, (mode, report.max_rel_error)

    def test_shiftless_batchnorm_has_no_beta(self):
        bn = BatchNorm(4, shift=False)
        assert bn.beta is None
        assert [p.name for p in bn.parameters()] == ["bn.gamma"]


class TestDropout:
    def test_p_zero_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        assert dropout(x, 0.0, rng, "train") is x

    def test_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        assert dropout(x, 0.9, rng, "eval") is x

    def test_expectation_preserved(self):
        g = np.random.default_rng(0)
        x = Tensor(np.ones((1000, 100)))
        y = dropout(x, 0.5, g, "train")
        assert 0.98 <= y.data.mean() <= 1.02

    def test_survivors_rescaled(self):
        g = np.random.default_rng(1)
        y = dropout(Tensor(np.ones((100, 100))), 0.25, g, "train")
        kept = y.data[y.data != 0.0]
        assert np.allclose(kept, 1.0 / 0.75)

    def test_values_variant_matches_semantics(self):
        g = np.random.default_rng(2)
        vals = dropout_values(np.ones(10000), 0.4, g, "train")
        assert set(np.round(np.unique(vals), 12)) <= {0.0, round(1 / 0.6, 12)}
        assert 0.9 <= vals.mean() <= 1.1


class TestAdam:
    def test_first_step_magnitude(self):
        p = Parameter([[1.0]], "p")
        opt = Adam([p], lr=1e-3)
        p.grad = np.array([[1.0]])
        opt.step()
        assert p.data[0, 0] == pytest.approx(1.0 - 1e-3, abs=1e-6)

    def test_zero_grad_no_move(self):
        p = Parameter([[1.0]], "p")
        opt = Adam([p], lr=1e-3)
        opt.zero_grad()
        opt.step()
        assert p.data[0, 0] == pytest.approx(1.0)

    def test_zero_grad_clears_every_grad(self):
        params = [Parameter(np.ones((2, 3)), "a"), Parameter([[1.0]], "b")]
        opt = Adam(params, lr=1e-3)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.zero_grad()
        assert [p.grad for p in params] == [None, None]

    def test_determinism(self):
        results = []
        for _ in range(2):
            p = Parameter([[1.0, -2.0]], "p")
            opt = Adam([p], lr=1e-2)
            for step in range(5):
                p.grad = np.array([[0.5, -0.25]]) * (step + 1)
                opt.step()
            results.append(p.data.copy())
        assert np.array_equal(results[0], results[1])

    def test_matches_textbook_expressions_bit_for_bit(self, rng):
        shapes = [(5, 3), (1, 3), (16, 16), (1, 1)]
        params = [Parameter(rng.normal(size=s), f"p{i}") for i, s in enumerate(shapes)]
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        expected = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        for t in range(1, 6):
            grads = [rng.normal(size=s) for s in shapes]
            before = [p.data for p in params]
            snapshots = [d.copy() for d in before]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                m_hat = m[i] / (1.0 - b1 ** t)
                v_hat = v[i] / (1.0 - b2 ** t)
                expected[i] = expected[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
                # a saved state holding the old array keeps its values
                assert params[i].data is not before[i]
                assert np.array_equal(before[i], snapshots[i])
        for p, e in zip(params, expected):
            assert p.data.tobytes() == e.tobytes()


class TestDense:
    def test_bias_free_mode(self, rng):
        layer = Dense(3, 2, rng, bias=False, name="d")
        assert layer.b is None
        assert [p.name for p in layer.parameters()] == ["d.W"]

    def test_glorot_bounds(self, rng):
        layer = Dense(10, 20, rng)
        limit = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(layer.W.data) <= limit)
