import numpy as np
import pytest

from flowgnn.errors import InconsistentDimension
from flowgnn.preprocess import Standardizer, standardize_fit


class TestRemoveConstantColumns:
    def test_constant_column_removed(self):
        matrix = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 5.0]])
        standardizer = standardize_fit(matrix)
        assert standardizer.kept_columns.tolist() == [1]
        assert standardizer(matrix).shape == (3, 1)

    def test_below_tolerance_removed(self):
        matrix = np.array([[1.0, 0.0], [1.0 + 1e-15, 1.0]])
        assert standardize_fit(matrix).kept_columns.tolist() == [1]

    def test_above_tolerance_kept(self):
        matrix = np.array([[1.0, 0.0], [1.0 + 1e-9, 1.0]])
        assert standardize_fit(matrix).kept_columns.tolist() == [0, 1]

    def test_fit_rows_drive_selection(self):
        fit = np.array([[1.0, 2.0], [1.0, 3.0]])
        matrix = np.array([[9.0, 9.0], [8.0, 7.0]])
        standardizer = standardize_fit(fit)
        assert standardizer.kept_columns.tolist() == [1]
        assert np.array_equal(standardizer(matrix), [[(9.0 - 2.5) / 0.5], [(7.0 - 2.5) / 0.5]])


class TestStandardizer:
    def test_hand_computed_two_values(self):
        standardizer = standardize_fit(np.array([[1.0], [3.0]]))
        assert standardizer.mean[0] == pytest.approx(2.0)
        assert standardizer.std[0] == pytest.approx(1.0)  # population
        out = standardizer(np.array([[1.0], [3.0]]))
        assert np.allclose(out, [[-1.0], [1.0]])

    def test_train_rows_centered(self, rng):
        rows = rng.normal(loc=5.0, scale=3.0, size=(50, 4))
        standardizer = standardize_fit(rows)
        out = standardizer(rows)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_same_affine_map_out_of_range(self):
        standardizer = standardize_fit(np.array([[0.0], [2.0]]))
        out = standardizer(np.array([[100.0]]))
        assert out[0, 0] == pytest.approx(99.0)  # (100 - 1) / 1, no clipping

    def test_constant_columns_dropped_before_scaling(self):
        rows = np.array([[7.0, 1.0], [7.0, 3.0]])
        standardizer = standardize_fit(rows)
        assert standardizer.kept_columns.tolist() == [1]
        assert standardizer(rows).shape == (2, 1)

    def test_never_divides_by_zero(self, rng):
        for _ in range(50):
            rows = rng.normal(size=(5, 6))
            rows[:, rng.integers(6)] = rng.normal()  # one constant column
            standardizer = standardize_fit(rows)
            assert np.all(standardizer.std > 0.0)

    def test_round_trip_dict(self, rng):
        standardizer = standardize_fit(rng.normal(size=(10, 3)))
        clone = Standardizer.from_dict(standardizer.to_dict())
        rows = rng.normal(size=(4, 3))
        assert np.array_equal(standardizer(rows), clone(rows))


def test_narrower_rows_rejected_with_both_widths():
    standardizer = standardize_fit(np.array([[0.0, 1.0, 2.0, 5.0], [1.0, 1.0, 4.0, 7.0]]))
    assert standardizer(np.zeros((2, 4))).shape == (2, 3)
    with pytest.raises(InconsistentDimension, match="rows have 3 columns.*at least 4"):
        standardizer(np.zeros((2, 3)))
