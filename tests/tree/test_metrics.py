import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tree import metrics

COUNTS = st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=5)


def test_gini_pure_node_is_zero():
    assert metrics.gini_impurity(np.array([10, 0, 0])) == 0.0


def test_gini_uniform_is_max():
    assert metrics.gini_impurity(np.array([5, 5])) == pytest.approx(0.5)
    assert metrics.gini_impurity(np.array([4, 4, 4, 4])) == pytest.approx(0.75)


def test_gini_empty_node():
    assert metrics.gini_impurity(np.array([0, 0])) == 0.0


@given(counts=COUNTS)
def test_gini_bounds(counts):
    g = metrics.gini_impurity(np.array(counts))
    assert 0.0 <= g <= 1.0


def test_variance_constant_labels():
    assert metrics.label_variance(np.array([3.0, 3.0, 3.0])) == pytest.approx(0.0)


def test_variance_matches_numpy():
    y = np.array([1.0, 2.0, 4.0, 8.0])
    assert metrics.label_variance(y) == pytest.approx(float(np.var(y)))


def test_gini_gain_perfect_split():
    # Parent: 5 of class 0, 5 of class 1; split separates them completely.
    gain = metrics.gini_gain(np.array([5, 0]), np.array([0, 5]))
    assert gain == pytest.approx(0.5)  # impurity drops from 0.5 to 0


def test_gini_gain_useless_split():
    gain = metrics.gini_gain(np.array([2, 2]), np.array([2, 2]))
    assert gain == pytest.approx(0.0)


@given(left=COUNTS, right=COUNTS)
def test_gini_gain_never_negative(left, right):
    size = max(len(left), len(right))
    left = np.array(left + [0] * (size - len(left)))
    right = np.array(right + [0] * (size - len(right)))
    assert metrics.gini_gain(left, right) >= -1e-12


def test_variance_gain_perfect_split():
    left = (2, 2.0, 2.0)  # labels [1, 1]
    right = (2, 6.0, 18.0)  # labels [3, 3]
    gain = metrics.variance_gain(left, right)
    assert gain == pytest.approx(1.0)  # var([1,1,3,3]) = 1 -> 0


@given(
    labels=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=12
    ),
    cut=st.integers(min_value=1, max_value=11),
)
def test_variance_gain_never_negative(labels, cut):
    cut = min(cut, len(labels) - 1)
    y = np.array(labels)
    left, right = y[:cut], y[cut:]
    stats = lambda v: (len(v), float(v.sum()), float((v**2).sum()))  # noqa: E731
    assert metrics.variance_gain(stats(left), stats(right)) >= -1e-9


def test_accuracy_and_mse():
    assert metrics.accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)
    assert metrics.mean_squared_error(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        metrics.accuracy(np.array([1]), np.array([1, 2]))
    with pytest.raises(ValueError):
        metrics.mean_squared_error(np.array([]), np.array([]))
