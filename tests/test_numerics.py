"""Seeded randomness and the row-batched finite-difference oracle of
seqtag.numerics, the tagger's row softmax, and the shape-checked operations
of the per-gate reference cell in tests/oracle.py."""

import numpy as np
import pytest

from seqtag import numerics
from seqtag.model import _softmax_rows
from seqtag.numerics import (DimensionMismatch, finite_diff_grad,
                             gradient_relative_error)
from oracle import hadamard, matvec, sigmoid


def softmax(x):
    return _softmax_rows(np.asarray(x, dtype=np.float64)[None, :])[0]


def test_sigmoid_symmetry_point():
    assert sigmoid(np.array([0.0]))[0] == 0.5


def test_sigmoid_saturation():
    assert abs(sigmoid(np.array([100.0]))[0] - 1.0) < 1e-12
    assert sigmoid(np.array([-100.0]))[0] < 1e-12


def test_sigmoid_reference_values():
    # 1/(1+e^{-x}) evaluated at 30 digits and frozen
    got = sigmoid(np.array([-1.0, 1.0]))
    assert got == pytest.approx([0.2689414213699951, 0.7310585786300049],
                                abs=1e-15)


def test_sigmoid_complement_identity():
    x = np.random.default_rng(0).uniform(-50, 50, size=200)
    assert np.max(np.abs(sigmoid(x) + sigmoid(-x) - 1.0)) < 1e-12


def test_sigmoid_extreme_inputs_stay_in_unit_interval():
    x = np.array([-1e6, -710.0, 710.0, 1e6])
    y = sigmoid(x)
    assert np.all(y >= 0.0) and np.all(y <= 1.0)
    assert np.all(np.isfinite(y))


def test_softmax_uniform_under_equal_logits():
    assert softmax(np.array([3.7] * 4)) == pytest.approx([0.25] * 4, abs=1e-15)


def test_softmax_shift_invariance():
    x = np.random.default_rng(2).uniform(-3, 3, size=7)
    assert np.max(np.abs(softmax(x + 123.456) - softmax(x))) < 1e-12


def test_softmax_no_overflow_on_large_logits():
    y = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(1.0, abs=1e-12)
    assert y[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_sums_to_one_for_magnitude_1e3_inputs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-1e3, 1e3, size=9)
        assert abs(softmax(x).sum() - 1.0) < 1e-12


def test_matvec_identity_and_zero():
    v = np.array([1.5, -2.0, 3.0])
    assert np.array_equal(matvec(np.eye(3), v), v)
    assert np.array_equal(matvec(np.zeros((2, 3)), v), np.zeros(2))


def test_hadamard_by_definition():
    assert np.array_equal(hadamard(np.array([1.0, 2.0]), np.array([3.0, 4.0])),
                          np.array([3.0, 8.0]))


def test_dimension_mismatch_names_both_shapes():
    with pytest.raises(DimensionMismatch, match=r"\(2, 3\).*\(4,\)"):
        matvec(np.zeros((2, 3)), np.zeros(4))
    with pytest.raises(DimensionMismatch, match=r"\(2,\).*\(3,\)"):
        gradient_relative_error(np.zeros(2), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        hadamard(np.zeros(2), np.zeros((2, 1)))


def test_linear_ops_distributivity_spot_checks():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = rng.normal(size=(5, 4))
        u, v = rng.normal(size=4), rng.normal(size=4)
        assert np.max(np.abs(matvec(m, u + v)
                             - (matvec(m, u) + matvec(m, v)))) < 1e-10
        w = rng.normal(size=4)
        assert np.max(np.abs(hadamard(w, u + v)
                             - (hadamard(w, u) + hadamard(w, v)))) < 1e-10


def test_finite_diff_on_square():
    theta = np.array([3.0])
    grad = finite_diff_grad(lambda rows: rows[:, 0] ** 2, theta)
    assert grad[0] == pytest.approx(6.0, abs=1e-8)


def test_finite_diff_on_constant():
    theta = np.array([1.0, 2.0])
    grad = finite_diff_grad(lambda rows: np.full(len(rows), 7.5), theta)
    assert np.max(np.abs(grad)) < 1e-9


def test_finite_diff_through_views_restores_the_array():
    theta = np.array([1.0, 2.0, 3.0])

    def f(rows):
        # per-row views shaped like a model's blocks
        a, b = rows[:, :2], rows[:, 2:].reshape(-1, 1, 1)
        return (a ** 2).sum(axis=1) + 5.0 * b[:, 0, 0]

    grad = finite_diff_grad(f, theta)
    assert grad == pytest.approx([2.0, 4.0, 5.0], abs=1e-8)
    # the probes went to copies: theta is unchanged
    assert np.array_equal(theta, [1.0, 2.0, 3.0])


def test_finite_diff_blocks_differ_from_the_array_only_on_their_diagonal():
    # three groups, the last one partial: a perturbation left in place by
    # one group would show in the next group's block
    block_size = numerics.FD_BLOCK
    theta = numerics.derive_rng(3, 0).normal(size=2 * block_size + 5)
    epsilon = numerics.FD_EPSILON
    seen = []

    def f(rows):
        seen.append(rows.copy())
        return rows.sum(axis=1)

    finite_diff_grad(f, theta)
    assert [len(rows) for rows in seen] == [2 * block_size] * 2 + [10]
    for group, rows in enumerate(seen):
        k = len(rows) // 2
        j = np.arange(k)
        probed = group * block_size + j
        want = np.tile(theta, (2 * k, 1))
        want[j, probed] = theta[probed] + epsilon
        want[k + j, probed] = theta[probed] - epsilon
        assert np.array_equal(rows, want), group


def test_finite_diff_rejects_a_non_contiguous_array():
    with pytest.raises(ValueError, match="C-contiguous"):
        finite_diff_grad(lambda rows: rows.sum(axis=1), np.ones((3, 2)).T)


def test_derive_rng_streams_are_independent_and_stable():
    a1 = numerics.derive_rng(9, 1).uniform(size=4)
    a2 = numerics.derive_rng(9, 1).uniform(size=4)
    b = numerics.derive_rng(9, 2).uniform(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
