import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bookrel.simmat import (
    SimilarityMatrix,
    cosine,
    load_matrix,
    pad_truncate,
    pair_features,
    pairwise_similarity,
    save_matrix,
)


def brute_force_pairwise(left, right):
    """Independent double-loop oracle for the vectorized kernel."""
    out = np.zeros((len(left), len(right)))
    for i, u in enumerate(left):
        for j, v in enumerate(right):
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            out[i, j] = 0.0 if nu == 0 or nv == 0 else float(np.dot(u, v) / (nu * nv))
    return out


def test_cosine_self_similarity():
    x = np.array([0.3, -2.0, 5.0])
    assert cosine(x, x) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_hand_computed():
    assert cosine(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == pytest.approx(4 / 5)


def test_cosine_zero_norm_is_zero():
    assert cosine(np.zeros(3), np.ones(3)) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine(np.ones(2), np.ones(3))


@given(
    alpha=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50)
def test_cosine_scale_invariance(alpha, seed):
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal(6), rng.standard_normal(6)
    assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-9)


def test_pairwise_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n_left, n_right, d = rng.integers(1, 8, size=3)
        left = rng.standard_normal((n_left, d))
        right = rng.standard_normal((n_right, d))
        if rng.random() < 0.3:  # exercise zero-norm rows too
            left[rng.integers(0, n_left)] = 0.0
        got = pairwise_similarity(left, right)
        assert np.allclose(got, brute_force_pairwise(left, right), atol=1e-6)


def test_pairwise_self_comparison_unit_diagonal():
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((4, 5))
    matrix = pairwise_similarity(vecs, vecs)
    assert np.allclose(np.diag(matrix), 1.0)
    assert np.allclose(matrix, matrix.T)


def test_pairwise_transpose_duality():
    rng = np.random.default_rng(1)
    left = rng.standard_normal((3, 4))
    right = rng.standard_normal((5, 4))
    assert np.allclose(
        pairwise_similarity(left, right), pairwise_similarity(right, left).T
    )


def test_pairwise_values_within_unit_interval():
    rng = np.random.default_rng(2)
    left = rng.standard_normal((20, 7)) * 100
    right = rng.standard_normal((15, 7)) * 0.01
    matrix = pairwise_similarity(left, right)
    assert matrix.max() <= 1 + 1e-9
    assert matrix.min() >= -1 - 1e-9


def test_pairwise_empty_side():
    assert pairwise_similarity(np.zeros((0, 4)), np.ones((3, 4))).shape == (0, 3)


def test_pad_preserves_block():
    m = np.arange(6, dtype=float).reshape(2, 3)
    sm = pad_truncate(m, 4)
    assert sm.size == 4
    assert sm.left_chunks == 2 and sm.right_chunks == 3
    assert np.allclose(sm.values[:2, :3], m)
    assert np.count_nonzero(sm.values[2:, :]) == 0
    assert np.count_nonzero(sm.values[:, 3:]) == 0


def test_truncate_keeps_first_rows_and_columns():
    m = np.arange(36, dtype=float).reshape(6, 6)
    sm = pad_truncate(m, 4)
    assert np.allclose(sm.values, m[:4, :4])
    assert sm.left_chunks == 6 and sm.right_chunks == 6


def test_pad_round_trip_block_exact():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 5)).astype(np.float32)
    sm = pad_truncate(m, 8)
    assert np.array_equal(sm.values[:3, :5], m)


def test_pair_features_identical_inputs():
    x = np.array([1.0, -2.0, 3.0])
    feats = pair_features(x, x)
    assert feats.shape == (6,)
    assert np.allclose(feats[:3], x)
    assert np.allclose(feats[3:], 0.0)


def test_pair_features_hand_computed():
    feats = pair_features(np.array([2.0, 0.0]), np.array([0.0, 2.0]))
    assert np.allclose(feats, [1.0, 1.0, 2.0, -2.0])


def test_pair_features_swap_negates_difference():
    rng = np.random.default_rng(4)
    left, right = rng.standard_normal(5), rng.standard_normal(5)
    ab = pair_features(left, right)
    ba = pair_features(right, left)
    assert np.allclose(ab[:5], ba[:5])
    assert np.allclose(ab[5:], -ba[5:])


def test_pair_features_dimension_mismatch():
    with pytest.raises(ValueError):
        pair_features(np.ones(3), np.ones(4))


def test_matrix_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    sm = pad_truncate(rng.standard_normal((3, 7)), 10)
    path = tmp_path / "m.smx"
    save_matrix(sm, path)
    again = load_matrix(path)
    assert np.array_equal(again.values, sm.values)
    assert (again.left_chunks, again.right_chunks) == (3, 7)
    # 16-byte header + S*S float32
    assert path.stat().st_size == 16 + 10 * 10 * 4


def test_matrix_load_rejects_truncation(tmp_path):
    sm = pad_truncate(np.ones((2, 2)), 4)
    path = tmp_path / "m.smx"
    save_matrix(sm, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="expected"):
        load_matrix(path)


def test_matrix_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.smx"
    path.write_bytes(b"XXXX" + b"\0" * 28)
    with pytest.raises(ValueError, match="magic"):
        load_matrix(path)
