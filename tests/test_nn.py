import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bookrel.evaluation import evaluate_model
from bookrel.features import PairExample
from bookrel.labels import RelationshipLabel
from bookrel.nn import (
    CROP_PAD_CELLS,
    MODEL_MAGIC,
    PARAM_ORDER,
    AdamState,
    ClassifierModel,
    ModelConfig,
    TrainConfig,
    TrainingDivergedError,
    _backward_batch,
    _crop_groups,
    _crop_side,
    _forward_batch,
    conv2d,
    conv2d_backward,
    cross_entropy,
    forward,
    gradient_check,
    init_model,
    load_model,
    maxpool2,
    maxpool2_backward,
    save_model,
    softmax,
    train,
)
from bookrel.simmat import pad_truncate

SW = RelationshipLabel.SW
DV = RelationshipLabel.DV
DIFF = RelationshipLabel.DIFF

TINY = ModelConfig(
    matrix_size=10, pair_dim=6, conv1_filters=2, conv2_filters=3,
    pair_hidden=4, merge_hidden=5,
)


def tiny_example(rng, label=SW, size=10, pair_dim=6):
    matrix = pad_truncate(rng.uniform(-1, 1, size=(size, size)), size)
    return PairExample("L", "R", matrix, rng.standard_normal(pair_dim), label, "real")


def forward_one(model, matrix, pair_vector):
    """Probabilities for one example, passed as a batch of one."""
    return forward(model, np.asarray(matrix)[None], np.asarray(pair_vector)[None])[0]


# --- kernel oracles ----------------------------------------------------------

def conv2d_oracle(x, w):
    """Quadruple-loop reference convolution."""
    b, h, ww, cin = x.shape
    k, _, _, cout = w.shape
    out = np.zeros((b, h - k + 1, ww - k + 1, cout))
    for n in range(b):
        for i in range(h - k + 1):
            for j in range(ww - k + 1):
                for co in range(cout):
                    out[n, i, j, co] = np.sum(
                        x[n, i : i + k, j : j + k, :] * w[:, :, :, co]
                    )
    return out


def maxpool2_oracle(x):
    """Window-by-window reference pooling with first-argmax gradient routing:
    the pooled values, the route (1 at each window's argmax cell) and the
    argmax as 0-3 in (0,0), (0,1), (1,0), (1,1) order."""
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    out = np.zeros((b, h2, w2, c))
    index = np.zeros((b, h2, w2, c), dtype=np.int64)
    route = np.zeros_like(x)
    for n in range(b):
        for i in range(h2):
            for j in range(w2):
                for ch in range(c):
                    window = x[n, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, ch]
                    flat = window.reshape(-1)
                    best = int(np.argmax(flat))
                    out[n, i, j, ch] = flat[best]
                    index[n, i, j, ch] = best
                    route[n, 2 * i + best // 2, 2 * j + best % 2, ch] = 1.0
    return out, route, index


def conv2d_backward_oracle(x, w, dout):
    """Float64 shifted-slice reference gradients (dw, db, dx): kernel offset
    (i, j) pairs the input slice it reads with the whole output gradient."""
    k = w.shape[0]
    ho, wo = dout.shape[1:3]
    x, w, dout = (np.asarray(a, dtype=np.float64) for a in (x, w, dout))
    dw = np.zeros_like(w)
    dx = np.zeros_like(x)
    for i in range(k):
        for j in range(k):
            window = x[:, i : i + ho, j : j + wo, :]
            dw[i, j] = np.einsum("bhwc,bhwo->co", window, dout)
            dx[:, i : i + ho, j : j + wo, :] += dout @ w[i, j].T
    return dw, dout.sum(axis=(0, 1, 2)), dx


def test_conv2d_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b, h, w = rng.integers(1, 4), rng.integers(4, 9), rng.integers(4, 9)
        cin, cout, k = rng.integers(1, 4), rng.integers(1, 5), 3
        x = rng.standard_normal((b, h, w, cin))
        weights = rng.standard_normal((k, k, cin, cout))
        assert np.allclose(conv2d(x, weights), conv2d_oracle(x, weights), atol=1e-6)


def test_maxpool_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        b, h, w, c = rng.integers(1, 4), rng.integers(2, 9), rng.integers(2, 9), rng.integers(1, 4)
        x = rng.standard_normal((b, h, w, c))
        pooled, idx = maxpool2(x)
        expected, _, _ = maxpool2_oracle(x)
        assert np.allclose(pooled, expected)


def test_maxpool_backward_routes_to_first_argmax_on_ties():
    x = np.zeros((1, 4, 4, 1))  # every window is a four-way tie at 0
    pooled, idx = maxpool2(x)
    dout = np.ones_like(pooled)
    dx = maxpool2_backward(dout, idx, x.shape)
    _, route, _ = maxpool2_oracle(x)
    assert np.array_equal(dx, route)
    assert dx.sum() == pooled.size  # each window routed exactly once


def test_maxpool_backward_matches_routing_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6, 6, 3))
    pooled, idx = maxpool2(x)
    dout = rng.standard_normal(pooled.shape)
    dx = maxpool2_backward(dout, idx, x.shape)
    _, route, _ = maxpool2_oracle(x)
    # gradient lands exactly on the argmax cells
    assert np.array_equal(dx != 0, (route * np.abs(dx)) != 0)
    assert np.allclose(dx.sum(), dout.sum())


@pytest.mark.parametrize("cin,height,width", [(1, 9, 7), (8, 11, 6), (8, 5, 8)])
def test_conv2d_and_backward_match_shifted_slice_oracle(cin, height, width):
    rng = np.random.default_rng(cin * 100 + height)
    x = rng.standard_normal((2, height, width, cin))
    w = rng.standard_normal((3, 3, cin, 5))
    dout = rng.standard_normal((2, height - 2, width - 2, 5))
    assert np.allclose(conv2d(x, w), conv2d_oracle(x, w), rtol=1e-12, atol=1e-12)
    for got, want in zip(conv2d_backward(x, w, dout), conv2d_backward_oracle(x, w, dout)):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    # float32 in, float32 out, within float32 rounding of the float64 oracle
    x32, w32, dout32 = (a.astype(np.float32) for a in (x, w, dout))
    assert conv2d(x32, w32).dtype == np.float32
    assert np.allclose(conv2d(x32, w32), conv2d_oracle(x32, w32), rtol=1e-5, atol=1e-5)
    for got, want in zip(conv2d_backward(x32, w32, dout32),
                         conv2d_backward_oracle(x32, w32, dout32)):
        assert got.dtype == np.float32
        assert np.allclose(got, want, rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("shape", [(2, 7, 5, 3), (1, 9, 4, 2), (3, 5, 5, 1), (1, 2, 3, 4)])
@pytest.mark.parametrize("relu", [False, True], ids=["signed", "relu"])
def test_maxpool_index_and_routing_match_oracle(shape, relu):
    """Odd sizes drop the trailing row/column; after ReLU many windows tie at
    zero, and the first position (top-left) wins every tie."""
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape).astype(np.float32)
    if relu:
        x = np.maximum(x, 0)
        x[:, :2, :2] = 0  # at least one four-way tie per example and channel
    pooled, idx = maxpool2(x)
    want, route, want_idx = maxpool2_oracle(x)
    assert idx.dtype == np.uint8
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(pooled, want)
    if relu:
        all_zero = want == 0
        assert all_zero[:, 0, 0].all()
        assert np.array_equal(idx[all_zero], np.zeros(all_zero.sum(), dtype=np.uint8))
    dout = rng.standard_normal(pooled.shape).astype(np.float32)
    dx = maxpool2_backward(dout, idx, x.shape)
    assert dx.dtype == np.float32
    spread = np.zeros_like(route)
    h2, w2 = pooled.shape[1:3]
    spread[:, : 2 * h2, : 2 * w2] = dout.repeat(2, axis=1).repeat(2, axis=2)
    assert np.array_equal(dx, route * spread)


def test_conv2d_backward_input_gradient_shape():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 7, 7, 3))
    w = rng.standard_normal((3, 3, 3, 4))
    out = conv2d(x, w)
    dw, db, dx = conv2d_backward(x, w, np.ones_like(out))
    assert dw.shape == w.shape and db.shape == (4,) and dx.shape == x.shape


# --- forward properties --------------------------------------------------------

def test_forward_probabilities_sum_to_one():
    rng = np.random.default_rng(4)
    model = init_model(TINY, [SW, DV, DIFF], seed=0)
    for _ in range(5):
        ex = tiny_example(rng)
        probs = forward_one(model, ex.matrix.values, ex.pair_vector)
        assert probs.shape == (3,)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs >= 0).all()


def test_forward_deterministic_without_dropout():
    rng = np.random.default_rng(5)
    model = init_model(TINY, [SW, DV], seed=1)
    ex = tiny_example(rng)
    one = forward_one(model, ex.matrix.values, ex.pair_vector)
    two = forward_one(model, ex.matrix.values, ex.pair_vector)
    assert np.array_equal(one, two)


def test_forward_shape_mismatch_rejected():
    model = init_model(TINY, [SW, DV], seed=0)
    with pytest.raises(ValueError):
        forward_one(model, np.zeros((12, 12)), np.zeros(6))
    with pytest.raises(ValueError):
        forward_one(model, np.zeros((10, 10)), np.zeros(9))


def test_forward_zero_input_follows_bias_path():
    """With zero conv weights and constant biases, a zero input propagates a
    closed-form constant through the network; check against arithmetic done
    outside the layer code."""
    config = ModelConfig(
        matrix_size=10, pair_dim=4, conv1_filters=2, conv2_filters=3,
        pair_hidden=2, merge_hidden=4,
    )
    model = init_model(config, [SW, DV, DIFF], seed=0)
    p = model.params
    for name in ("conv1_w", "conv2_w", "pair_w"):
        p[name][:] = 0.0
    p["conv1_b"][:] = 0.1
    p["conv2_b"][:] = 0.2
    p["pair_b"][:] = 0.3
    p["merge_w"][:] = 0.01
    p["merge_b"][:] = 0.0
    p["out_w"][:] = 0.02
    p["out_b"][:] = np.array([0.1, 0.2, 0.3], dtype=np.float32)

    probs = forward_one(model, np.zeros((10, 10)), np.zeros(4))

    # hand trace: conv1 -> 0.1 map; conv2 -> 0.2 map; flat entries all 0.2
    _, _, _, p2, flat_width = config.conv_stack_sizes()
    joined_sum = 0.2 * flat_width + 0.3 * config.pair_hidden
    am = max(0.01 * joined_sum, 0.0)
    logits = np.array([0.02 * am * config.merge_hidden + b for b in (0.1, 0.2, 0.3)])
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    assert np.allclose(probs, expected, atol=1e-6)


# --- gradients ------------------------------------------------------------------

def test_gradient_check_small_models():
    rng = np.random.default_rng(6)
    for seed in range(3):
        model = init_model(TINY, [SW, DV, DIFF], seed=seed)
        ex = tiny_example(rng, label=[SW, DV, DIFF][seed % 3])
        assert gradient_check(model, ex, eps=1e-4) < 1e-4


def test_gradient_check_each_branch_alone():
    rng = np.random.default_rng(7)
    model = init_model(TINY, [SW, DV], seed=3)
    # shift biases off zero: an exactly-zero input against zero biases would
    # park every ReLU on its kink, where finite differences are undefined
    for name in ("conv1_b", "conv2_b", "pair_b", "merge_b"):
        model.params[name][:] = rng.standard_normal(model.params[name].shape) * 0.3
    zero_matrix = pad_truncate(np.zeros((10, 10)), 10)
    only_pair = PairExample("L", "R", zero_matrix, rng.standard_normal(6), SW, "real")
    assert gradient_check(model, only_pair, eps=1e-4) < 1e-4
    only_matrix = PairExample(
        "L", "R", pad_truncate(rng.uniform(-1, 1, (10, 10)), 10), np.zeros(6), DV, "real"
    )
    assert gradient_check(model, only_matrix, eps=1e-4) < 1e-4


def partly_filled(rng, rows, cols, size):
    """A zero-padded matrix whose top-left rows x cols block is random."""
    return pad_truncate(rng.uniform(-1, 1, (rows, cols)), size)


def test_gradient_check_partly_filled_matrices():
    """Crops smaller than the side, so the far-field terms are checked too."""
    rng = np.random.default_rng(13)
    config = ModelConfig(
        matrix_size=24, pair_dim=6, conv1_filters=2, conv2_filters=3,
        pair_hidden=4, merge_hidden=5,
    )
    model = init_model(config, [SW, DV, DIFF], seed=5)
    # biases of both signs and off zero: the far field sits on them
    model.params["conv1_b"][:] = [0.3, -0.2]
    model.params["conv2_b"][:] = [0.25, -0.15, 0.1]
    for name in ("pair_b", "merge_b"):
        model.params[name][:] = rng.standard_normal(model.params[name].shape) * 0.3
    for rows, cols, label in ((1, 1, SW), (5, 3, DV), (2, 9, DIFF)):
        ex = PairExample("L", "R", partly_filled(rng, rows, cols, 24),
                         rng.standard_normal(6), label, "real")
        assert gradient_check(model, ex, eps=1e-4) < 1e-6


def full_side_oracle(model, mats, pairs, targets, rng, rate_flat, rate_pair):
    """Probabilities, loss and gradients with conv/pool over the full padded
    side, built from the public kernels; dropout masks are drawn over the
    flattened batch in batch order, flat first."""
    p = model.params
    x = mats[..., None]
    z1 = conv2d(x, p["conv1_w"]) + p["conv1_b"]
    a1 = np.maximum(z1, 0)
    p1, idx1 = maxpool2(a1)
    z2 = conv2d(p1, p["conv2_w"]) + p["conv2_b"]
    a2 = np.maximum(z2, 0)
    p2, idx2 = maxpool2(a2)
    flat = p2.reshape(len(x), -1)
    mask_flat = (rng.random(flat.shape) >= rate_flat) / (1 - rate_flat)
    zp = pairs @ p["pair_w"] + p["pair_b"]
    ap = np.maximum(zp, 0)
    mask_pair = (rng.random(ap.shape) >= rate_pair) / (1 - rate_pair)
    joined = np.concatenate([flat * mask_flat, ap * mask_pair], axis=1)
    zm = joined @ p["merge_w"] + p["merge_b"]
    am = np.maximum(zm, 0)
    logits = am @ p["out_w"] + p["out_b"]
    probs = softmax(logits)
    loss, dlogits = cross_entropy(probs, logits, targets)

    g = {"out_b": dlogits.sum(axis=0), "out_w": am.T @ dlogits}
    d_zm = (dlogits @ p["out_w"].T) * (zm > 0)
    g["merge_b"], g["merge_w"] = d_zm.sum(axis=0), joined.T @ d_zm
    d_joined = d_zm @ p["merge_w"].T
    d_zp = d_joined[:, flat.shape[1]:] * mask_pair * (zp > 0)
    g["pair_b"], g["pair_w"] = d_zp.sum(axis=0), pairs.T @ d_zp
    d_p2 = (d_joined[:, : flat.shape[1]] * mask_flat).reshape(p2.shape)
    d_z2 = maxpool2_backward(d_p2, idx2, a2.shape) * (z2 > 0)
    g["conv2_w"], g["conv2_b"], d_p1 = conv2d_backward(p1, p["conv2_w"], d_z2)
    d_z1 = maxpool2_backward(d_p1, idx1, a1.shape) * (z1 > 0)
    g["conv1_w"], g["conv1_b"], _ = conv2d_backward(x, p["conv1_w"], d_z1)
    return probs, loss, g


def test_grouped_conv_stack_matches_full_side_oracle():
    side = 40
    config = ModelConfig(
        matrix_size=side, pair_dim=6, conv1_filters=4, conv2_filters=5,
        pair_hidden=4, merge_hidden=6,
    )
    model = init_model(config, [SW, DV, DIFF], seed=2).astype(np.float64)
    model.params["conv1_b"][:] = [0.3, -0.2, 0.1, -0.4]
    model.params["conv2_b"][:] = [0.2, -0.3, 0.05, -0.1, 0.4]
    rng = np.random.default_rng(14)
    # in an order unlike the extents' order, with anti-correlated extents
    # such as (3, 40) and (40, 3) that no one square crop fits tightly
    shapes = [(side, side), (1, 1), (0, 0), (3, 17), (25, 2), (9, 9), (40, 5),
              (2, 2), (14, 30), (6, 1), (1, 33), (18, 18), (3, 40), (40, 3)]
    mats = np.stack([partly_filled(rng, r, c, side).values if r else np.zeros((side, side))
                     for r, c in shapes])
    pairs = rng.standard_normal((len(shapes), 6))
    targets = rng.integers(0, 3, len(shapes))

    probs, cache = _forward_batch(model, mats, pairs, (np.random.default_rng(15), 0.5, 0.25))
    rows, cols = np.array(shapes).T
    crops = list(zip(_crop_side(rows, config).tolist(), _crop_side(cols, config).tolist()))
    groups = [g["members"].tolist() for g in cache["groups"]]
    # the groups are the extents' groups, several, and some merge unequal crops
    assert groups == [m.tolist() for m, _, _ in _crop_groups(rows, cols, config)]
    assert len(groups) > 1
    assert any(len({crops[i] for i in members}) > 1 for members in groups)
    loss, dlogits = cross_entropy(probs, cache["logits"], targets)
    grads = _backward_batch(model, cache, dlogits)
    want_probs, want_loss, want_grads = full_side_oracle(
        model, mats, pairs, targets, np.random.default_rng(15), 0.5, 0.25
    )

    def close(got, want):
        return np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    assert close(probs, want_probs)
    assert loss == pytest.approx(want_loss, rel=1e-9)
    assert set(grads) == set(want_grads)
    for name, want in want_grads.items():
        assert close(grads[name], want), name


@settings(max_examples=200, deadline=None)
@given(side=st.sampled_from([32, 150]), data=st.data())
def test_crop_groups_partition_the_batch_within_the_padding_allowance(side, data):
    extents = data.draw(st.lists(
        st.tuples(st.integers(0, side), st.integers(0, side)), min_size=1, max_size=32
    ))
    config = ModelConfig(matrix_size=side)
    rows, cols = np.array(extents).T
    heights, widths = _crop_side(rows, config), _crop_side(cols, config)
    groups = _crop_groups(rows, cols, config)

    members = np.concatenate([m for m, _, _ in groups])
    assert sorted(members.tolist()) == list(range(len(extents)))
    group_of = {}
    for g, (m, height, width) in enumerate(groups):
        assert (heights[m] <= height).all() and (widths[m] <= width).all()
        padding = len(m) * height * width - int((heights[m] * widths[m]).sum())
        assert 0 <= padding <= CROP_PAD_CELLS
        group_of.update((int(i), g) for i in m)
    crop_group = {}
    for i, crop in enumerate(zip(heights.tolist(), widths.tolist())):
        assert crop_group.setdefault(crop, group_of[i]) == group_of[i]

    # the extents alone decide: a reordered batch gets the same groups
    perm = np.array(data.draw(st.permutations(range(len(extents)))))
    regrouped = _crop_groups(rows[perm], cols[perm], config)
    assert ({(frozenset(perm[m].tolist()), h, w) for m, h, w in regrouped}
            == {(frozenset(m.tolist()), h, w) for m, h, w in groups})


def test_gradient_check_rejects_zero_eps():
    model = init_model(TINY, [SW, DV], seed=0)
    ex = tiny_example(np.random.default_rng(8))
    with pytest.raises(ValueError):
        gradient_check(model, ex, eps=0.0)


def test_zero_learning_signal_when_prediction_is_one_hot():
    model = init_model(TINY, [SW, DV, DIFF], seed=4)
    model.params["out_b"][:] = np.array([60.0, 0.0, 0.0], dtype=np.float32)
    ex = tiny_example(np.random.default_rng(9), label=SW)
    model64 = model.astype(np.float64)
    probs, cache = _forward_batch(model64, ex.matrix.values[None], ex.pair_vector[None])
    _, dlogits = cross_entropy(probs, cache["logits"], np.array([0]))
    grads = _backward_batch(model64, cache, dlogits)
    assert np.abs(grads["out_b"]).max() < 1e-12


def test_doubling_weights_doubles_loss_and_gradients():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal((4, 3))
    probs = softmax(logits)
    targets = np.array([0, 2, 1, 1])
    loss1, dl1 = cross_entropy(probs, logits, targets, np.ones(4))
    loss2, dl2 = cross_entropy(probs, logits, targets, 2 * np.ones(4))
    assert loss2 == pytest.approx(2 * loss1)
    assert np.allclose(dl2, 2 * dl1)


# --- training --------------------------------------------------------------------

def separable_dataset(n=20, size=12, pair_dim=4, seed=0):
    """Two visually distinct classes: SW has a strong diagonal band, DIFF is
    near-zero noise. Pair vectors carry a matching offset."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        label = SW if i % 2 == 0 else DIFF
        noise = rng.uniform(-0.05, 0.05, size=(size, size))
        if label is SW:
            matrix = noise + np.eye(size) * 0.9
            pair = rng.standard_normal(pair_dim) * 0.1 + 1.0
        else:
            matrix = noise
            pair = rng.standard_normal(pair_dim) * 0.1 - 1.0
        examples.append(
            PairExample(f"l{i}", f"r{i}", pad_truncate(matrix, size), pair, label, "real")
        )
    return examples


def test_train_learns_separable_toy_set():
    dataset = separable_dataset()
    config = TrainConfig(epochs=50, batch_size=4, learning_rate=1e-3, seed=0,
                         dropout_flat=0.0, dropout_pair=0.0)
    model, history = train(dataset, config)
    confusion = evaluate_model(model, dataset)
    assert np.trace(confusion.counts) / len(dataset) >= 0.95
    assert len(history) == 50


def test_train_loss_decreases_on_average():
    dataset = separable_dataset()
    config = TrainConfig(epochs=20, batch_size=4, learning_rate=1e-3, seed=1,
                         dropout_flat=0.0, dropout_pair=0.0)
    _, history = train(dataset, config)
    losses = [h["loss"] for h in history]
    first = np.mean(losses[:5])
    last = np.mean(losses[-5:])
    assert last < first


def test_train_same_seed_bit_identical():
    dataset = separable_dataset()
    config = TrainConfig(epochs=5, batch_size=4, seed=7)
    model1, hist1 = train(dataset, config)
    model2, hist2 = train(dataset, config)
    for name in model1.params:
        assert np.array_equal(model1.params[name], model2.params[name])
    assert hist1 == hist2


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train([], TrainConfig())


def test_train_diverged_loss_raises():
    # Adam steps are about lr in magnitude, so an overflow-scale learning rate
    # drives the weights past float32 range and the loss to nan
    dataset = separable_dataset(n=8)
    config = TrainConfig(epochs=3, batch_size=4, learning_rate=1e38, seed=0,
                         dropout_flat=0.0, dropout_pair=0.0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        train(dataset, config)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    # a dropout of 1 keeps nothing and divides its mask by zero, which
    # training would report as a diverged loss
    for field, kwargs in [
        ("dropout_flat", {"dropout_flat": 1.0}),
        ("dropout_flat", {"dropout_flat": -0.5}),
        ("dropout_pair", {"dropout_pair": 1.5}),
        ("dropout_pair", {"dropout_pair": float("nan")}),
        ("class_weights[PARTOF]", {"class_weights": {RelationshipLabel.PARTOF: -1.0}}),
        ("class_weights[CONTAINS]", {"class_weights": {"CONTAINS": float("inf")}}),
        ("epochs: expected an integer, got bool", {"epochs": True}),
        ("epochs: expected an integer, got float", {"epochs": 2.5}),
        ("batch_size: expected an integer, got float", {"batch_size": 1.5}),
        ("learning_rate: expected a finite number, got nan", {"learning_rate": float("nan")}),
        ("learning_rate: expected a finite number, got inf", {"learning_rate": float("inf")}),
        ("seed must be >= 0, got -1", {"seed": -1}),
        ("class_weights: unknown labels ['XX']", {"class_weights": {"XX": 1}}),
        ("class_weights: expected an object, got list", {"class_weights": [3.0]}),
    ]:
        with pytest.raises(ValueError, match=re.escape(field)):
            TrainConfig(**kwargs)
    TrainConfig(dropout_flat=0.0, dropout_pair=0.99, class_weights={DIFF: 0.0})
    # label names become labels, and weights floats, once, here
    weights = TrainConfig(class_weights={"PARTOF": 2}).class_weights
    assert [(type(k), type(v)) for k, v in weights.items()] == [(RelationshipLabel, float)]
    assert weights == {RelationshipLabel.PARTOF: 2.0}


# --- predicted labels, as evaluate_model assigns them ----------------------------

def predicted_label(model, example):
    confusion = evaluate_model(model, [example], model.class_list)
    return model.class_list[int(confusion.counts.sum(axis=0).argmax())]


def test_predict_argmax_and_tie_break():
    model = init_model(TINY, [SW, DV, DIFF], seed=0)
    model.params["out_w"][:] = 0.0
    model.params["out_b"][:] = 0.0
    ex = tiny_example(np.random.default_rng(11), label=DIFF)
    probs = forward_one(model, ex.matrix.values, ex.pair_vector)
    assert np.array_equal(probs, np.full(3, 1 / 3))
    assert predicted_label(model, ex) is SW  # exact tie resolves to the lowest class index


def test_predict_matches_probability_argmax():
    rng = np.random.default_rng(12)
    model = init_model(TINY, [SW, DV, DIFF], seed=5)
    for _ in range(5):
        ex = tiny_example(rng)
        probs = forward_one(model, ex.matrix.values, ex.pair_vector)
        assert predicted_label(model, ex) == model.class_list[int(np.argmax(probs))]


# --- serialization ------------------------------------------------------------------

def test_save_load_bit_identical_forward(tmp_path):
    dataset = separable_dataset(n=8)
    config = TrainConfig(epochs=2, batch_size=4, seed=3)
    model, _ = train(dataset, config)
    path = tmp_path / "model.bin"
    save_model(model, path)
    again = load_model(path)
    assert again.class_list == model.class_list
    for ex in dataset[:3]:
        a = forward_one(model, ex.matrix.values, ex.pair_vector)
        b = forward_one(again, ex.matrix.values, ex.pair_vector)
        assert np.array_equal(a, b)


def test_load_model_rejects_truncation(tmp_path):
    model = init_model(TINY, [SW, DV], seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(ValueError, match="truncated"):
        load_model(path)


def model_file_parts(path):
    """The version, JSON header and weight bytes of a model file."""
    data = path.read_bytes()
    _, version, size = struct.unpack("<4sII", data[:12])
    return version, json.loads(data[12 : 12 + size]), data[12 + size :]


def write_model_file(path, header, weights, version):
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    path.write_bytes(struct.pack("<4sII", MODEL_MAGIC, version, len(blob)) + blob + weights)


def test_model_header_holds_architecture_and_classes_only(tmp_path):
    path = tmp_path / "model.bin"
    save_model(init_model(TINY, [SW, DV], seed=0), path)
    version, header, weights = model_file_parts(path)
    assert version == 2
    assert set(header) == {"config", "class_list"}
    assert header["config"] == {
        "matrix_size": 10, "pair_dim": 6, "conv1_filters": 2, "conv2_filters": 3,
        "kernel_size": 3, "pair_hidden": 4, "merge_hidden": 5,
    }
    assert header["class_list"] == ["SW", "DV"]
    assert not any("dropout" in key for key in header["config"])
    # a version-1 file, which held training settings and shapes, is refused
    v1 = dict(header, config=dict(header["config"], dropout_flat=0.0, dropout_pair=0.0),
              rng_seed=0, shapes={})
    write_model_file(path, v1, weights, version=1)
    with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported model version 1")):
        load_model(path)


def _edit(**changes):
    def edit(header):
        header["config"].update(changes)
        return header
    return edit


@pytest.mark.parametrize("edit,suffix,message", [
    (lambda h: b"{not json", b"", "model header is not JSON"),
    (lambda h: b"\xff\xfe", b"", "model header is not JSON"),
    (lambda h: [h], b"", "model header: expected an object, got list"),
    (lambda h: {"class_list": h["class_list"]}, b"", "missing keys ['config']"),
    (_edit(dropout_flat=0.5), b"", "config: missing keys [], unknown keys ['dropout_flat']"),
    (lambda h: dict(h, config={k: v for k, v in h["config"].items() if k != "pair_dim"}),
     b"", "missing keys ['pair_dim']"),
    (_edit(pair_dim="6"), b"", "config: ['pair_dim'] must be integers >= 1"),
    (_edit(matrix_size=5), b"", "matrix_size 5 too small"),
    (lambda h: dict(h, shapes={"out_w": [5, 3], "out_b": [3]}), b"",
     "unknown keys ['shapes']"),
    (lambda h: dict(h, class_list=["SW", "XX"]), b"", "class_list must be"),
    (lambda h: dict(h, class_list=["SW", "SW"]), b"", "class_list must be"),
    (lambda h: dict(h, class_list=["SW"]), b"", "24 bytes after the weights"),
    (lambda h: dict(h, class_list=["SW", "DV", "DIFF"]), b"", "truncated weights"),
    (lambda h: h, b"\0" * 4, "4 bytes after the weights"),
], ids=["not-json", "not-utf8", "not-an-object", "no-config", "config-unknown-key",
        "config-missing-key", "config-not-int", "config-too-small", "shapes-entry",
        "unknown-label", "repeated-label", "fewer-classes-than-weights",
        "more-classes-than-weights", "trailing-bytes"])
def test_load_model_refuses_malformed_file_naming_it(tmp_path, edit, suffix, message):
    path = tmp_path / "model.bin"
    save_model(init_model(TINY, [SW, DV], seed=0), path)
    version, header, weights = model_file_parts(path)
    write_model_file(path, edit(header), weights + suffix, version)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")) as excinfo:
        load_model(path)
    assert message in str(excinfo.value)


def test_load_model_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_model(path)


def test_class_order_preserved(tmp_path):
    model = init_model(TINY, [DIFF, SW, DV], seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    assert load_model(path).class_list == [DIFF, SW, DV]


def test_adam_step_matches_textbook_update_bit_for_bit():
    """30 in-place steps equal m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr*(m/c1) / (sqrt(v/c2) + eps) evaluated with fresh float32 arrays,
    and every tensor keeps its own state buffers."""
    rng = np.random.default_rng(7)
    shapes = [(3, 3, 1, 2), (2,), (3, 3, 2, 4), (4,), (6, 5), (5,), (9, 7), (7,), (7, 3), (3,)]
    params = {name: rng.standard_normal(shape).astype(np.float32)
              for name, shape in zip(PARAM_ORDER, shapes)}
    want_p = {name: value.copy() for name, value in params.items()}
    want_m = {name: np.zeros_like(value) for name, value in params.items()}
    want_v = {name: np.zeros_like(value) for name, value in params.items()}
    state = AdamState(params)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    for t in range(1, 31):
        grads = {name: (rng.standard_normal(value.shape) * 10.0 ** rng.integers(-4, 3))
                 .astype(np.float32) for name, value in params.items()}
        state.step(params, grads, lr)
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for name, g in grads.items():
            want_m[name] = b1 * want_m[name] + (1 - b1) * g
            want_v[name] = b2 * want_v[name] + (1 - b2) * (g * g)
            want_p[name] = want_p[name] - lr * (want_m[name] / c1) / (
                np.sqrt(want_v[name] / c2) + eps
            )
    for name in PARAM_ORDER:
        assert params[name].dtype == state.m[name].dtype == np.float32
        assert np.array_equal(params[name], want_p[name])
        assert np.array_equal(state.m[name], want_m[name])
        assert np.array_equal(state.v[name], want_v[name])
    buffers = [*params.values(), *state.m.values(), *state.v.values()]
    for i, a in enumerate(buffers):
        for b in buffers[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_adam_step_allocates_no_tensor_sized_buffer():
    shapes = dict.fromkeys(PARAM_ORDER, (256, 256))
    params = {name: np.ones(shape, dtype=np.float32) for name, shape in shapes.items()}
    grads = {name: np.full(shape, 0.5, dtype=np.float32) for name, shape in shapes.items()}
    state = AdamState(params)
    state.step(params, grads, lr=1e-3)
    tracemalloc.start()
    try:
        state.step(params, grads, lr=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 256 * 4 // 4


def test_adam_moves_parameters_toward_gradient():
    params = {"out_w": np.ones((2, 2), dtype=np.float32)}
    grads = {"out_w": np.ones((2, 2), dtype=np.float32)}
    state = AdamState(params)
    import bookrel.nn as nn_module

    original_order = nn_module.PARAM_ORDER
    nn_module.PARAM_ORDER = ("out_w",)
    try:
        state.step(params, grads, lr=0.1)
    finally:
        nn_module.PARAM_ORDER = original_order
    assert (params["out_w"] < 1.0).all()
