import numpy as np
import pytest

from bookrel.evaluation import evaluate_model
from bookrel.features import PairExample
from bookrel.labels import RelationshipLabel
from bookrel.nn import (
    AdamState,
    ClassifierModel,
    ModelConfig,
    TrainConfig,
    TrainingDivergedError,
    _backward_batch,
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
    pair_hidden=4, merge_hidden=5, dropout_flat=0.0, dropout_pair=0.0,
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
    """Window-by-window reference pooling with first-argmax gradient routing."""
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    out = np.zeros((b, h2, w2, c))
    route = np.zeros_like(x)
    for n in range(b):
        for i in range(h2):
            for j in range(w2):
                for ch in range(c):
                    window = x[n, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, ch]
                    flat = window.reshape(-1)
                    best = int(np.argmax(flat))
                    out[n, i, j, ch] = flat[best]
                    route[n, 2 * i + best // 2, 2 * j + best % 2, ch] = 1.0
    return out, route


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
        expected, _ = maxpool2_oracle(x)
        assert np.allclose(pooled, expected)


def test_maxpool_backward_routes_to_first_argmax_on_ties():
    x = np.zeros((1, 4, 4, 1))  # every window is a four-way tie at 0
    pooled, idx = maxpool2(x)
    dout = np.ones_like(pooled)
    dx = maxpool2_backward(dout, idx, x.shape)
    _, route = maxpool2_oracle(x)
    assert np.array_equal(dx, route)
    assert dx.sum() == pooled.size  # each window routed exactly once


def test_maxpool_backward_matches_routing_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6, 6, 3))
    pooled, idx = maxpool2(x)
    dout = rng.standard_normal(pooled.shape)
    dx = maxpool2_backward(dout, idx, x.shape)
    _, route = maxpool2_oracle(x)
    # gradient lands exactly on the argmax cells
    assert np.array_equal(dx != 0, (route * np.abs(dx)) != 0)
    assert np.allclose(dx.sum(), dout.sum())


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
        pair_hidden=2, merge_hidden=4, dropout_flat=0.0, dropout_pair=0.0,
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
