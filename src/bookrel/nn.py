"""Two-branch relationship classifier trained from scratch on numpy.

The similarity matrix passes through two valid 3x3 convolutions, each ReLU
activated and 2x2 max-pooled, then is flattened with dropout. The pair
feature vector passes through a dense ReLU layer with its own dropout. Both
branches are concatenated, pushed through a dense ReLU layer, and projected
to class logits with a softmax head.

Matrices are zero-padded top-left to the model's side and are mostly
padding, so the conv/pool stack runs only where their nonzero cells reach.
A batch's examples are sorted by occupied extent (last nonzero row or
column) and cut into groups of CONV_GROUP; conv1 -> pool1 -> conv2 -> pool2
runs on each group's top-left crop, the smallest that holds every pool2 cell
its nonzeros can reach. Everything outside the crops is one constant per
channel, because a zero input there reduces each layer to its bias path; its
pool2 values and its backward terms are filled in closed form. Results equal
the full-side computation up to float32 rounding.

Everything is plain numpy: forward, backpropagation, Adam updates, and a
finite-difference gradient checker that verifies the analytic gradients.
Training is a pure function of (dataset order, config, seed).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .features import PairExample
from .labels import RelationshipLabel, canonical_class_list

MODEL_MAGIC = b"BKRM"
MODEL_VERSION = 1
# examples per cropped conv/pool run: one crop per whole batch pads small
# matrices up to the batch's largest; groups of 4 lose to per-call overhead
# at side 32
CONV_GROUP = 8

PARAM_ORDER = (
    "conv1_w", "conv1_b",
    "conv2_w", "conv2_b",
    "pair_w", "pair_b",
    "merge_w", "merge_b",
    "out_w", "out_b",
)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the learning rate is probably too high."""


@dataclass
class ModelConfig:
    matrix_size: int = 150
    pair_dim: int = 600  # twice the embedding dimension
    conv1_filters: int = 8
    conv2_filters: int = 16
    kernel_size: int = 3
    pair_hidden: int = 32
    merge_hidden: int = 64
    dropout_flat: float = 0.5
    dropout_pair: float = 0.25

    def conv_stack_sizes(self) -> tuple[int, int, int, int, int]:
        """Spatial sizes (conv1, pool1, conv2, pool2) and the flat width."""
        c1 = self.matrix_size - self.kernel_size + 1
        p1 = c1 // 2
        c2 = p1 - self.kernel_size + 1
        p2 = c2 // 2
        if min(c1, p1, c2, p2) < 1:
            raise ValueError(
                f"matrix_size {self.matrix_size} too small for two conv/pool stages"
            )
        return c1, p1, c2, p2, p2 * p2 * self.conv2_filters


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    dropout_flat: float = 0.5
    dropout_pair: float = 0.25
    seed: int = 0
    class_weights: dict[RelationshipLabel, float] | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


@dataclass
class ClassifierModel:
    config: ModelConfig
    class_list: list[RelationshipLabel]
    params: dict[str, np.ndarray]
    rng_seed: int = 0

    def class_index(self, label: RelationshipLabel) -> int:
        return self.class_list.index(label)

    def astype(self, dtype) -> "ClassifierModel":
        return ClassifierModel(
            self.config,
            list(self.class_list),
            {k: v.astype(dtype) for k, v in self.params.items()},
            self.rng_seed,
        )


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def init_model(
    config: ModelConfig,
    class_list: Sequence[RelationshipLabel],
    seed: int = 0,
) -> ClassifierModel:
    """Glorot-uniform weights, zero biases, drawn in a fixed parameter order."""
    if not class_list:
        raise ValueError("class_list must not be empty")
    k = config.kernel_size
    f1, f2 = config.conv1_filters, config.conv2_filters
    *_, flat = config.conv_stack_sizes()
    n_classes = len(class_list)
    rng = np.random.default_rng(seed)
    params = {
        "conv1_w": _glorot(rng, (k, k, 1, f1), k * k, k * k * f1),
        "conv1_b": np.zeros(f1, dtype=np.float32),
        "conv2_w": _glorot(rng, (k, k, f1, f2), k * k * f1, k * k * f2),
        "conv2_b": np.zeros(f2, dtype=np.float32),
        "pair_w": _glorot(rng, (config.pair_dim, config.pair_hidden),
                          config.pair_dim, config.pair_hidden),
        "pair_b": np.zeros(config.pair_hidden, dtype=np.float32),
        "merge_w": _glorot(rng, (flat + config.pair_hidden, config.merge_hidden),
                           flat + config.pair_hidden, config.merge_hidden),
        "merge_b": np.zeros(config.merge_hidden, dtype=np.float32),
        "out_w": _glorot(rng, (config.merge_hidden, n_classes),
                         config.merge_hidden, n_classes),
        "out_b": np.zeros(n_classes, dtype=np.float32),
    }
    return ClassifierModel(config, list(class_list), params, seed)


# --- layer primitives -------------------------------------------------------

def conv2d(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid-mode stride-1 2D convolution (cross-correlation).
    x: (B, H, W, Cin), w: (k, k, Cin, Cout) -> (B, H-k+1, W-k+1, Cout)."""
    k = w.shape[0]
    windows = sliding_window_view(x, (k, k), axis=(1, 2))
    return np.tensordot(windows, w, axes=([3, 4, 5], [2, 0, 1]))


def conv2d_backward(x: np.ndarray, w: np.ndarray, dout: np.ndarray):
    """Gradients of conv2d: returns (dw, db, dx)."""
    k = w.shape[0]
    windows = sliding_window_view(x, (k, k), axis=(1, 2))
    dw = np.tensordot(windows, dout, axes=([0, 1, 2], [0, 1, 2]))  # (Cin,k,k,Cout)
    dw = dw.transpose(1, 2, 0, 3)
    db = dout.sum(axis=(0, 1, 2))
    padded = np.pad(dout, ((0, 0), (k - 1, k - 1), (k - 1, k - 1), (0, 0)))
    dwindows = sliding_window_view(padded, (k, k), axis=(1, 2))
    flipped = w[::-1, ::-1, :, :]
    dx = np.tensordot(dwindows, flipped, axes=([3, 4, 5], [3, 0, 1]))
    return dw, db, dx


def maxpool2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 stride-2 max pooling with floor cropping on odd sizes. Returns the
    pooled tensor and the within-window argmax (first maximum on ties)."""
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    cropped = x[:, : h2 * 2, : w2 * 2, :]
    win = (
        cropped.reshape(b, h2, 2, w2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(b, h2, w2, c, 4)
    )
    idx = win.argmax(axis=4)
    out = np.take_along_axis(win, idx[..., None], axis=4)[..., 0]
    return out, idx


def maxpool2_backward(dout: np.ndarray, idx: np.ndarray, x_shape) -> np.ndarray:
    """Route each pooled gradient to its window's argmax position only."""
    b, h, w, c = x_shape
    h2, w2 = h // 2, w // 2
    gwin = np.zeros((b, h2, w2, c, 4), dtype=dout.dtype)
    np.put_along_axis(gwin, idx[..., None], dout[..., None], axis=4)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    dx[:, : h2 * 2, : w2 * 2, :] = (
        gwin.reshape(b, h2, w2, c, 2, 2)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(b, h2 * 2, w2 * 2, c)
    )
    return dx


def softmax(logits: np.ndarray) -> np.ndarray:
    # float64 so the probabilities always sum to 1 within 1e-9
    shifted = logits.astype(np.float64) - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _dropout_mask(rng: np.random.Generator, shape, rate: float, dtype) -> np.ndarray:
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep / dtype.type(1.0 - rate)


# --- forward / backward -----------------------------------------------------

def _occupied_extents(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per example, one past the last nonzero row and one past the last
    nonzero column; 0 for an all-zero matrix."""
    side = matrices.shape[1]
    nonzero = matrices != 0

    def last(lines: np.ndarray) -> np.ndarray:
        return np.where(lines.any(axis=1), side - lines[:, ::-1].argmax(axis=1), 0)

    return last(nonzero.any(axis=2)), last(nonzero.any(axis=1))


def _crop_side(extent: int, config: ModelConfig) -> int:
    """Crop length along one axis whose pool2 output holds every pool2 cell
    that an occupied extent e reaches along it: ceil(ceil(e/2)/2) cells, at
    least one so that conv2's window fits, need 4 cells + 3(k-1) inputs."""
    pool1_cells = -(-extent // 2)
    cells = max(-(-pool1_cells // 2), 1)
    return min(4 * cells + 3 * (config.kernel_size - 1), config.matrix_size)


def _forward_batch(
    model: ClassifierModel,
    matrices: np.ndarray,
    pair_vectors: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Batched forward pass; the cache holds every intermediate needed by
    backpropagation. Dropout (inverted, so inference needs no rescaling) is
    applied only in train mode, drawn over the whole flattened batch in
    batch order."""
    p = model.params
    dtype = p["out_w"].dtype
    cfg = model.config
    if matrices.shape[1] != cfg.matrix_size or matrices.shape[2] != cfg.matrix_size:
        raise ValueError(
            f"matrix side {matrices.shape[1:]} != model matrix_size {cfg.matrix_size}"
        )
    if pair_vectors.shape[1] != cfg.pair_dim:
        raise ValueError(
            f"pair vector length {pair_vectors.shape[1]} != model pair_dim {cfg.pair_dim}"
        )
    if train_mode and rng is None and (cfg.dropout_flat > 0 or cfg.dropout_pair > 0):
        raise ValueError("train_mode forward with dropout requires an rng")

    x = matrices.astype(dtype, copy=False)[..., None]
    pairs = pair_vectors.astype(dtype, copy=False)

    # far field: x = 0, so z1 = conv1_b and z2 = conv2_b + sum_ij w2[i,j]^T c1
    c1 = np.maximum(p["conv1_b"], 0)
    k2 = p["conv2_b"] + c1 @ p["conv2_w"].sum(axis=(0, 1))
    *_, side2, _ = cfg.conv_stack_sizes()
    p2 = np.empty((len(x), side2, side2, cfg.conv2_filters), dtype=dtype)
    p2[:] = np.maximum(k2, 0)

    rows, cols = _occupied_extents(matrices)
    order = np.argsort(np.maximum(rows, cols), kind="stable")
    groups = []
    for start in range(0, len(order), CONV_GROUP):
        members = order[start : start + CONV_GROUP]
        height = _crop_side(int(rows[members].max()), cfg)
        width = _crop_side(int(cols[members].max()), cfg)
        xg = x[members, :height, :width]
        z1 = conv2d(xg, p["conv1_w"]) + p["conv1_b"]
        a1 = np.maximum(z1, 0)
        p1, idx1 = maxpool2(a1)
        z2 = conv2d(p1, p["conv2_w"]) + p["conv2_b"]
        a2 = np.maximum(z2, 0)
        p2g, idx2 = maxpool2(a2)
        cell_rows, cell_cols = p2g.shape[1:3]
        p2[members, :cell_rows, :cell_cols] = p2g
        groups.append({
            "members": members, "x": xg, "z1": z1, "p1": p1, "idx1": idx1,
            "a1_shape": a1.shape, "z2": z2, "idx2": idx2, "a2_shape": a2.shape,
        })
    flat = p2.reshape(p2.shape[0], -1)

    if train_mode and cfg.dropout_flat > 0:
        mask_flat = _dropout_mask(rng, flat.shape, cfg.dropout_flat, np.dtype(dtype))
        flat_kept = flat * mask_flat
    else:
        mask_flat = None
        flat_kept = flat

    zp = pairs @ p["pair_w"] + p["pair_b"]
    ap = np.maximum(zp, 0)
    if train_mode and cfg.dropout_pair > 0:
        mask_pair = _dropout_mask(rng, ap.shape, cfg.dropout_pair, np.dtype(dtype))
        ap_kept = ap * mask_pair
    else:
        mask_pair = None
        ap_kept = ap

    joined = np.concatenate([flat_kept, ap_kept], axis=1)
    zm = joined @ p["merge_w"] + p["merge_b"]
    am = np.maximum(zm, 0)
    logits = am @ p["out_w"] + p["out_b"]
    probs = softmax(logits)

    cache = {
        "groups": groups, "c1": c1, "k2": k2, "p2_shape": p2.shape,
        "flat_kept": flat_kept, "mask_flat": mask_flat,
        "pairs": pairs, "zp": zp, "mask_pair": mask_pair,
        "joined": joined, "zm": zm, "am": am, "logits": logits, "probs": probs,
    }
    return probs, cache


def _backward_batch(model: ClassifierModel, cache: dict, dlogits: np.ndarray) -> dict:
    """Gradients of the loss w.r.t. every parameter, given d(loss)/d(logits)."""
    p = model.params
    grads: dict[str, np.ndarray] = {}

    grads["out_b"] = dlogits.sum(axis=0)
    grads["out_w"] = cache["am"].T @ dlogits
    d_am = dlogits @ p["out_w"].T
    d_zm = d_am * (cache["zm"] > 0)
    grads["merge_b"] = d_zm.sum(axis=0)
    grads["merge_w"] = cache["joined"].T @ d_zm
    d_joined = d_zm @ p["merge_w"].T

    flat_width = cache["flat_kept"].shape[1]
    d_flat_kept = d_joined[:, :flat_width]
    d_ap_kept = d_joined[:, flat_width:]

    d_ap = d_ap_kept if cache["mask_pair"] is None else d_ap_kept * cache["mask_pair"]
    d_zp = d_ap * (cache["zp"] > 0)
    grads["pair_b"] = d_zp.sum(axis=0)
    grads["pair_w"] = cache["pairs"].T @ d_zp

    d_flat = d_flat_kept if cache["mask_flat"] is None else d_flat_kept * cache["mask_flat"]
    d_p2 = d_flat.reshape(cache["p2_shape"])
    k = model.config.kernel_size
    dw1 = np.zeros_like(p["conv1_w"])
    db1 = np.zeros_like(p["conv1_b"])
    dw2 = np.zeros_like(p["conv2_w"])
    db2 = np.zeros_like(p["conv2_b"])
    # d_p2 summed over the cells outside the crops, directly rather than as
    # the total minus the inside, which would cancel in float32
    far = np.zeros_like(p["conv2_b"])
    for g in cache["groups"]:
        d_group = d_p2[g["members"]]
        cell_rows, cell_cols = g["idx2"].shape[1:3]
        far += d_group[:, cell_rows:].sum(axis=(0, 1, 2))
        far += d_group[:, :cell_rows, cell_cols:].sum(axis=(0, 1, 2))
        d_a2 = maxpool2_backward(
            d_group[:, :cell_rows, :cell_cols], g["idx2"], g["a2_shape"]
        )
        d_z2 = d_a2 * (g["z2"] > 0)
        gw2, gb2, d_p1 = conv2d_backward(g["p1"], p["conv2_w"], d_z2)
        dw2 += gw2
        db2 += gb2
        d_a1 = maxpool2_backward(d_p1, g["idx1"], g["a1_shape"])
        d_z1 = d_a1 * (g["z1"] > 0)
        dw1 += np.tensordot(
            sliding_window_view(g["x"], (k, k), axis=(1, 2)),
            d_z1,
            axes=([0, 1, 2], [0, 1, 2]),
        ).transpose(1, 2, 0, 3)
        db1 += d_z1.sum(axis=(0, 1, 2))
    # far field: each constant pool window routes to one z2 = k2 cell whose
    # conv2 window holds c1 = relu(conv1_b) everywhere, and that window's
    # gradient reaches z1 = conv1_b cells over all-zero inputs (no dw1 term)
    d_far = far * (cache["k2"] > 0)
    db2 += d_far
    dw2 += np.multiply.outer(cache["c1"], d_far)
    db1 += (p["conv1_b"] > 0) * (p["conv2_w"].sum(axis=(0, 1)) @ d_far)
    grads["conv1_w"], grads["conv1_b"] = dw1, db1
    grads["conv2_w"], grads["conv2_b"] = dw2, db2
    return grads


def cross_entropy(
    probs: np.ndarray, logits: np.ndarray, targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean weighted cross-entropy and its gradient w.r.t. the logits.
    Computed from the logits (log-sum-exp) for numerical safety."""
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    per_example = lse - shifted[np.arange(batch), targets]
    if weights is None:
        weights = np.ones(batch, dtype=logits.dtype)
    loss = float((weights * per_example).sum() / batch)
    onehot = np.zeros_like(probs)
    onehot[np.arange(batch), targets] = 1.0
    dlogits = (probs - onehot) * weights[:, None] / batch
    return loss, dlogits.astype(logits.dtype, copy=False)


def forward(
    model: ClassifierModel, matrices: np.ndarray, pair_vectors: np.ndarray
) -> np.ndarray:
    """Class probabilities, one row per example, for a stacked batch of
    (B, side, side) matrices and (B, pair_dim) pair vectors; no dropout."""
    probs, _ = _forward_batch(model, np.asarray(matrices), np.asarray(pair_vectors))
    return probs


def gradient_check(
    model: ClassifierModel, example: PairExample, eps: float = 1e-4
) -> float:
    """Worst relative error between analytic gradients and central finite
    differences, swept over every parameter. Runs in float64 so the finite
    differences are meaningful; intended for small models."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    model64 = model.astype(np.float64)
    mats = example.matrix.values[None]
    pairs = np.asarray(example.pair_vector, dtype=np.float64)[None]
    targets = np.array([model64.class_index(example.label)])

    # a batch of one through the same forward, loss and backward as train
    def run() -> tuple[float, dict, np.ndarray]:
        probs, cache = _forward_batch(model64, mats, pairs)
        loss, dlogits = cross_entropy(probs, cache["logits"], targets)
        return loss, cache, dlogits

    _, cache, dlogits = run()
    analytic = _backward_batch(model64, cache, dlogits)
    worst = 0.0
    for name in PARAM_ORDER:
        tensor = model64.params[name]
        grad = analytic[name]
        flat = tensor.reshape(-1)
        flat_grad = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            loss_plus = run()[0]
            flat[i] = keep - eps
            loss_minus = run()[0]
            flat[i] = keep
            fd = (loss_plus - loss_minus) / (2 * eps)
            denom = max(abs(flat_grad[i]) + abs(fd), 1e-8)
            worst = max(worst, abs(flat_grad[i] - fd) / denom)
    return worst


# --- training ----------------------------------------------------------------

class AdamState:
    """First/second moment accumulators, one per parameter tensor."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.t += 1
        correction1 = 1.0 - beta1**self.t
        correction2 = 1.0 - beta2**self.t
        for name in PARAM_ORDER:
            g = grads[name].astype(params[name].dtype, copy=False)
            self.m[name] = beta1 * self.m[name] + (1 - beta1) * g
            self.v[name] = beta2 * self.v[name] + (1 - beta2) * (g * g)
            m_hat = self.m[name] / correction1
            v_hat = self.v[name] / correction2
            params[name] -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(
                params[name].dtype, copy=False
            )


def _stack_dataset(
    dataset: Sequence[PairExample], class_list: Sequence[RelationshipLabel]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mats = np.stack([ex.matrix.values for ex in dataset], dtype=np.float32)
    pairs = np.stack([ex.pair_vector for ex in dataset], dtype=np.float32)
    index = {label: i for i, label in enumerate(class_list)}
    targets = np.array([index[ex.label] for ex in dataset], dtype=np.int64)
    return mats, pairs, targets


def train(
    dataset: Sequence[PairExample],
    config: TrainConfig,
    model_config: ModelConfig | None = None,
    class_list: Sequence[RelationshipLabel] | None = None,
) -> tuple[ClassifierModel, list[dict]]:
    """Mini-batch Adam training. Deterministic given the config seed: the
    weight init, epoch shuffles, and dropout masks all derive from it."""
    if not dataset:
        raise ValueError("training dataset is empty")
    if class_list is None:
        class_list = canonical_class_list(ex.label for ex in dataset)
    matrix_size = dataset[0].matrix.size
    pair_dim = int(np.asarray(dataset[0].pair_vector).size)
    if model_config is None:
        model_config = ModelConfig(
            matrix_size=matrix_size,
            pair_dim=pair_dim,
            dropout_flat=config.dropout_flat,
            dropout_pair=config.dropout_pair,
        )

    root = np.random.SeedSequence(config.seed)
    init_seq, stream_seq = root.spawn(2)
    model = init_model(model_config, class_list, seed=init_seq)
    model.rng_seed = config.seed
    stream = np.random.default_rng(stream_seq)

    mats, pairs, targets = _stack_dataset(dataset, class_list)
    weights = None
    if config.class_weights:
        table = np.ones(len(class_list), dtype=np.float32)
        for label, weight in config.class_weights.items():
            if RelationshipLabel(label) in class_list:
                table[class_list.index(RelationshipLabel(label))] = weight
        weights = table[targets]

    n = len(dataset)
    adam = AdamState(model.params)
    history: list[dict] = []
    for epoch in range(config.epochs):
        order = stream.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            probs, cache = _forward_batch(
                model, mats[batch], pairs[batch], train_mode=True, rng=stream
            )
            batch_weights = weights[batch] if weights is not None else None
            loss, dlogits = cross_entropy(
                probs, cache["logits"], targets[batch], batch_weights
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}: learning rate too high?"
                )
            grads = _backward_batch(model, cache, dlogits)
            adam.step(model.params, grads, config.learning_rate)
            epoch_loss += loss * len(batch)
            correct += int((probs.argmax(axis=1) == targets[batch]).sum())
        history.append(
            {"epoch": epoch, "loss": epoch_loss / n, "accuracy": correct / n}
        )
    return model, history


# --- serialization ------------------------------------------------------------

def save_model(model: ClassifierModel, path: str | Path) -> None:
    """Versioned binary: magic, version, JSON header (config, classes,
    shapes), then raw little-endian float32 weights in a fixed order."""
    header = {
        "config": asdict(model.config),
        "class_list": [label.value for label in model.class_list],
        "rng_seed": model.rng_seed,
        "shapes": {name: list(model.params[name].shape) for name in PARAM_ORDER},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4sII", MODEL_MAGIC, MODEL_VERSION, len(blob)))
        handle.write(blob)
        for name in PARAM_ORDER:
            handle.write(
                np.ascontiguousarray(model.params[name], dtype="<f4").tobytes()
            )


def load_model(path: str | Path) -> ClassifierModel:
    with open(path, "rb") as handle:
        prefix = handle.read(12)
        if len(prefix) < 12:
            raise ValueError(f"{path}: truncated model file")
        magic, version, header_len = struct.unpack("<4sII", prefix)
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported model version {version}")
        blob = handle.read(header_len)
        if len(blob) < header_len:
            raise ValueError(f"{path}: truncated model header")
        header = json.loads(blob.decode("utf-8"))
        config = ModelConfig(**header["config"])
        class_list = [RelationshipLabel(v) for v in header["class_list"]]
        params: dict[str, np.ndarray] = {}
        for name in PARAM_ORDER:
            shape = tuple(header["shapes"][name])
            n_bytes = int(np.prod(shape)) * 4
            raw = handle.read(n_bytes)
            if len(raw) < n_bytes:
                raise ValueError(f"{path}: truncated weights for {name}")
            params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    return ClassifierModel(config, class_list, params, header.get("rng_seed", 0))
