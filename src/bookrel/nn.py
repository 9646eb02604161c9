"""Two-branch relationship classifier trained from scratch on numpy.

The similarity matrix passes through two valid 3x3 convolutions, each ReLU
activated and 2x2 max-pooled, then is flattened with dropout. The pair
feature vector passes through a dense ReLU layer with its own dropout. Both
branches are concatenated, pushed through a dense ReLU layer, and projected
to class logits with a softmax head.

Matrices are zero-padded top-left to the model's side and are mostly
padding, so the conv/pool stack runs only where their nonzero cells reach.
Each example's own crop is the smallest top-left (height, width) that holds
every pool2 cell its nonzeros (last nonzero row and column) can reach. A
batch is taken in (crop height, crop width) order and cut into groups:
equal crops always share a group, and a group grows while its cells, padded
to its largest height and width, stay within CROP_PAD_CELLS of its members'
own cells. conv1 -> pool1 -> conv2 -> pool2 runs once per group, on that
padded crop. Everything outside the crops is one constant per channel,
because a zero input there reduces each layer to its bias path; its pool2
values and its backward terms are filled in closed form. Results equal the
full-side computation up to float32 rounding.

A convolution is one matrix product over im2col columns: every output
cell's k x k x Cin window in (i, j, c) order, the row order of
w.reshape(k*k*Cin, Cout), made with one copy. Its weight gradient is the
transposed product over the same columns, and its input gradient adds
dout @ w[i, j]^T back at each of the k*k shifts (col2im). Pooling compares
four stride-2 views of the input and keeps the argmax as a uint8 0-3, the
first maximum winning ties. Adam updates its moments and the parameters in
place, through buffers allocated once per training run.

Everything is plain numpy: forward, backpropagation, Adam updates, and a
finite-difference gradient checker that verifies the analytic gradients.
Training is a pure function of (dataset order, config, seed).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .features import PairExample
from .labels import RelationshipLabel, canonical_class_list

MODEL_MAGIC = b"BKRM"
MODEL_VERSION = 2
# padded cells a conv/pool group may carry beyond its members' own crops:
# about what one more group's kernel calls cost in per-call overhead, so
# near-equal crops share a group and a long, thin crop is not padded square
CROP_PAD_CELLS = 1024

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


def _check_number(value, where: str, integer: bool = False) -> None:
    """A ValueError naming `where` unless value is an int, or with
    integer=False an int or float; bool (JSON true/false) is refused."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{where}: expected {kind}, got {type(value).__name__}")


@dataclass
class TrainConfig:
    """Every training setting. Each value is checked here, in an error that
    names its field; class_weights become {label: float}."""

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    dropout_flat: float = 0.5
    dropout_pair: float = 0.25
    seed: int = 0
    class_weights: dict[RelationshipLabel, float] | None = None

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed"):
            _check_number(getattr(self, name), name, integer=True)
        for name in ("learning_rate", "dropout_flat", "dropout_pair"):
            _check_number(getattr(self, name), name)
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: expected a finite number, got {getattr(self, name)}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("dropout_flat", "dropout_pair"):
            # a rate of 1 keeps nothing and divides the mask by zero
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.class_weights is not None:
            self.class_weights = _label_weights(self.class_weights)


def _label_weights(weights) -> dict[RelationshipLabel, float]:
    if not isinstance(weights, dict):
        raise ValueError(f"class_weights: expected an object, got {type(weights).__name__}")
    unknown = sorted(str(k) for k in weights if k not in {x.value for x in RelationshipLabel})
    if unknown:
        raise ValueError(f"class_weights: unknown labels {unknown}")
    table = {RelationshipLabel(key): weight for key, weight in weights.items()}
    for label, weight in table.items():
        _check_number(weight, f"class_weights: {label.value}")
        if not 0 <= weight < math.inf:
            raise ValueError(f"class_weights[{label.value}] must be a finite number >= 0, "
                             f"got {float(weight)}")
    return {label: float(weight) for label, weight in table.items()}


@dataclass
class ClassifierModel:
    config: ModelConfig
    class_list: list[RelationshipLabel]
    params: dict[str, np.ndarray]

    def class_index(self, label: RelationshipLabel) -> int:
        return self.class_list.index(label)

    def astype(self, dtype) -> "ClassifierModel":
        return ClassifierModel(
            self.config,
            list(self.class_list),
            {k: v.astype(dtype) for k, v in self.params.items()},
        )


def _param_shapes(config: ModelConfig, n_classes: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in PARAM_ORDER, from the architecture and the
    class count; init_model draws them and load_model reads them."""
    k = config.kernel_size
    f1, f2 = config.conv1_filters, config.conv2_filters
    *_, flat = config.conv_stack_sizes()
    return {
        "conv1_w": (k, k, 1, f1), "conv1_b": (f1,),
        "conv2_w": (k, k, f1, f2), "conv2_b": (f2,),
        "pair_w": (config.pair_dim, config.pair_hidden), "pair_b": (config.pair_hidden,),
        "merge_w": (flat + config.pair_hidden, config.merge_hidden),
        "merge_b": (config.merge_hidden,),
        "out_w": (config.merge_hidden, n_classes), "out_b": (n_classes,),
    }


def init_model(
    config: ModelConfig,
    class_list: Sequence[RelationshipLabel],
    seed: int = 0,
) -> ClassifierModel:
    """Glorot-uniform weights, zero biases, drawn in PARAM_ORDER. A weight's
    fans are its input and output widths times its kernel area."""
    if not class_list:
        raise ValueError("class_list must not be empty")
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(config, len(class_list)).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            area = math.prod(shape[:-2])
            limit = np.sqrt(6.0 / (area * shape[-2] + area * shape[-1]))
            params[name] = rng.uniform(-limit, limit, size=shape).astype(np.float32)
    return ClassifierModel(config, list(class_list), params)


# --- layer primitives -------------------------------------------------------

def _columns(x: np.ndarray, k: int) -> np.ndarray:
    """im2col: the (B*H'*W', k*k*Cin) matrix with one row per output cell,
    its k x k x Cin window in (i, j, c) order to match
    w.reshape(k*k*Cin, Cout), made with one copy. With one input channel the
    copy is stored transposed, as k*k shifted images, because rows of k*k
    single floats copy three to eight times slower; matrix products accept
    either layout."""
    cin = x.shape[3]
    if cin == 1:
        windows = sliding_window_view(x[..., 0], (k, k), axis=(1, 2))
        return np.ascontiguousarray(windows.transpose(3, 4, 0, 1, 2)).reshape(k * k, -1).T
    windows = sliding_window_view(x, (k, k), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    return np.ascontiguousarray(windows).reshape(-1, k * k * cin)


def _conv_weight_grad(x: np.ndarray, dout: np.ndarray, k: int) -> np.ndarray:
    """d(loss)/dw of conv2d, (k, k, Cin, Cout), from the input columns."""
    cout = dout.shape[3]
    dw = _columns(x, k).T @ dout.reshape(-1, cout)
    return dw.reshape(k, k, x.shape[3], cout)


def conv2d(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid-mode stride-1 2D convolution (cross-correlation).
    x: (B, H, W, Cin), w: (k, k, Cin, Cout) -> (B, H-k+1, W-k+1, Cout)."""
    k, _, cin, cout = w.shape
    b, h, width, _ = x.shape
    out = _columns(x, k) @ w.reshape(k * k * cin, cout)
    return out.reshape(b, h - k + 1, width - k + 1, cout)


def conv2d_backward(x: np.ndarray, w: np.ndarray, dout: np.ndarray):
    """Gradients of conv2d: returns (dw, db, dx). dx is col2im: for each of
    the k*k kernel offsets, dout @ w[i, j]^T is added into a zeroed dx at
    that shift. One product per offset, not one (.., k*k*Cin) product, so
    that each add reads contiguous rows rather than Cin floats at a time."""
    k, _, cin, cout = w.shape
    b, ho, wo, _ = dout.shape
    dw = _conv_weight_grad(x, dout, k)
    db = dout.sum(axis=(0, 1, 2))
    flat = dout.reshape(-1, cout)
    dx = np.zeros(x.shape, dtype=np.result_type(dout, w))
    for i in range(k):
        for j in range(k):
            dx[:, i : i + ho, j : j + wo] += (flat @ w[i, j].T).reshape(b, ho, wo, cin)
    return dw, db, dx


def _pool_corners(x: np.ndarray) -> list[np.ndarray]:
    """The four stride-2 views of 2x2 windows, in (0,0), (0,1), (1,0), (1,1)
    order; odd trailing rows and columns fall outside every window."""
    h2, w2 = x.shape[1] // 2, x.shape[2] // 2
    return [x[:, di : 2 * h2 : 2, dj : 2 * w2 : 2] for di in (0, 1) for dj in (0, 1)]


def maxpool2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 stride-2 max pooling with floor cropping on odd sizes. Returns the
    pooled tensor and the within-window argmax as uint8 0-3 (first maximum on
    ties): each comparison is strict, so a later corner wins only when it is
    larger."""
    q0, q1, q2, q3 = _pool_corners(x)
    top = np.maximum(q0, q1)
    bottom = np.maximum(q2, q3)
    lower = bottom > top
    idx = np.where(lower, q3 > q2, q1 > q0).view(np.uint8)
    idx |= lower.view(np.uint8) << 1
    return np.maximum(top, bottom), idx


def maxpool2_backward(dout: np.ndarray, idx: np.ndarray, x_shape) -> np.ndarray:
    """Route each pooled gradient to its window's argmax position only."""
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for position, corner in enumerate(_pool_corners(dx)):
        corner[...] = np.where(idx == position, dout, 0)
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


def _crop_side(extent: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Crop length along one axis whose pool2 output holds every pool2 cell
    that an occupied extent e reaches along it: ceil(ceil(e/2)/2) cells, at
    least one so that conv2's window fits, need 4 cells + 3(k-1) inputs.
    Elementwise over an array of extents."""
    pool1_cells = -(-extent // 2)
    cells = np.maximum(-(-pool1_cells // 2), 1)
    return np.minimum(4 * cells + 3 * (config.kernel_size - 1), config.matrix_size)


def _crop_groups(
    rows: np.ndarray, cols: np.ndarray, config: ModelConfig
) -> list[tuple[np.ndarray, int, int]]:
    """A batch's conv/pool groups as (members, crop height, crop width), from
    the occupied extents alone. Examples are taken in stable (own crop
    height, own crop width) order, one run of equal crops at a time; a run
    joins the open group while the group's padded cells, members x height x
    width, stay within CROP_PAD_CELLS of its members' own cells, and opens a
    new group otherwise."""
    heights = _crop_side(rows, config).tolist()
    widths = _crop_side(cols, config).tolist()
    order = np.lexsort((widths, heights)).tolist()
    groups: list[tuple[np.ndarray, int, int]] = []
    members: list[int] = []
    own = height = width = 0
    for (h, w), run in itertools.groupby(order, key=lambda i: (heights[i], widths[i])):
        run = list(run)
        cells = own + len(run) * h * w
        wide = max(width, w)
        if members and (len(members) + len(run)) * h * wide - cells > CROP_PAD_CELLS:
            groups.append((np.array(members), height, width))
            members, cells, wide = [], len(run) * h * w, w
        members += run
        own, height, width = cells, h, wide
    if members:
        groups.append((np.array(members), height, width))
    return groups


def _forward_batch(
    model: ClassifierModel,
    matrices: np.ndarray,
    pair_vectors: np.ndarray,
    dropout: tuple[np.random.Generator, float, float] | None = None,
) -> tuple[np.ndarray, dict]:
    """Batched forward pass; the cache holds every intermediate needed by
    backpropagation. `dropout` is (generator, flat rate, pair rate) in
    training and None for inference. Dropout is inverted, so inference needs
    no rescaling. Each mask is drawn only when its rate is above 0, over the
    whole flattened batch in batch order, the flat mask first."""
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
    rng, rate_flat, rate_pair = dropout or (None, 0.0, 0.0)

    x = matrices.astype(dtype, copy=False)[..., None]
    pairs = pair_vectors.astype(dtype, copy=False)

    # far field: x = 0, so z1 = conv1_b and z2 = conv2_b + sum_ij w2[i,j]^T c1
    c1 = np.maximum(p["conv1_b"], 0)
    k2 = p["conv2_b"] + c1 @ p["conv2_w"].sum(axis=(0, 1))
    *_, side2, _ = cfg.conv_stack_sizes()
    p2 = np.empty((len(x), side2, side2, cfg.conv2_filters), dtype=dtype)
    p2[:] = np.maximum(k2, 0)

    groups = []
    for members, height, width in _crop_groups(*_occupied_extents(matrices), cfg):
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

    if rate_flat > 0:
        mask_flat = _dropout_mask(rng, flat.shape, rate_flat, np.dtype(dtype))
        flat_kept = flat * mask_flat
    else:
        mask_flat = None
        flat_kept = flat

    zp = pairs @ p["pair_w"] + p["pair_b"]
    ap = np.maximum(zp, 0)
    if rate_pair > 0:
        mask_pair = _dropout_mask(rng, ap.shape, rate_pair, np.dtype(dtype))
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
        dw1 += _conv_weight_grad(g["x"], d_z1, k)
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
    """First/second moment accumulators, one per parameter tensor, and two
    scratch buffers per tensor so that a step allocates nothing."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = {
            k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()
        }
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
        # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g);
        # p -= lr*(m/c1) / (sqrt(v/c2) + eps): the same float32 operations in
        # the same order, written into the buffers
        for name in PARAM_ORDER:
            g = grads[name].astype(params[name].dtype, copy=False)
            m, v = self.m[name], self.v[name]
            step, root = self._scratch[name]
            m *= beta1
            np.multiply(g, 1 - beta1, out=step)
            m += step
            v *= beta2
            np.multiply(g, g, out=step)
            step *= 1 - beta2
            v += step
            np.divide(m, correction1, out=step)
            step *= lr
            np.divide(v, correction2, out=root)
            np.sqrt(root, out=root)
            root += eps
            step /= root
            params[name] -= step


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
        model_config = ModelConfig(matrix_size=matrix_size, pair_dim=pair_dim)

    root = np.random.SeedSequence(config.seed)
    init_seq, stream_seq = root.spawn(2)
    model = init_model(model_config, class_list, seed=init_seq)
    stream = np.random.default_rng(stream_seq)
    dropout = (stream, config.dropout_flat, config.dropout_pair)

    mats, pairs, targets = _stack_dataset(dataset, class_list)
    weights = None
    if config.class_weights:
        table = np.ones(len(class_list), dtype=np.float32)
        for label, weight in config.class_weights.items():
            if label in class_list:
                table[class_list.index(label)] = weight
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
            probs, cache = _forward_batch(model, mats[batch], pairs[batch], dropout)
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
    """Versioned binary: magic, version, header length, a JSON header holding
    the architecture (`config`) and the `class_list`, then raw little-endian
    float32 weights in PARAM_ORDER, each in the shape the architecture and
    class count give it. Training settings are not stored: inference does
    not read them, and the run manifest records them."""
    header = {
        "config": asdict(model.config),
        "class_list": [label.value for label in model.class_list],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4sII", MODEL_MAGIC, MODEL_VERSION, len(blob)))
        handle.write(blob)
        for name in PARAM_ORDER:
            handle.write(
                np.ascontiguousarray(model.params[name], dtype="<f4").tobytes()
            )


def _keys_exactly(path, where: str, value, names: set[str]) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {where}: expected an object, got {type(value).__name__}")
    missing, unknown = sorted(names - set(value)), sorted(set(value) - names)
    if missing or unknown:
        raise ValueError(f"{path}: {where}: missing keys {missing}, unknown keys {unknown}")


def _read_header(path, blob: bytes) -> tuple[ModelConfig, list[RelationshipLabel]]:
    """The architecture and class list of a model header, or a ValueError
    naming the file."""
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise ValueError(f"{path}: model header is not JSON: {exc}") from exc
    _keys_exactly(path, "model header", header, {"config", "class_list"})
    values = header["config"]
    _keys_exactly(path, "config", values, {f.name for f in fields(ModelConfig)})
    bad = sorted(name for name, value in values.items()
                 if isinstance(value, bool) or not isinstance(value, int) or value < 1)
    if bad:
        raise ValueError(f"{path}: config: {bad} must be integers >= 1")
    labels = header["class_list"]
    names = {label.value for label in RelationshipLabel}
    if (not isinstance(labels, list) or not labels
            or not all(isinstance(v, str) and v in names for v in labels)
            or len(set(labels)) < len(labels)):
        raise ValueError(
            f"{path}: class_list must be a non-empty list of distinct labels, got {labels}"
        )
    return ModelConfig(**values), [RelationshipLabel(v) for v in labels]


def load_model(path: str | Path) -> ClassifierModel:
    """Read a save_model file. A file of another version, a header that is
    not a JSON object of exactly the architecture's fields and a list of
    known labels, or weights that do not fill the architecture's shapes
    exactly (too few bytes or too many) raises a ValueError naming the
    file."""
    with open(path, "rb") as handle:
        prefix = handle.read(12)
        if len(prefix) < 12:
            raise ValueError(f"{path}: truncated model file")
        magic, version, header_len = struct.unpack("<4sII", prefix)
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != MODEL_VERSION:
            raise ValueError(
                f"{path}: unsupported model version {version} "
                f"(this version reads {MODEL_VERSION}; retrain the model)"
            )
        blob = handle.read(header_len)
        if len(blob) < header_len:
            raise ValueError(f"{path}: truncated model header")
        config, class_list = _read_header(path, blob)
        try:
            shapes = _param_shapes(config, len(class_list))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        want = 4 * sum(math.prod(shape) for shape in shapes.values())
        have = os.fstat(handle.fileno()).st_size - handle.tell()
        if have < want:
            raise ValueError(f"{path}: truncated weights: {have} of {want} bytes")
        if have > want:
            raise ValueError(f"{path}: {have - want} bytes after the weights")
        params = {
            name: np.frombuffer(handle.read(4 * math.prod(shape)), dtype="<f4")
            .reshape(shape).copy()
            for name, shape in shapes.items()
        }
    return ClassifierModel(config, class_list, params)
