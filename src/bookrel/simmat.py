"""Chunk-similarity matrices, pair feature vectors, and a one-matrix file format.

The similarity matrix of an ordered book pair holds the cosine similarity of
every left-chunk/right-chunk combination, zero-padded or truncated to a fixed
side length so a convolutional classifier sees a constant input shape. The
pair feature vector concatenates the centroid of the two book vectors with
their difference (left minus right).

`save_matrix`/`load_matrix` read and write one matrix as a `.smx` file. A
feature directory does not use them: it keeps every matrix of the store as a
headerless record of one ``matrices.f32`` (see `bookrel.features`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MATRIX_MAGIC = b"SMX1"
DEFAULT_MATRIX_SIZE = 150


@dataclass(frozen=True)
class SimilarityMatrix:
    """Fixed-size padded similarity grid. `left_chunks`/`right_chunks` keep
    the unpadded chunk counts; everything outside that block is exactly 0."""

    values: np.ndarray  # (size, size) float32
    left_chunks: int
    right_chunks: int

    @property
    def size(self) -> int:
        return self.values.shape[0]


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; 0 when either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def pairwise_similarity(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """M[i, j] = cosine(left[i], right[j]); rows index the left book's chunks.
    Zero-norm chunks (fully out-of-vocabulary) score 0 against everything."""
    left = np.atleast_2d(np.asarray(left, dtype=np.float64))
    right = np.atleast_2d(np.asarray(right, dtype=np.float64))
    if left.size == 0 or right.size == 0:
        return np.zeros((left.shape[0] if left.size else 0,
                         right.shape[0] if right.size else 0))
    if left.shape[1] != right.shape[1]:
        raise ValueError(f"dimension mismatch: {left.shape[1]} vs {right.shape[1]}")
    norm_left = np.linalg.norm(left, axis=1, keepdims=True)
    norm_right = np.linalg.norm(right, axis=1, keepdims=True)
    safe_left = np.where(norm_left > 0, norm_left, 1.0)
    safe_right = np.where(norm_right > 0, norm_right, 1.0)
    return (left / safe_left) @ (right / safe_right).T


def pad_truncate(matrix: np.ndarray, size: int = DEFAULT_MATRIX_SIZE) -> SimilarityMatrix:
    """Anchor the matrix at the top-left of a size x size zero grid, cropping
    rows/columns beyond `size`. The original chunk counts are preserved."""
    if size < 1:
        raise ValueError(f"matrix size must be >= 1, got {size}")
    matrix = np.atleast_2d(np.asarray(matrix))
    rows, cols = matrix.shape
    out = np.zeros((size, size), dtype=np.float32)
    out[: min(rows, size), : min(cols, size)] = matrix[:size, :size]
    return SimilarityMatrix(out, rows, cols)


def pair_features(left_vec: np.ndarray, right_vec: np.ndarray) -> np.ndarray:
    """Centroid of the two book vectors concatenated with left minus right;
    the result is twice as long as a book vector."""
    left_vec = np.asarray(left_vec, dtype=np.float64)
    right_vec = np.asarray(right_vec, dtype=np.float64)
    if left_vec.shape != right_vec.shape:
        raise ValueError(f"dimension mismatch: {left_vec.shape} vs {right_vec.shape}")
    centroid = (left_vec + right_vec) / 2.0
    difference = left_vec - right_vec
    return np.concatenate([centroid, difference])


def save_matrix(matrix: SimilarityMatrix, path: str | Path) -> None:
    """16-byte header (magic, side, left_chunks, right_chunks as little-endian
    u32) followed by row-major little-endian float32 values."""
    header = struct.pack(
        "<4sIII", MATRIX_MAGIC, matrix.size, matrix.left_chunks, matrix.right_chunks
    )
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(np.ascontiguousarray(matrix.values, dtype="<f4").tobytes())


def load_matrix(path: str | Path) -> SimilarityMatrix:
    with open(path, "rb") as handle:
        header = handle.read(16)
        if len(header) < 16:
            raise ValueError(f"{path}: truncated header")
        magic, size, left_chunks, right_chunks = struct.unpack("<4sIII", header)
        if magic != MATRIX_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        payload = handle.read(size * size * 4 + 1)
    if len(payload) != size * size * 4:
        raise ValueError(f"{path}: expected {size * size} float32 values")
    values = np.frombuffer(payload, dtype="<f4").reshape(size, size).copy()
    return SimilarityMatrix(values, left_chunks, right_chunks)
