"""Desk-scale text and image feature encoders with an analytic gradient.

Both encoders map into the same D-dimensional unit sphere:

    encode_text(H)  = normalize(W_t @ mean_rows(H))
    encode_image(x) = normalize(W_i @ block_mean(x, g, g).ravel())

The alignment loss between a prompt and an image feature is
1 - cosine(encode_text(H), f_img). Its gradient with respect to H is
derived by the chain rule through the mean pool, the linear map and the
normalization. Writing m for the pooled prompt, z = W_t @ m, u = z/|z|
and v for the unit image feature:

    d(loss)/dz = -(v - (u . v) u) / |z|
    d(loss)/dH_j = W_t^T d(loss)/dz / L        (identical for every row j)

The dz term is orthogonal to z, which the tests assert directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateInputError, DeidError

DEFAULT_DIM = 16
DEFAULT_POOL_GRID = 8


def validate_image(img: np.ndarray, min_side: int = 8) -> np.ndarray:
    """Check a grayscale image: 2-D, finite, values in [0, 1], sides >= min_side."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise DeidError("image must be 2-D grayscale")
    if arr.shape[0] < min_side or arr.shape[1] < min_side:
        raise DeidError(f"image sides must be >= {min_side}")
    if not np.all(np.isfinite(arr)):
        raise DeidError("image contains non-finite pixels")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise DeidError("image pixels must lie in [0, 1]")
    return arr


def _normalize(vec: np.ndarray, what: str) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise DegenerateInputError(f"{what} collapsed to a zero vector")
    return vec / norm


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]; zero-norm inputs are errors."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DegenerateInputError("cosine of a zero-norm vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


@dataclass
class ReferenceEncoder:
    """Linear-pool reference encoder pair sharing one feature space.

    text_weights: (dim, dim) applied to the mean-pooled prompt.
    image_weights: (dim, pool_grid**2) applied to the flattened pooled image.
    """

    text_weights: np.ndarray
    image_weights: np.ndarray
    pool_grid: int = DEFAULT_POOL_GRID
    seed: int = 0

    def __post_init__(self):
        self.text_weights = np.asarray(self.text_weights, dtype=np.float64)
        self.image_weights = np.asarray(self.image_weights, dtype=np.float64)
        d = self.text_weights.shape[0]
        if self.text_weights.shape != (d, d):
            raise DeidError("text_weights must be square")
        if self.image_weights.shape != (d, self.pool_grid * self.pool_grid):
            raise DeidError("image_weights must be (dim, pool_grid**2)")

    @property
    def dim(self) -> int:
        return self.text_weights.shape[0]

    @classmethod
    def from_seed(
        cls,
        dim: int = DEFAULT_DIM,
        pool_grid: int = DEFAULT_POOL_GRID,
        seed: int = 0,
    ) -> "ReferenceEncoder":
        rng = np.random.default_rng(seed)
        return cls(
            text_weights=rng.standard_normal((dim, dim)),
            image_weights=rng.standard_normal((dim, pool_grid * pool_grid)),
            pool_grid=pool_grid,
            seed=seed,
        )

    def encode_text(self, prompt: np.ndarray) -> np.ndarray:
        prompt = check_prompt(prompt, self.dim)
        pooled = prompt.mean(axis=0)
        return _normalize(self.text_weights @ pooled, "text feature")

    def encode_image(self, image: np.ndarray) -> np.ndarray:
        arr = validate_image(image, min_side=self.pool_grid)
        pooled = _kernels.block_mean(arr, self.pool_grid, self.pool_grid).ravel()
        return _normalize(self.image_weights @ pooled, "image feature")

    def grad_text(self, prompt: np.ndarray, f_img: np.ndarray) -> np.ndarray:
        """Gradient of 1 - cosine(encode_text(prompt), f_img) w.r.t. prompt."""
        prompt = check_prompt(prompt, self.dim)
        v = _normalize(np.asarray(f_img, dtype=np.float64), "image feature")
        pooled = prompt.mean(axis=0)
        z = self.text_weights @ pooled
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            raise DegenerateInputError("text feature collapsed to a zero vector")
        u = z / nz
        g_z = -(v - float(np.dot(u, v)) * u) / nz
        g_row = (self.text_weights.T @ g_z) / prompt.shape[0]
        return np.tile(g_row, (prompt.shape[0], 1))


def check_prompt(prompt: np.ndarray, dim: int) -> np.ndarray:
    """The prompt as float64, checked to be a finite (L, dim) matrix with L >= 1."""
    arr = np.asarray(prompt, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != dim:
        raise DeidError(f"prompt must be (L, {dim}) with L >= 1")
    if not np.all(np.isfinite(arr)):
        raise DeidError("prompt contains non-finite values")
    return arr


def alignment_loss(prompt: np.ndarray, f_img: np.ndarray, enc) -> float:
    """1 - cosine(encode_text(prompt), f_img); lies in [0, 2]."""
    return 1.0 - cosine(enc.encode_text(prompt), np.asarray(f_img, dtype=np.float64))


def alignment_grad(prompt: np.ndarray, f_img: np.ndarray, enc) -> np.ndarray:
    return enc.grad_text(prompt, f_img)


def finite_difference_grad(
    prompt: np.ndarray, f_img: np.ndarray, enc, step: float = 1e-5
) -> np.ndarray:
    """Central finite differences of the alignment loss, entry by entry."""
    base = np.asarray(prompt, dtype=np.float64)
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            hi = base.copy()
            lo = base.copy()
            hi[i, j] += step
            lo[i, j] -= step
            grad[i, j] = (
                alignment_loss(hi, f_img, enc) - alignment_loss(lo, f_img, enc)
            ) / (2.0 * step)
    return grad


def max_relative_grad_error(
    prompt: np.ndarray, f_img: np.ndarray, enc, step: float = 1e-5
) -> float:
    """Max |analytic - finite difference| over the largest gradient entry.

    The denominator is the sup norm of the finite-difference gradient so
    near-zero entries do not inflate the ratio.
    """
    analytic = alignment_grad(prompt, f_img, enc)
    numeric = finite_difference_grad(prompt, f_img, enc, step=step)
    scale = max(float(np.abs(numeric).max()), 1e-300)
    return float(np.abs(analytic - numeric).max() / scale)
