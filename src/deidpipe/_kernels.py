"""Numeric kernels with two interchangeable backends.

The hot inner loops of the package (vocabulary-wide cosine scoring,
block-mean pooling, the 4x4 low-pass used by the generator, and windowed
SSIM) are compiled with numba when it is importable. Setting the
environment variable DEIDPIPE_DISABLE_NUMBA=1 before import selects the
pure-numpy implementations instead; the two backends agree to floating
point roundoff. benchmarks/bench_kernels.py times both.

All numba kernels are sequential on purpose: parallel reductions reorder
floating point sums and would break bitwise reproducibility of runs.
"""

from __future__ import annotations

import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

_DISABLED = os.environ.get("DEIDPIPE_DISABLE_NUMBA", "").strip().lower() in (
    "1",
    "true",
    "yes",
)

# SSIM stabilizers for data on the [0, 1] dynamic range.
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


# ---------------------------------------------------------------------------
# pure numpy implementations
# ---------------------------------------------------------------------------


def cosine_scores_numpy(q_unit: np.ndarray, unit_rows: np.ndarray) -> np.ndarray:
    """Cosine of unit queries against every unit row, clamped to [-1, 1].

    q_unit is one (D,) query or an (L, D) block; the result is (V,) or
    (L, V). Each score is the same function of its two vectors whatever
    the block shape or position, so equal rows score bitwise equal and
    a block row equals the single-query result. BLAS matrix products do
    not guarantee either.
    """
    return np.clip(np.einsum("...d,vd->...v", q_unit, unit_rows), -1.0, 1.0)


def _block_means(img: np.ndarray, row_cuts: np.ndarray, col_cuts: np.ndarray) -> np.ndarray:
    """Mean of every block between consecutive cuts; the last block runs to the edge.

    The cuts must start at 0 and increase strictly, so no block is empty.
    """
    sums = np.add.reduceat(np.add.reduceat(img, row_cuts, axis=0), col_cuts, axis=1)
    rows = np.diff(row_cuts, append=img.shape[0])
    cols = np.diff(col_cuts, append=img.shape[1])
    return sums / np.outer(rows, cols)


def block_mean_numpy(img: np.ndarray, grid_h: int, grid_w: int) -> np.ndarray:
    """Adaptive block-mean pooling to a grid_h x grid_w grid.

    Block (i, j) covers rows [i*H//gh, (i+1)*H//gh) and the analogous
    column range, so any image at least as large as the grid pools cleanly.
    """
    h, w = img.shape
    if h < grid_h or w < grid_w:
        raise ValueError("image must be at least as large as the pooling grid")
    return _block_means(
        img, (np.arange(grid_h) * h) // grid_h, (np.arange(grid_w) * w) // grid_w
    )


def lowpass_block4_numpy(img: np.ndarray) -> np.ndarray:
    """Mean over fixed 4x4 tiles, upsampled back to the input shape.

    Tile boundaries sit at multiples of 4; a ragged last tile averages
    over whatever pixels remain.
    """
    h, w = img.shape
    means = _block_means(img, np.arange(0, h, 4), np.arange(0, w, 4))
    return np.repeat(np.repeat(means, 4, axis=0), 4, axis=1)[:h, :w]


def ssim_mean_numpy(x: np.ndarray, y: np.ndarray, win: int = 8) -> float:
    """Mean local SSIM over win x win sliding windows with stride 1."""
    wx = sliding_window_view(x, (win, win))
    wy = sliding_window_view(y, (win, win))
    mx = wx.mean(axis=(-2, -1))
    my = wy.mean(axis=(-2, -1))
    vx = (wx * wx).mean(axis=(-2, -1)) - mx * mx
    vy = (wy * wy).mean(axis=(-2, -1)) - my * my
    cxy = (wx * wy).mean(axis=(-2, -1)) - mx * my
    num = (2.0 * mx * my + SSIM_C1) * (2.0 * cxy + SSIM_C2)
    den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
    return float((num / den).mean())


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True)
    def _cosine_scores_nb(q_unit, unit_rows):
        n, d = unit_rows.shape
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            acc = 0.0
            for k in range(d):
                acc += unit_rows[i, k] * q_unit[k]
            if acc > 1.0:
                acc = 1.0
            elif acc < -1.0:
                acc = -1.0
            out[i] = acc
        return out

    @njit(cache=True)
    def _block_mean_nb(img, grid_h, grid_w):
        h, w = img.shape
        out = np.empty((grid_h, grid_w), dtype=np.float64)
        for i in range(grid_h):
            r0 = (i * h) // grid_h
            r1 = ((i + 1) * h) // grid_h
            for j in range(grid_w):
                c0 = (j * w) // grid_w
                c1 = ((j + 1) * w) // grid_w
                acc = 0.0
                for r in range(r0, r1):
                    for c in range(c0, c1):
                        acc += img[r, c]
                out[i, j] = acc / ((r1 - r0) * (c1 - c0))
        return out

    @njit(cache=True)
    def _lowpass_block4_nb(img):
        h, w = img.shape
        bh = (h + 3) // 4
        bw = (w + 3) // 4
        means = np.empty((bh, bw), dtype=np.float64)
        for bi in range(bh):
            r0 = 4 * bi
            r1 = min(r0 + 4, h)
            for bj in range(bw):
                c0 = 4 * bj
                c1 = min(c0 + 4, w)
                acc = 0.0
                for r in range(r0, r1):
                    for c in range(c0, c1):
                        acc += img[r, c]
                means[bi, bj] = acc / ((r1 - r0) * (c1 - c0))
        out = np.empty((h, w), dtype=np.float64)
        for r in range(h):
            for c in range(w):
                out[r, c] = means[r // 4, c // 4]
        return out

    @njit(cache=True)
    def _ssim_mean_nb(x, y, win):
        h, w = x.shape
        nh = h - win + 1
        nw = w - win + 1
        inv = 1.0 / (win * win)
        total = 0.0
        for i in range(nh):
            for j in range(nw):
                sx = 0.0
                sy = 0.0
                sxx = 0.0
                syy = 0.0
                sxy = 0.0
                for a in range(win):
                    for b in range(win):
                        xv = x[i + a, j + b]
                        yv = y[i + a, j + b]
                        sx += xv
                        sy += yv
                        sxx += xv * xv
                        syy += yv * yv
                        sxy += xv * yv
                mx = sx * inv
                my = sy * inv
                vx = sxx * inv - mx * mx
                vy = syy * inv - my * my
                cxy = sxy * inv - mx * my
                num = (2.0 * mx * my + SSIM_C1) * (2.0 * cxy + SSIM_C2)
                den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
                total += num / den
        return total / (nh * nw)

    def cosine_scores_numba(q_unit: np.ndarray, unit_rows: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(unit_rows)
        if np.ndim(q_unit) == 2:
            return np.array([_cosine_scores_nb(np.ascontiguousarray(q), rows) for q in q_unit])
        return _cosine_scores_nb(np.ascontiguousarray(q_unit), rows)

    def block_mean_numba(img: np.ndarray, grid_h: int, grid_w: int) -> np.ndarray:
        return _block_mean_nb(np.ascontiguousarray(img), grid_h, grid_w)

    def lowpass_block4_numba(img: np.ndarray) -> np.ndarray:
        return _lowpass_block4_nb(np.ascontiguousarray(img))

    def ssim_mean_numba(x: np.ndarray, y: np.ndarray, win: int = 8) -> float:
        return float(
            _ssim_mean_nb(np.ascontiguousarray(x), np.ascontiguousarray(y), win)
        )


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

if HAS_NUMBA and not _DISABLED:
    _BACKEND = "numba"
    cosine_scores = cosine_scores_numba
    block_mean = block_mean_numba
    lowpass_block4 = lowpass_block4_numba
    ssim_mean = ssim_mean_numba
else:
    _BACKEND = "numpy"
    cosine_scores = cosine_scores_numpy
    block_mean = block_mean_numpy
    lowpass_block4 = lowpass_block4_numpy
    ssim_mean = ssim_mean_numpy


def backend() -> str:
    """Name of the active kernel backend, either "numba" or "numpy"."""
    return _BACKEND


def warmup() -> None:
    """Trigger JIT compilation of every kernel on tiny inputs."""
    q = np.ones(2)
    rows = np.eye(2)
    cosine_scores(q / np.sqrt(2.0), rows)
    img = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    block_mean(img, 2, 2)
    lowpass_block4(img)
    ssim_mean(img, img, 8)
