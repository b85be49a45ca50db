"""Numeric kernels, in numpy.

The hot inner loops of the package: vocabulary-wide cosine scoring,
block-mean pooling, the 4x4 low-pass used by the generator, and windowed
SSIM. Each kernel is defined as `<name>_numpy` and bound to `<name>`,
the name callers use. benchmarks/bench_kernels.py times them.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# SSIM stabilizers for data on the [0, 1] dynamic range.
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


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


# The call-time names. Tracers may rebind these; the *_numpy names stay
# the plain kernels, which the microbenchmarks time.
cosine_scores = cosine_scores_numpy
block_mean = block_mean_numpy
lowpass_block4 = lowpass_block4_numpy
ssim_mean = ssim_mean_numpy


def backend() -> str:
    """Name of the kernel backend; always "numpy"."""
    return "numpy"
