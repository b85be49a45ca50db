"""Numeric kernels, in numpy.

The hot inner loops of the package: vocabulary-wide cosine scoring,
block-mean pooling, the 4x4 low-pass used by the generator, and windowed
SSIM on summed-area tables. Each kernel is defined as `<name>_numpy` and
bound to `<name>`, the name callers use. benchmarks/bench_kernels.py
times them.
"""

from __future__ import annotations

import numpy as np

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
    """Mean local SSIM over win x win sliding windows with stride 1.

    Every window sum of the five moments (a, b, a^2, b^2, ab) comes from
    a summed-area table (Crow 1984) by a four-corner difference, so the
    cost is O(H*W) whatever `win` is. Both images are centred on their
    global means first: the tables then sum small numbers, which keeps
    near-flat images as accurate as direct window sums. The means come
    back only in the luminance term; the (co)variances do not depend on
    them.
    """
    h, w = x.shape
    if not 1 <= win <= min(h, w):
        raise ValueError("the SSIM window must fit inside the image")
    gx, gy = x.mean(), y.mean()
    a, b = x - gx, y - gy
    sat = np.zeros((5, h + 1, w + 1))
    moments = sat[:, 1:, 1:]
    moments[0], moments[1] = a, b
    np.multiply(a, a, out=moments[2])
    np.multiply(b, b, out=moments[3])
    np.multiply(a, b, out=moments[4])
    np.cumsum(moments, axis=1, out=moments)
    np.cumsum(moments, axis=2, out=moments)
    sums = (sat[:, win:, win:] - sat[:, :-win, win:]) - (
        sat[:, win:, :-win] - sat[:, :-win, :-win]
    )
    ma, mb, saa, sbb, sab = sums / (win * win)
    vx = saa - ma * ma
    vy = sbb - mb * mb
    cxy = sab - ma * mb
    mx, my = ma + gx, mb + gy
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
