"""The numpy kernels against loop-level reference implementations."""

from __future__ import annotations

import numpy as np
import pytest

from deidpipe import _kernels
from oracles import naive_block_mean, naive_cosine_scores, naive_lowpass4, naive_ssim


def _unit(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("impl", [_kernels.cosine_scores_numpy])
def test_cosine_scores_matches_reference(impl):
    rng = np.random.default_rng(0)
    rows = _unit(rng, 37, 9)
    q = _unit(rng, 1, 9)[0]
    got = impl(q, rows)
    want = naive_cosine_scores(q, rows)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got.max() <= 1.0 and got.min() >= -1.0


@pytest.mark.parametrize("impl", [_kernels.cosine_scores_numpy])
def test_cosine_scores_self_row_is_one(impl):
    rng = np.random.default_rng(1)
    rows = _unit(rng, 5, 6)
    scores = impl(rows[2].copy(), rows)
    assert scores[2] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("impl", [_kernels.cosine_scores_numpy])
def test_cosine_scores_block_rows_equal_single_queries(impl):
    rng = np.random.default_rng(8)
    rows = _unit(rng, 301, 16)
    rows[::7] = rows[5]
    queries = _unit(rng, 23, 16)
    block = impl(queries, rows)
    assert block.shape == (23, 301)
    for q, got in zip(queries, block):
        np.testing.assert_array_equal(got, impl(q, rows))
        np.testing.assert_allclose(got, naive_cosine_scores(q, rows), rtol=0, atol=1e-12)
    assert np.all(block[:, ::7] == block[:, 5:6]), "equal rows must score bitwise equal"


@pytest.mark.parametrize("impl", [_kernels.block_mean_numpy])
@pytest.mark.parametrize("shape,grid", [((64, 64), (8, 8)), ((50, 37), (8, 8)), ((9, 9), (4, 4)), ((8, 8), (8, 8))])
def test_block_mean_matches_reference(impl, shape, grid):
    rng = np.random.default_rng(2)
    img = rng.random(shape)
    got = impl(img, *grid)
    want = naive_block_mean(img, *grid)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("impl", [_kernels.block_mean_numpy])
def test_block_mean_of_constant_image(impl):
    img = np.full((40, 24), 0.3125)
    got = impl(img, 8, 8)
    np.testing.assert_array_equal(got, np.full((8, 8), 0.3125))


@pytest.mark.parametrize("impl", [_kernels.lowpass_block4_numpy])
@pytest.mark.parametrize("shape", [(64, 64), (10, 13), (4, 4), (9, 9)])
def test_lowpass_block4_matches_reference(impl, shape):
    rng = np.random.default_rng(3)
    img = rng.random(shape)
    got = impl(img)
    want = naive_lowpass4(img)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got.shape == shape


@pytest.mark.parametrize("impl", [_kernels.lowpass_block4_numpy])
def test_lowpass_block4_is_idempotent_on_aligned_images(impl):
    rng = np.random.default_rng(4)
    img = rng.random((16, 16))
    once = impl(img)
    np.testing.assert_allclose(impl(once), once, rtol=0, atol=1e-12)


@pytest.mark.parametrize("impl", [_kernels.ssim_mean_numpy])
def test_ssim_mean_matches_reference(impl):
    rng = np.random.default_rng(5)
    x = rng.random((20, 20))
    y = rng.random((20, 20))
    assert impl(x, y, 8) == pytest.approx(naive_ssim(x, y, 8), abs=1e-12)


@pytest.mark.parametrize("impl", [_kernels.ssim_mean_numpy])
def test_ssim_mean_identical_images_is_exactly_one(impl):
    rng = np.random.default_rng(6)
    x = rng.random((24, 24))
    assert impl(x, x.copy(), 8) == 1.0


def _ssim_cases():
    rng = np.random.default_rng(9)

    def pair(make):
        return make(), make()

    return {
        "17x40": (pair(lambda: rng.random((17, 40))), 8),
        "40x17": (pair(lambda: rng.random((40, 17))), 8),
        "one-window-row": (pair(lambda: rng.random((8, 30))), 8),
        "one-window-column": (pair(lambda: rng.random((30, 5))), 5),
        "one-window": (pair(lambda: rng.random((12, 12))), 12),
        "64-random": (pair(lambda: rng.random((64, 64))), 8),
        "64-quantized": (pair(lambda: np.rint(rng.random((64, 64)) * 255.0) / 255.0), 8),
        "near-flat-1e-3": (pair(lambda: 0.95 + 1e-3 * rng.random((64, 64))), 8),
        "near-flat-1e-6": (pair(lambda: 0.7 + 1e-6 * rng.random((64, 64))), 8),
        "128-random": (pair(lambda: rng.random((128, 128))), 8),
    }


SSIM_CASES = _ssim_cases()


@pytest.mark.parametrize("impl", [_kernels.ssim_mean_numpy])
@pytest.mark.parametrize("case", sorted(SSIM_CASES))
def test_ssim_mean_matches_reference_across_shapes(impl, case):
    (x, y), win = SSIM_CASES[case]
    assert impl(x, y, win) == pytest.approx(naive_ssim(x, y, win), abs=1e-12)
    assert impl(x, x.copy(), win) == 1.0
    assert impl(y, y.copy(), win) == 1.0


@pytest.mark.parametrize("impl", [_kernels.ssim_mean_numpy])
def test_ssim_mean_rejects_a_window_larger_than_the_image(impl):
    x = np.zeros((8, 30))
    with pytest.raises(ValueError):
        impl(x, x, 9)


def test_backend_name_is_consistent_with_bindings():
    assert _kernels.backend() == "numpy"
    for name in ("cosine_scores", "block_mean", "lowpass_block4", "ssim_mean"):
        assert getattr(_kernels, name) is getattr(_kernels, name + "_numpy")
