"""Both kernel backends against loop-level reference implementations."""

from __future__ import annotations

import numpy as np
import pytest

from deidpipe import _kernels
from oracles import naive_block_mean, naive_cosine_scores, naive_lowpass4, naive_ssim


def _unit(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _both(name):
    """The numpy implementation plus, when compiled in, the numba one."""
    impls = [getattr(_kernels, name + "_numpy")]
    if _kernels.HAS_NUMBA:
        impls.append(getattr(_kernels, name + "_numba"))
    return impls


@pytest.mark.parametrize("impl", _both("cosine_scores"))
def test_cosine_scores_matches_reference(impl):
    rng = np.random.default_rng(0)
    rows = _unit(rng, 37, 9)
    q = _unit(rng, 1, 9)[0]
    got = impl(q, rows)
    want = naive_cosine_scores(q, rows)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got.max() <= 1.0 and got.min() >= -1.0


@pytest.mark.parametrize("impl", _both("cosine_scores"))
def test_cosine_scores_self_row_is_one(impl):
    rng = np.random.default_rng(1)
    rows = _unit(rng, 5, 6)
    scores = impl(rows[2].copy(), rows)
    assert scores[2] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("impl", _both("cosine_scores"))
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


@pytest.mark.parametrize("impl", _both("block_mean"))
@pytest.mark.parametrize("shape,grid", [((64, 64), (8, 8)), ((50, 37), (8, 8)), ((9, 9), (4, 4)), ((8, 8), (8, 8))])
def test_block_mean_matches_reference(impl, shape, grid):
    rng = np.random.default_rng(2)
    img = rng.random(shape)
    got = impl(img, *grid)
    want = naive_block_mean(img, *grid)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("impl", _both("block_mean"))
def test_block_mean_of_constant_image(impl):
    img = np.full((40, 24), 0.3125)
    got = impl(img, 8, 8)
    np.testing.assert_array_equal(got, np.full((8, 8), 0.3125))


@pytest.mark.parametrize("impl", _both("lowpass_block4"))
@pytest.mark.parametrize("shape", [(64, 64), (10, 13), (4, 4), (9, 9)])
def test_lowpass_block4_matches_reference(impl, shape):
    rng = np.random.default_rng(3)
    img = rng.random(shape)
    got = impl(img)
    want = naive_lowpass4(img)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got.shape == shape


@pytest.mark.parametrize("impl", _both("lowpass_block4"))
def test_lowpass_block4_is_idempotent_on_aligned_images(impl):
    rng = np.random.default_rng(4)
    img = rng.random((16, 16))
    once = impl(img)
    np.testing.assert_allclose(impl(once), once, rtol=0, atol=1e-12)


@pytest.mark.parametrize("impl", _both("ssim_mean"))
def test_ssim_mean_matches_reference(impl):
    rng = np.random.default_rng(5)
    x = rng.random((20, 20))
    y = rng.random((20, 20))
    assert impl(x, y, 8) == pytest.approx(naive_ssim(x, y, 8), abs=1e-12)


@pytest.mark.parametrize("impl", _both("ssim_mean"))
def test_ssim_mean_identical_images_is_exactly_one(impl):
    rng = np.random.default_rng(6)
    x = rng.random((24, 24))
    assert impl(x, x.copy(), 8) == 1.0


def test_backends_agree_when_both_present():
    if not _kernels.HAS_NUMBA:
        pytest.skip("numba not installed")
    rng = np.random.default_rng(7)
    img = rng.random((48, 48))
    other = rng.random((48, 48))
    rows = _unit(rng, 60, 12)
    q = _unit(rng, 1, 12)[0]
    np.testing.assert_allclose(
        _kernels.cosine_scores_numba(q, rows),
        _kernels.cosine_scores_numpy(q, rows),
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        _kernels.block_mean_numba(img, 8, 8),
        _kernels.block_mean_numpy(img, 8, 8),
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        _kernels.lowpass_block4_numba(img),
        _kernels.lowpass_block4_numpy(img),
        rtol=0,
        atol=1e-12,
    )
    assert _kernels.ssim_mean_numba(img, other, 8) == pytest.approx(
        _kernels.ssim_mean_numpy(img, other, 8), abs=1e-12
    )


def test_backend_name_is_consistent_with_bindings():
    name = _kernels.backend()
    assert name in ("numba", "numpy")
    if name == "numpy":
        assert _kernels.block_mean is _kernels.block_mean_numpy
    else:
        assert _kernels.HAS_NUMBA
