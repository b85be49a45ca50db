"""Reference encoder: feature maps, alignment loss and its gradient."""

from __future__ import annotations

import numpy as np
import pytest

from deidpipe import _kernels
from deidpipe.encoders import (
    ReferenceEncoder,
    alignment_grad,
    alignment_loss,
    cosine,
    finite_difference_grad,
    max_relative_grad_error,
    validate_image,
)
from deidpipe.errors import DegenerateInputError, DeidError


@pytest.fixture(scope="module")
def enc():
    return ReferenceEncoder.from_seed(dim=16, pool_grid=8, seed=3)


def _prompt(rng, rows=8, dim=16):
    return rng.standard_normal((rows, dim))


def test_encode_text_matches_manual_computation(enc):
    rng = np.random.default_rng(0)
    prompt = _prompt(rng)
    z = enc.text_weights @ prompt.mean(axis=0)
    want = z / np.linalg.norm(z)
    np.testing.assert_allclose(enc.encode_text(prompt), want, rtol=0, atol=1e-12)


def test_encode_image_matches_manual_computation(enc):
    rng = np.random.default_rng(1)
    img = rng.random((64, 64))
    pooled = _kernels.block_mean(img, 8, 8).ravel()
    z = enc.image_weights @ pooled
    want = z / np.linalg.norm(z)
    np.testing.assert_allclose(enc.encode_image(img), want, rtol=0, atol=1e-12)


def test_features_are_unit_length(enc):
    rng = np.random.default_rng(2)
    assert np.linalg.norm(enc.encode_text(_prompt(rng))) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(enc.encode_image(rng.random((32, 32)))) == pytest.approx(1.0, abs=1e-12)


def test_image_features_invariant_to_power_of_two_rescale(enc):
    rng = np.random.default_rng(3)
    img = rng.random((40, 40)) * 0.5
    f1 = enc.encode_image(img)
    f2 = enc.encode_image(img * 2.0)
    np.testing.assert_array_equal(f1, f2)


def test_image_features_invariant_to_general_positive_rescale(enc):
    rng = np.random.default_rng(4)
    img = rng.random((40, 40)) * 0.2
    f1 = enc.encode_image(img)
    f2 = enc.encode_image(img * 3.7)
    np.testing.assert_allclose(f1, f2, rtol=0, atol=1e-12)


def test_alignment_loss_range_and_best_case(enc):
    rng = np.random.default_rng(5)
    prompt = _prompt(rng)
    f = enc.encode_text(prompt)
    assert alignment_loss(prompt, f, enc) == pytest.approx(0.0, abs=1e-12)
    loss = alignment_loss(prompt, -f, enc)
    assert loss == pytest.approx(2.0, abs=1e-12)


def test_gradient_matches_finite_differences(enc):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        prompt = _prompt(rng)
        f_img = rng.standard_normal(16)
        f_img /= np.linalg.norm(f_img)
        worst = max(worst, max_relative_grad_error(prompt, f_img, enc, step=1e-5))
    assert worst < 1e-6


def test_finite_difference_grad_close_to_analytic_entrywise(enc):
    rng = np.random.default_rng(60)
    prompt = _prompt(rng)
    f_img = rng.standard_normal(16)
    f_img /= np.linalg.norm(f_img)
    analytic = alignment_grad(prompt, f_img, enc)
    numeric = finite_difference_grad(prompt, f_img, enc, step=1e-5)
    np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-8)


def test_gradient_rows_are_identical(enc):
    rng = np.random.default_rng(7)
    prompt = _prompt(rng)
    f_img = rng.standard_normal(16)
    f_img /= np.linalg.norm(f_img)
    g = alignment_grad(prompt, f_img, enc)
    for row in g[1:]:
        np.testing.assert_array_equal(row, g[0])


def test_gradient_mean_direction_is_orthogonal_to_projection(enc):
    rng = np.random.default_rng(8)
    prompt = _prompt(rng)
    f_img = rng.standard_normal(16)
    f_img /= np.linalg.norm(f_img)
    z = enc.text_weights @ prompt.mean(axis=0)
    g = alignment_grad(prompt, f_img, enc)
    g_z = np.linalg.pinv(enc.text_weights.T) @ (g[0] * prompt.shape[0])
    assert abs(float(g_z @ z)) < 1e-8


def test_zero_prompt_is_degenerate(enc):
    with pytest.raises(DegenerateInputError):
        enc.encode_text(np.zeros((4, 16)))


def test_zero_image_is_degenerate(enc):
    with pytest.raises(DegenerateInputError):
        enc.encode_image(np.zeros((32, 32)))


def test_cosine_rejects_zero_vectors():
    with pytest.raises(DegenerateInputError):
        cosine(np.zeros(4), np.ones(4))


def test_cosine_is_clamped():
    v = np.ones(3) / np.sqrt(3.0)
    assert cosine(v, v) <= 1.0
    assert cosine(v, -v) >= -1.0


def test_validate_image_rejects_bad_inputs():
    with pytest.raises(DeidError):
        validate_image(np.ones((4, 4, 3)))
    with pytest.raises(DeidError):
        validate_image(np.full((16, 16), np.nan))
    with pytest.raises(DeidError):
        validate_image(np.full((16, 16), 1.5))
    with pytest.raises(DeidError):
        validate_image(np.ones((4, 16)), min_side=8)


def test_prompt_dim_must_match_encoder(enc):
    rng = np.random.default_rng(9)
    with pytest.raises(DeidError):
        enc.encode_text(rng.standard_normal((4, 7)))


def test_from_seed_is_reproducible():
    a = ReferenceEncoder.from_seed(dim=8, pool_grid=4, seed=42)
    b = ReferenceEncoder.from_seed(dim=8, pool_grid=4, seed=42)
    np.testing.assert_array_equal(a.text_weights, b.text_weights)
    np.testing.assert_array_equal(a.image_weights, b.image_weights)
