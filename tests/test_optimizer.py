"""Plain gradient descent on the alignment loss, then one projection."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from deidpipe.config import PipelineConfig
from deidpipe.encoders import ReferenceEncoder, alignment_grad, alignment_loss
from deidpipe.errors import DegenerateInputError, DeidError, OptimizationError
from deidpipe.optimizer import optimize_and_project, optimize_prompt
from deidpipe.textkit import EmbeddingTable, embed
from oracles import naive_optimize_prompt


@pytest.fixture(scope="module")
def enc():
    return ReferenceEncoder.from_seed(dim=16, pool_grid=8, seed=21)


def _instance(seed, enc, rows=8):
    rng = np.random.default_rng(seed)
    prompt = rng.standard_normal((rows, enc.dim))
    f_img = rng.standard_normal(enc.dim)
    return prompt, f_img / np.linalg.norm(f_img)


def test_zero_steps_returns_input_and_one_loss(enc):
    prompt, f_img = _instance(0, enc)
    out, losses = optimize_prompt(prompt, f_img, enc, learning_rate=0.05, steps=0)
    np.testing.assert_array_equal(out, prompt)
    assert losses.shape == (1,)
    assert losses[0] == alignment_loss(prompt, f_img, enc)


def test_zero_learning_rate_never_moves(enc):
    prompt, f_img = _instance(1, enc)
    out, losses = optimize_prompt(prompt, f_img, enc, learning_rate=0.0, steps=7)
    np.testing.assert_array_equal(out, prompt)
    assert np.all(losses == losses[0])


def test_trace_replays_step_by_step(enc):
    prompt, f_img = _instance(2, enc)
    out, losses = optimize_prompt(prompt, f_img, enc, learning_rate=0.05, steps=25)
    current = prompt.astype(np.float64)
    for t in range(1, 26):
        current = current - 0.05 * alignment_grad(current, f_img, enc)
        assert abs(losses[t] - alignment_loss(current, f_img, enc)) <= 1e-12
    np.testing.assert_allclose(out, current, rtol=0, atol=1e-12)


def test_default_settings_reduce_the_loss(enc):
    improved = 0
    for seed in range(30):
        prompt, f_img = _instance(seed + 100, enc)
        _, losses = optimize_prompt(prompt, f_img, enc, learning_rate=0.05, steps=50)
        improved += losses[-1] < losses[0]
    assert improved >= 29


def test_pooled_mean_path_matches_generic_loop():
    for seed in range(40):
        enc = ReferenceEncoder.from_seed(dim=16, pool_grid=8, seed=seed)
        prompt, f_img = _instance(seed + 200, enc, rows=1 + seed % 9)
        f_img = f_img * (0.5 + seed)
        for lr, steps in ((0.05, 50), (0.5, 7), (0.0, 3)):
            fast, fast_losses = optimize_prompt(prompt, f_img, enc, lr, steps)
            slow, slow_losses = naive_optimize_prompt(prompt, f_img, enc, lr, steps)
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fast_losses, slow_losses, rtol=0, atol=1e-12)
            assert fast_losses[0] == slow_losses[0]


def test_zero_image_feature_is_degenerate_on_both_paths(enc):
    prompt, _ = _instance(4, enc)
    for run in (optimize_prompt, naive_optimize_prompt):
        with pytest.raises(DegenerateInputError):
            run(prompt, np.zeros(enc.dim), enc, 0.05, 2)


def test_negative_learning_rate_rejected(enc):
    prompt, f_img = _instance(3, enc)
    with pytest.raises(DeidError):
        optimize_prompt(prompt, f_img, enc, learning_rate=-0.1, steps=1)
    with pytest.raises(DeidError):
        optimize_prompt(prompt, f_img, enc, learning_rate=0.1, steps=-1)


def test_non_finite_gradient_aborts_with_step_index(enc):
    """A learning rate of 1e308 overflows the first step, so step 1's loss is not finite.

    The abort is the only report: numpy may print no overflow warning first.
    """
    prompt, f_img = _instance(5, enc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OptimizationError, match="non-finite loss at step 1"):
            optimize_prompt(prompt, f_img, enc, learning_rate=1e308, steps=3)


def _project_setup(seed):
    enc = ReferenceEncoder.from_seed(dim=16, pool_grid=8, seed=seed)
    table = EmbeddingTable.from_seed(40, 16, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    prompt = rng.standard_normal((6, 16))
    f_img = rng.standard_normal(16)
    return enc, table, prompt, f_img / np.linalg.norm(f_img)


def test_optimize_and_project_projects_an_embedded_sequence_to_itself():
    enc, table, _, f_img = _project_setup(6)
    seq = [4, 17, 30]
    prompt = embed(seq, table)
    cfg = PipelineConfig(learning_rate=0.0, steps=0, whitelist_bias=0.0, mode="greedy")
    tokens, _ = optimize_and_project(prompt, f_img, enc, table, set(), set(), cfg)
    assert tokens == seq


def test_optimize_and_project_respects_blacklist():
    enc, table, prompt, f_img = _project_setup(8)
    banned = set(range(0, 40, 2))
    cfg = PipelineConfig(learning_rate=0.05, steps=5)
    tokens, losses = optimize_and_project(prompt, f_img, enc, table, banned, set(), cfg)
    assert not banned.intersection(tokens)
    assert len(tokens) == prompt.shape[0]
    assert losses.shape == (cfg.steps + 1,)
