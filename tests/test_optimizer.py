"""Plain gradient descent on the alignment loss, and the refine cycle."""

from __future__ import annotations

import numpy as np
import pytest

from deidpipe.config import PipelineConfig
from deidpipe.encoders import ReferenceEncoder, alignment_grad, alignment_loss
from deidpipe.errors import DegenerateInputError, DeidError, OptimizationError
from deidpipe.optimizer import optimize_prompt, refine_cycle
from deidpipe.textkit import EmbeddingTable, embed


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
    out, trace = optimize_prompt(prompt, f_img, enc, learning_rate=0.05, steps=0)
    np.testing.assert_array_equal(out, prompt)
    assert trace.step_count == 0
    assert trace.losses.shape == (1,)
    assert trace.losses[0] == alignment_loss(prompt, f_img, enc)


def test_zero_learning_rate_never_moves(enc):
    prompt, f_img = _instance(1, enc)
    out, trace = optimize_prompt(prompt, f_img, enc, learning_rate=0.0, steps=7)
    np.testing.assert_array_equal(out, prompt)
    assert np.all(trace.losses == trace.losses[0])


def test_trace_replays_step_by_step(enc):
    prompt, f_img = _instance(2, enc)
    out, trace = optimize_prompt(prompt, f_img, enc, learning_rate=0.05, steps=25)
    current = prompt.astype(np.float64)
    for t in range(1, 26):
        current = current - 0.05 * alignment_grad(current, f_img, enc)
        assert abs(trace.losses[t] - alignment_loss(current, f_img, enc)) <= 1e-12
    np.testing.assert_allclose(out, current, rtol=0, atol=1e-12)


def test_default_settings_reduce_the_loss(enc):
    improved = 0
    for seed in range(30):
        prompt, f_img = _instance(seed + 100, enc)
        _, trace = optimize_prompt(prompt, f_img, enc, learning_rate=0.05, steps=50)
        improved += trace.losses[-1] < trace.losses[0]
    assert improved >= 29


class _GenericOnly:
    """Exposes only encode_text/grad_text, so optimize_prompt runs its generic loop."""

    def __init__(self, enc):
        self.encode_text, self.grad_text = enc.encode_text, enc.grad_text


def test_pooled_mean_path_matches_generic_loop():
    for seed in range(40):
        enc = ReferenceEncoder.from_seed(dim=16, pool_grid=8, seed=seed)
        prompt, f_img = _instance(seed + 200, enc, rows=1 + seed % 9)
        f_img = f_img * (0.5 + seed)
        for lr, steps in ((0.05, 50), (0.5, 7), (0.0, 3)):
            fast, fast_trace = optimize_prompt(prompt, f_img, enc, lr, steps)
            slow, slow_trace = optimize_prompt(prompt, f_img, _GenericOnly(enc), lr, steps)
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fast_trace.losses, slow_trace.losses, rtol=0, atol=1e-12)
            assert fast_trace.losses[0] == slow_trace.losses[0]


def test_zero_image_feature_is_degenerate_on_both_paths(enc):
    prompt, _ = _instance(4, enc)
    for encoder in (enc, _GenericOnly(enc)):
        with pytest.raises(DegenerateInputError):
            optimize_prompt(prompt, np.zeros(enc.dim), encoder, learning_rate=0.05, steps=2)


def test_negative_learning_rate_rejected(enc):
    prompt, f_img = _instance(3, enc)
    with pytest.raises(DeidError):
        optimize_prompt(prompt, f_img, enc, learning_rate=-0.1, steps=1)
    with pytest.raises(DeidError):
        optimize_prompt(prompt, f_img, enc, learning_rate=0.1, steps=-1)


class _BrokenEncoder:
    """Stub that reports a healthy loss but a non-finite gradient."""

    dim = 4

    def encode_text(self, prompt):
        v = np.ones(4) / 2.0
        return v

    def grad_text(self, prompt, f_img):
        return np.full_like(np.asarray(prompt, dtype=np.float64), np.nan)


def test_non_finite_gradient_aborts_with_step_index():
    enc = _BrokenEncoder()
    prompt = np.ones((2, 4))
    f_img = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(OptimizationError, match="step 1"):
        optimize_prompt(prompt, f_img, enc, learning_rate=0.1, steps=3)


def _refine_setup(seed):
    enc = ReferenceEncoder.from_seed(dim=16, pool_grid=8, seed=seed)
    table = EmbeddingTable.from_seed(40, 16, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    prompt = rng.standard_normal((6, 16))
    f_img = rng.standard_normal(16)
    return enc, table, prompt, f_img / np.linalg.norm(f_img)


def test_refine_cycle_reaches_fixed_point_when_frozen():
    """With a zero step size the projection must stabilize by round two."""
    enc, table, prompt, f_img = _refine_setup(5)
    cfg = PipelineConfig(learning_rate=0.0, steps=3, rounds=1, whitelist_bias=0.0, mode="greedy")
    tokens1, _ = refine_cycle(prompt, f_img, enc, table, set(), set(), cfg)
    cfg3 = PipelineConfig(learning_rate=0.0, steps=3, rounds=3, whitelist_bias=0.0, mode="greedy")
    tokens3, traces = refine_cycle(prompt, f_img, enc, table, set(), set(), cfg3)
    assert tokens3 == tokens1
    assert len(traces) == 3


def test_refine_cycle_projects_an_embedded_sequence_to_itself():
    enc, table, _, f_img = _refine_setup(6)
    seq = [4, 17, 30]
    prompt = embed(seq, table)
    cfg = PipelineConfig(learning_rate=0.0, steps=0, rounds=1, whitelist_bias=0.0, mode="greedy")
    tokens, _ = refine_cycle(prompt, f_img, enc, table, set(), set(), cfg)
    assert tokens == seq


def test_refine_cycle_emits_one_trace_per_round():
    enc, table, prompt, f_img = _refine_setup(7)
    cfg = PipelineConfig(learning_rate=0.05, steps=4, rounds=2)
    tokens, traces = refine_cycle(prompt, f_img, enc, table, set(), set(), cfg)
    assert len(traces) == 2
    assert all(t.step_count == 4 for t in traces)
    assert len(tokens) == prompt.shape[0]


def test_refine_cycle_respects_blacklist():
    enc, table, prompt, f_img = _refine_setup(8)
    banned = set(range(0, 40, 2))
    cfg = PipelineConfig(learning_rate=0.05, steps=5, rounds=2)
    tokens, _ = refine_cycle(prompt, f_img, enc, table, banned, set(), cfg)
    assert not banned.intersection(tokens)
