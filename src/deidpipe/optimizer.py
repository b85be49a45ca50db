"""Plain gradient descent on the prompt/image alignment loss."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .encoders import ReferenceEncoder, check_prompt

# Not called here since optimize_prompt descends on the pooled mean; the
# pipeline benchmark (pipebench/layers.py) still wraps these optimizer names.
from .encoders import alignment_grad, alignment_loss  # noqa: F401
from .errors import DegenerateInputError, DeidError, OptimizationError
from .projection import SelectionPolicy, project_prompt
from .textkit import EmbeddingTable, embed


@dataclass
class OptTrace:
    """Loss trajectory of one optimization run: initial value plus one per step."""

    losses: np.ndarray
    step_count: int
    learning_rate: float


def optimize_prompt(
    prompt: np.ndarray,
    f_img: np.ndarray,
    enc: ReferenceEncoder,
    learning_rate: float,
    steps: int,
) -> tuple[np.ndarray, OptTrace]:
    """Run exactly `steps` full-gradient updates H <- H - learning_rate * grad.

    Returns the final prompt and a trace of steps + 1 losses. The run is
    bitwise deterministic; a non-finite loss or prompt aborts with the
    offending step index.

    The loss sees the prompt only through the pooled mean m, and every
    gradient row is the same vector g (see the encoders module), so
    H <- H - lr * g moves each row, and m, by the same step. Descending on
    m and returning H0 + (m - m0) gives the full-prompt result up to
    rounding. Each step computes z = W_t m once for both the loss and the
    next gradient, with the arithmetic of encode_text, cosine and grad_text.
    """
    if learning_rate < 0.0:
        raise DeidError("learning_rate must be >= 0")
    if steps < 0:
        raise DeidError("steps must be >= 0")
    start = check_prompt(prompt, enc.dim)
    f = np.asarray(f_img, dtype=np.float64)
    nf = math.sqrt(f.dot(f))
    if not math.isfinite(nf):
        raise OptimizationError("non-finite loss at step 0")
    if nf == 0.0:
        raise DegenerateInputError("image feature collapsed to a zero vector")
    v = f / nf
    weights = enc.text_weights
    rows = start.shape[0]
    m0 = start.mean(axis=0)
    m = m0
    losses = np.empty(steps + 1, dtype=np.float64)
    for t in range(steps + 1):
        z = weights @ m
        nz = math.sqrt(z.dot(z))
        if not math.isfinite(nz):
            raise OptimizationError(f"non-finite loss at step {t}")
        if nz == 0.0:
            raise DegenerateInputError("text feature collapsed to a zero vector")
        u = z / nz
        cos = float(u.dot(f)) / (math.sqrt(u.dot(u)) * nf)
        losses[t] = 1.0 - min(1.0, max(-1.0, cos))
        if t == steps:
            break
        g_z = (float(u.dot(v)) * u - v) / nz
        m = m - learning_rate * ((weights.T @ g_z) / rows)
    current = start + (m - m0)
    if not np.all(np.isfinite(current)):
        raise OptimizationError(f"non-finite prompt at step {steps}")
    return current, OptTrace(losses=losses, step_count=steps, learning_rate=learning_rate)


def refine_cycle(
    prompt: np.ndarray,
    f_img: np.ndarray,
    enc,
    table: EmbeddingTable,
    blacklist_ids: set[int],
    whitelist_ids: set[int],
    cfg: PipelineConfig,
    rng: np.random.Generator | None = None,
    audit: list | None = None,
) -> tuple[list[int], list[OptTrace]]:
    """Alternate optimize / project / re-embed for cfg.rounds rounds.

    Each round optimizes the continuous prompt, snaps it to constrained
    token ids, and re-embeds those ids as the next round's start. Returns
    the final token sequence and one trace per round.
    """
    policy = SelectionPolicy(mode=cfg.mode, temperature=cfg.temperature)
    current = np.array(prompt, dtype=np.float64, copy=True)
    traces: list[OptTrace] = []
    tokens: list[int] = []
    for _ in range(cfg.rounds):
        current, trace = optimize_prompt(current, f_img, enc, cfg.learning_rate, cfg.steps)
        traces.append(trace)
        tokens = project_prompt(
            current,
            table,
            blacklist_ids,
            whitelist_ids,
            k=cfg.top_k,
            bias=cfg.whitelist_bias,
            policy=policy,
            rng=rng,
            audit=audit,
        )
        current = embed(tokens, table)
    return tokens, traces
