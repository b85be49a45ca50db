"""Constrained projection of continuous prompt rows onto discrete tokens.

Each prompt row is scored against the whole embedding table by cosine,
blacklisted ids are excluded outright, the top K survivors form the
candidate set, whitelist membership earns an additive score bonus inside
that set only, and a selection policy (greedy argmax or temperature
softmax) picks the winner. Exclusion is an explicit boolean mask: no IEEE
infinity ever enters the score arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import MODES
from .errors import DeidError, VocabularyExhaustedError
from .textkit import EmbeddingTable


@dataclass(frozen=True)
class SelectionPolicy:
    """How a winner is drawn from a candidate set."""

    mode: str = "greedy"
    temperature: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise DeidError(f"mode must be one of {MODES}")
        if not self.temperature > 0.0:
            raise DeidError("temperature must be > 0")


def _unit_queries(rows: np.ndarray) -> np.ndarray:
    """Scale each prompt row to unit length, the same way for one row or many."""
    norms = np.sqrt(np.einsum("ld,ld->l", rows, rows))
    if np.any(norms == 0.0):
        raise DeidError("cannot score a zero-norm prompt row")
    return rows / norms[:, None]


def score_row(vec: np.ndarray, table: EmbeddingTable) -> np.ndarray:
    """Cosine of one prompt row against every table row, shape (V,).

    project_prompt does not call it: the per-position reference in the
    tests does, and the pipeline benchmark (pipebench/layers.py) wraps it.
    """
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != table.dim:
        raise DeidError(f"expected a vector of dim {table.dim}")
    return _kernels.cosine_scores(_unit_queries(arr[None, :])[0], table.unit_rows)


def _id_mask(ids, size: int, what: str) -> np.ndarray:
    idx = np.fromiter(ids, dtype=np.int64) if not isinstance(ids, np.ndarray) else ids
    idx = idx.astype(np.int64, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise DeidError(f"{what} id out of range")
    mask = np.zeros(size, dtype=bool)
    mask[idx] = True
    return mask


def project_prompt(
    prompt: np.ndarray,
    table: EmbeddingTable,
    blacklist_ids,
    whitelist_ids,
    k: int,
    bias: float,
    policy: SelectionPolicy,
    rng: np.random.Generator | None = None,
    audit: list | None = None,
) -> list[int]:
    """Project every prompt row to a token id, all positions at once.

    Position j gets what scoring row j alone, excluding the blacklist,
    keeping the top k, biasing the whitelist and selecting would give; the
    per-position composition in tests/oracles.py is the reference for that.
    One score matrix, every row against the non-blacklisted table rows,
    serves all positions, and a softmax policy takes its L uniforms from
    rng in one call, the same stream as L single draws; softmax requires
    rng. Output never contains a blacklisted id. An optional audit list
    receives one per-position candidate dump.
    """
    arr = np.asarray(prompt, dtype=np.float64)
    if arr.ndim != 2:
        raise DeidError("prompt must be 2-D")
    if arr.shape[1] != table.dim:
        raise DeidError(f"expected a vector of dim {table.dim}")
    if not np.all(np.isfinite(arr)):
        raise DeidError("score row contains non-finite values")
    if k < 1:
        raise DeidError("k must be >= 1")
    if bias < 0.0:
        raise DeidError("bias must be >= 0")
    if policy.mode == "softmax" and rng is None:
        raise DeidError("softmax selection needs a random generator")
    if arr.shape[0] == 0:
        return []
    avail = np.flatnonzero(~_id_mask(blacklist_ids, table.size, "blacklist"))
    if avail.size == 0:
        raise VocabularyExhaustedError("position 0: vocabulary exhausted by blacklist")
    white = _id_mask(whitelist_ids, table.size, "whitelist")
    scores = _kernels.cosine_scores(_unit_queries(arr), table.unit_rows[avail])
    # A stable sort of -score keeps equal scores in ascending id order:
    # candidates rank by (-score, id).
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    ids = avail[order]
    raw = np.take_along_axis(scores, order, axis=1)
    biased = raw + bias * white[ids]
    if policy.mode == "greedy":
        best = biased == biased.max(axis=1, keepdims=True)
        chosen = np.where(best, ids, table.size).min(axis=1)
    else:
        logits = biased / policy.temperature
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        draws = rng.random(arr.shape[0]) * weights.sum(axis=1)
        # searchsorted(side="right") on each row's cumulative weights
        picks = (np.cumsum(weights, axis=1) <= draws[:, None]).sum(axis=1)
        chosen = ids[np.arange(ids.shape[0]), np.minimum(picks, ids.shape[1] - 1)]
    out = chosen.tolist()
    if audit is not None:
        for j, (cand, r, b, c) in enumerate(zip(ids.tolist(), raw.tolist(), biased.tolist(), out)):
            audit.append(
                {"position": j, "candidate_ids": cand, "raw_scores": r, "biased_scores": b, "chosen": c}
            )
    return out
