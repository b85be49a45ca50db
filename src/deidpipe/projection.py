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


@dataclass
class ScoreRow:
    """Cosine scores for one prompt position plus an exclusion mask."""

    scores: np.ndarray
    excluded: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.excluded = np.asarray(self.excluded, dtype=bool)
        if self.scores.shape != self.excluded.shape or self.scores.ndim != 1:
            raise DeidError("scores and excluded must be matching 1-D arrays")
        if not np.all(np.isfinite(self.scores)):
            raise DeidError("score row contains non-finite values")


@dataclass
class CandidateSet:
    """Top-K survivors of one position, ordered by raw score then id.

    biased starts equal to raw; bias_whitelist rewrites it without
    touching membership or order.
    """

    ids: np.ndarray
    raw: np.ndarray
    biased: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.raw = np.asarray(self.raw, dtype=np.float64)
        self.biased = np.asarray(self.biased, dtype=np.float64)
        if not (self.ids.shape == self.raw.shape == self.biased.shape):
            raise DeidError("candidate arrays must share one shape")
        if self.ids.size == 0:
            raise DeidError("candidate set must be non-empty")


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


def _ids_to_index(ids, size: int, what: str) -> np.ndarray:
    arr = np.fromiter(ids, dtype=np.int64) if not isinstance(ids, np.ndarray) else ids
    arr = arr.astype(np.int64, copy=False)
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise DeidError(f"{what} id out of range")
    return arr


def _unit_queries(rows: np.ndarray) -> np.ndarray:
    """Scale each prompt row to unit length, the same way for one row or many."""
    norms = np.sqrt(np.einsum("ld,ld->l", rows, rows))
    if np.any(norms == 0.0):
        raise DeidError("cannot score a zero-norm prompt row")
    return rows / norms[:, None]


def score_row(vec: np.ndarray, table: EmbeddingTable) -> ScoreRow:
    """Cosine of one prompt row against every table row; nothing excluded yet."""
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != table.dim:
        raise DeidError(f"expected a vector of dim {table.dim}")
    scores = _kernels.cosine_scores(_unit_queries(arr[None, :])[0], table.unit_rows)
    return ScoreRow(scores=scores, excluded=np.zeros(table.size, dtype=bool))


def apply_blacklist(row: ScoreRow, blacklist_ids) -> ScoreRow:
    """Mark blacklisted ids excluded; scores themselves stay untouched."""
    excluded = row.excluded.copy()
    idx = _ids_to_index(blacklist_ids, row.scores.shape[0], "blacklist")
    if idx.size:
        excluded[idx] = True
    return ScoreRow(scores=row.scores.copy(), excluded=excluded)


def top_k(row: ScoreRow, k: int) -> CandidateSet:
    """Keep the k best non-excluded ids, score-descending, ties to lower id."""
    if k < 1:
        raise DeidError("k must be >= 1")
    avail = np.flatnonzero(~row.excluded)
    if avail.size == 0:
        raise VocabularyExhaustedError("vocabulary exhausted by blacklist")
    scores = row.scores[avail]
    order = np.lexsort((avail, -scores))[: min(k, avail.size)]
    ids = avail[order]
    raw = scores[order]
    return CandidateSet(ids=ids, raw=raw, biased=raw.copy())


def bias_whitelist(cands: CandidateSet, whitelist_ids, bias: float) -> CandidateSet:
    """Add `bias` to the biased score of candidates on the whitelist."""
    if bias < 0.0:
        raise DeidError("bias must be >= 0")
    wl = set(int(i) for i in whitelist_ids)
    member = np.fromiter((int(i) in wl for i in cands.ids), dtype=bool, count=cands.ids.size)
    biased = cands.raw + bias * member
    return CandidateSet(ids=cands.ids.copy(), raw=cands.raw.copy(), biased=biased)


def select_token(
    cands: CandidateSet,
    policy: SelectionPolicy,
    rng: np.random.Generator | None = None,
) -> int:
    """Pick one candidate id under the policy.

    greedy: argmax of the biased score, ties to the lowest id.
    softmax: sample proportionally to exp(biased / temperature), computed
    with max subtraction so large scores never overflow. It draws from
    rng, which it requires: a run is reproducible only from a seeded one.
    """
    if policy.mode == "greedy":
        order = np.lexsort((cands.ids, -cands.biased))
        return int(cands.ids[order[0]])
    if rng is None:
        raise DeidError("softmax selection needs a random generator")
    logits = cands.biased / policy.temperature
    weights = np.exp(logits - logits.max())
    total = float(weights.sum())
    draw = float(rng.random()) * total
    cum = np.cumsum(weights)
    pick = int(np.searchsorted(cum, draw, side="right"))
    if pick >= cands.ids.size:  # guard the last-bin rounding edge
        pick = cands.ids.size - 1
    return int(cands.ids[pick])


def softmax_probabilities(cands: CandidateSet, temperature: float) -> np.ndarray:
    """Exact selection distribution the softmax policy samples from."""
    logits = cands.biased / temperature
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


def _id_mask(ids, size: int, what: str) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[_ids_to_index(ids, size, what)] = True
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

    Position j gets what the composition score_row -> apply_blacklist ->
    top_k -> bias_whitelist -> select_token gives for row j, so those
    single-position operations stay the ground truth for its behaviour.
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
    # A stable sort of -score keeps equal scores in ascending id order,
    # the (-score, id) order of top_k.
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
