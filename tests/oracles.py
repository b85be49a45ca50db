"""Slow reference implementations used to cross-check the package.

Everything here is written the most obvious way possible, with plain
loops and no shared code with the package internals, so a bug in the
fast path cannot hide in its oracle. The per-position projection stages
and the full-prompt descent loop are the references project_prompt and
optimize_prompt must reproduce; the descent loop reaches the encoder only
through its public loss and gradient.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

from deidpipe.encoders import alignment_grad, alignment_loss
from deidpipe.errors import DeidError, OptimizationError, VocabularyExhaustedError

_WORD = re.compile(r"[^\W_]+", re.UNICODE)


def naive_cosine_scores(query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Cosine of the query against every row, both assumed unit length."""
    out = np.empty(rows.shape[0], dtype=np.float64)
    for i in range(rows.shape[0]):
        acc = 0.0
        for k in range(rows.shape[1]):
            acc += float(rows[i, k]) * float(query[k])
        out[i] = min(1.0, max(-1.0, acc))
    return out


def naive_block_mean(img: np.ndarray, grid_h: int, grid_w: int) -> np.ndarray:
    h, w = img.shape
    out = np.empty((grid_h, grid_w), dtype=np.float64)
    for i in range(grid_h):
        r0, r1 = (i * h) // grid_h, ((i + 1) * h) // grid_h
        for j in range(grid_w):
            c0, c1 = (j * w) // grid_w, ((j + 1) * w) // grid_w
            vals = [float(img[r, c]) for r in range(r0, r1) for c in range(c0, c1)]
            out[i, j] = sum(vals) / len(vals)
    return out


def naive_lowpass4(img: np.ndarray) -> np.ndarray:
    h, w = img.shape
    out = np.empty((h, w), dtype=np.float64)
    for r in range(h):
        for c in range(w):
            r0, c0 = 4 * (r // 4), 4 * (c // 4)
            r1, c1 = min(r0 + 4, h), min(c0 + 4, w)
            vals = [float(img[a, b]) for a in range(r0, r1) for b in range(c0, c1)]
            out[r, c] = sum(vals) / len(vals)
    return out


def naive_ssim(x: np.ndarray, y: np.ndarray, win: int = 8) -> float:
    """Mean local SSIM over all stride-1 windows, population statistics."""
    c1, c2 = 0.01**2, 0.03**2
    h, w = x.shape
    total = 0.0
    count = 0
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            a = x[i : i + win, j : j + win].astype(np.float64)
            b = y[i : i + win, j : j + win].astype(np.float64)
            mx, my = a.mean(), b.mean()
            vx = (a * a).mean() - mx * mx
            vy = (b * b).mean() - my * my
            cxy = (a * b).mean() - mx * my
            num = (2.0 * mx * my + c1) * (2.0 * cxy + c2)
            den = (mx * mx + my * my + c1) * (vx + vy + c2)
            total += num / den
            count += 1
    return total / count


def naive_project_sequence(
    prompt: np.ndarray,
    table_rows: np.ndarray,
    blacklist_ids: set[int],
    whitelist_ids: set[int],
    k: int,
    bias: float,
) -> list[int]:
    """Greedy constrained projection via a full sort of the whole vocabulary.

    Per row: score every table entry by cosine, sort all of them by
    (score desc, id asc), drop the blacklisted ones, keep the first k,
    add the whitelist bonus, then take the best biased score with ties
    going to the lowest id.
    """
    out = []
    for row in np.asarray(prompt, dtype=np.float64):
        q = row / math.sqrt(float(np.dot(row, row)))
        scored = []
        for tid in range(table_rows.shape[0]):
            r = table_rows[tid]
            u = r / math.sqrt(float(np.dot(r, r)))
            s = min(1.0, max(-1.0, float(np.dot(q, u))))
            scored.append((tid, s))
        scored.sort(key=lambda p: (-p[1], p[0]))
        kept = [(tid, s) for tid, s in scored if tid not in blacklist_ids][:k]
        if not kept:
            raise ValueError("all candidates excluded")
        biased = [
            (tid, s + (bias if tid in whitelist_ids else 0.0)) for tid, s in kept
        ]
        biased.sort(key=lambda p: (-p[1], p[0]))
        out.append(biased[0][0])
    return out


def apply_blacklist(scores: np.ndarray, blacklist_ids) -> np.ndarray:
    """Exclusion mask for one position's score row: True at each blacklisted id."""
    excluded = np.zeros(scores.shape[0], dtype=bool)
    for tid in blacklist_ids:
        excluded[int(tid)] = True
    return excluded


def top_k(scores: np.ndarray, excluded: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, raw scores) of the k best non-excluded ids, score-descending, ties to lower id."""
    avail = np.flatnonzero(~excluded)
    if avail.size == 0:
        raise VocabularyExhaustedError("vocabulary exhausted by blacklist")
    kept = scores[avail]
    order = np.lexsort((avail, -kept))[:k]
    return avail[order], kept[order]


def bias_whitelist(ids: np.ndarray, raw: np.ndarray, whitelist_ids, bias: float) -> np.ndarray:
    """Biased scores: raw plus `bias` for each candidate on the whitelist."""
    white = set(int(i) for i in whitelist_ids)
    member = np.array([int(i) in white for i in ids], dtype=bool)
    return raw + bias * member


def softmax_probabilities(biased: np.ndarray, temperature: float) -> np.ndarray:
    """Exact selection distribution the softmax policy samples from."""
    logits = biased / temperature
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


def select_token(ids: np.ndarray, biased: np.ndarray, policy, rng=None) -> int:
    """Pick one candidate id under the policy.

    greedy: argmax of the biased score, ties to the lowest id. softmax:
    one uniform from rng, placed on the cumulative exp(biased / temperature)
    weights, computed with max subtraction.
    """
    if policy.mode == "greedy":
        return int(ids[np.lexsort((ids, -biased))[0]])
    if rng is None:
        raise DeidError("softmax selection needs a random generator")
    logits = biased / policy.temperature
    weights = np.exp(logits - logits.max())
    draw = float(rng.random()) * float(weights.sum())
    pick = int(np.searchsorted(np.cumsum(weights), draw, side="right"))
    return int(ids[min(pick, ids.size - 1)])  # guard the last-bin rounding edge


def naive_optimize_prompt(prompt, f_img, enc, learning_rate: float, steps: int):
    """Full-prompt gradient descent through the encoder's encode_text/grad_text.

    Returns the final prompt and the steps + 1 losses, aborting with the
    step index on a non-finite loss, gradient or prompt.
    """
    current = np.array(prompt, dtype=np.float64, copy=True)
    losses = np.empty(steps + 1, dtype=np.float64)
    losses[0] = alignment_loss(current, f_img, enc)
    if not np.isfinite(losses[0]):
        raise OptimizationError("non-finite loss at step 0")
    for t in range(1, steps + 1):
        grad = alignment_grad(current, f_img, enc)
        if not np.all(np.isfinite(grad)):
            raise OptimizationError(f"non-finite gradient at step {t}")
        current = current - learning_rate * grad
        if not np.all(np.isfinite(current)):
            raise OptimizationError(f"non-finite prompt at step {t}")
        losses[t] = alignment_loss(current, f_img, enc)
        if not np.isfinite(losses[t]):
            raise OptimizationError(f"non-finite loss at step {t}")
    return current, losses


def naive_match_spans(text: str, surfaces: list[str], max_words: int = 8):
    """Greedy longest-phrase scan over word spans, one term list at a time.

    Returns (start, end) character spans. Matching is on casefolded
    words; at each word position the longest phrase in `surfaces` wins
    and its words are consumed.
    """
    phrase_set = {tuple(w.casefold() for w in _WORD.findall(s)) for s in surfaces}
    spans = [(m.start(), m.end(), m.group().casefold()) for m in _WORD.finditer(text)]
    hits = []
    i = 0
    while i < len(spans):
        found = None
        for k in range(min(max_words, len(spans) - i), 0, -1):
            window = tuple(w for _, _, w in spans[i : i + k])
            if window in phrase_set:
                found = k
                break
        if found is None:
            i += 1
            continue
        hits.append((spans[i][0], spans[i + found - 1][1]))
        i += found
    return hits


def naive_bleu_1(candidate_words: list[str], reference_words: list[str]) -> float:
    cand = Counter(candidate_words)
    ref = Counter(reference_words)
    matched = sum(min(c, ref[w]) for w, c in cand.items())
    precision = matched / len(candidate_words) if matched else 1e-9
    brevity = math.exp(min(0.0, 1.0 - len(reference_words) / len(candidate_words)))
    return 100.0 * brevity * precision


def naive_lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by the textbook O(len(a) len(b)) table."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def naive_meteor(candidate_words: list[str], reference_words: list[str]) -> float:
    """Simplified METEOR: exact then suffix-stem alignment, chunk penalty."""

    def stem(word: str) -> str:
        for suf in ("ing", "ed", "ly", "es", "s"):
            if word.endswith(suf) and len(word) - len(suf) >= 3:
                return word[: len(word) - len(suf)]
        return word

    ref_used = [False] * len(reference_words)
    pairs: dict[int, int] = {}
    for key in (lambda w: w, stem):
        for ci, cw in enumerate(candidate_words):
            if ci in pairs:
                continue
            for ri, rw in enumerate(reference_words):
                if not ref_used[ri] and key(cw) == key(rw):
                    pairs[ci] = ri
                    ref_used[ri] = True
                    break
    m = len(pairs)
    if m == 0:
        return 0.0
    precision = m / len(candidate_words)
    recall = m / len(reference_words)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    ordered = sorted(pairs.items())
    chunks = 1
    for (c0, r0), (c1, r1) in zip(ordered, ordered[1:]):
        if not (c1 == c0 + 1 and r1 == r0 + 1):
            chunks += 1
    penalty = 0.5 * (chunks / m) ** 3
    return 100.0 * fmean * (1.0 - penalty)
