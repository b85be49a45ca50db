"""Evaluation kit: text overlap metrics, windowed SSIM, identity probe.

All scores are percentages. The text metrics share the package word
tokenizer, so candidate/reference casing and punctuation never matter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .encoders import cosine, validate_image
from .errors import DeidError
from .words import words

BLEU_EPSILON = 1e-9
ROUGE_BETA = 1.2
METEOR_SUFFIXES = ("ing", "ed", "ly", "es", "s")
METEOR_MIN_STEM = 3
SSIM_WINDOW = 8
TEXT_METRICS = ("bleu-1", "bleu-2", "bleu-3", "bleu-4", "rouge-l", "meteor")


def _tokens_or_error(text: str, what: str) -> list[str]:
    toks = words(text)
    if not toks:
        raise DeidError(f"{what} has no word tokens")
    return toks


def _ngrams(toks: list[str], k: int) -> Counter:
    return Counter(zip(*(toks[i:] for i in range(k))))


def _bleu_scores(cand: list[str], ref: list[str], max_n: int) -> list[float]:
    """BLEU-1..max_n of one token pair; order k's clipped matches are counted once."""
    brevity = np.exp(min(0.0, 1.0 - len(ref) / len(cand)))
    scores = []
    log_sum = 0.0
    for k in range(1, max_n + 1):
        total = len(cand) - k + 1
        if total < 1:
            precision = BLEU_EPSILON
        else:
            r_counts = _ngrams(ref, k)
            matched = sum(min(c, r_counts[g]) for g, c in _ngrams(cand, k).items())
            precision = matched / total if matched > 0 else BLEU_EPSILON
        log_sum += np.log(precision)
        scores.append(float(100.0 * brevity * np.exp(log_sum / k)))
    return scores


def bleu_n(candidate: str, reference: str, n: int) -> float:
    """Geometric mean of modified 1..n-gram precisions times brevity penalty.

    A zero match count for any order is smoothed to epsilon instead of
    collapsing the whole score to exactly zero. Sentence level, x100.
    """
    if not 1 <= n <= 4:
        raise DeidError("n must lie in 1..4")
    cand = _tokens_or_error(candidate, "candidate")
    ref = _tokens_or_error(reference, "reference")
    return _bleu_scores(cand, ref, n)[-1]


def lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence of two token lists.

    Bit-parallel (Allison and Dix 1986; Hyyrö 2004): with a[:i] read, bit
    j of `row` is 0 exactly where LCS(a[:i], b[:j+1]) exceeds
    LCS(a[:i], b[:j]), so the zero bits count the LCS. Each word of `a`
    costs a few operations on one int of len(b) bits.
    """
    masks: dict[str, int] = {}
    for j, w in enumerate(b):
        masks[w] = masks.get(w, 0) | (1 << j)
    full = (1 << len(b)) - 1
    row = full
    for w in a:
        m = masks.get(w)
        if m:
            u = row & m
            row = ((row + u) | (row - u)) & full
    return len(b) - row.bit_count()


def _rouge_l(cand: list[str], ref: list[str], beta: float = ROUGE_BETA) -> float:
    lcs = lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand)
    r = lcs / len(ref)
    b2 = beta * beta
    return float(100.0 * (1.0 + b2) * p * r / (r + b2 * p))


def rouge_l(candidate: str, reference: str, beta: float = ROUGE_BETA) -> float:
    """LCS-based F-measure: (1 + b^2) P R / (R + b^2 P), x100."""
    cand = _tokens_or_error(candidate, "candidate")
    ref = _tokens_or_error(reference, "reference")
    return _rouge_l(cand, ref, beta)


def _stem(word: str) -> str:
    for suffix in METEOR_SUFFIXES:
        if word.endswith(suffix) and len(word) - len(suffix) >= METEOR_MIN_STEM:
            return word[: -len(suffix)]
    return word


def _align(cand: list[str], ref: list[str]) -> list[tuple[int, int]]:
    """Two-stage greedy alignment: exact surfaces first, then shared stems.

    Both stages scan candidate positions left to right and take the
    lowest-index unmatched reference position, so identical sentences
    align as the identity map.
    """
    matched_c: set[int] = set()
    matched_r: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for key in (lambda w: w, _stem):
        ref_slots: dict[str, list[int]] = {}
        for j, w in enumerate(ref):
            if j not in matched_r:
                ref_slots.setdefault(key(w), []).append(j)
        for i, w in enumerate(cand):
            if i in matched_c:
                continue
            slots = ref_slots.get(key(w))
            if slots:
                j = slots.pop(0)
                matched_c.add(i)
                matched_r.add(j)
                pairs.append((i, j))
    pairs.sort()
    return pairs


def _meteor(cand: list[str], ref: list[str]) -> float:
    pairs = _align(cand, ref)
    m = len(pairs)
    if m == 0:
        return 0.0
    p = m / len(cand)
    r = m / len(ref)
    f_mean = 10.0 * p * r / (r + 9.0 * p)
    chunks = 1
    for (ci, ri), (cj, rj) in zip(pairs, pairs[1:]):
        if cj != ci + 1 or rj != ri + 1:
            chunks += 1
    penalty = 0.5 * (chunks / m) ** 3
    return float(100.0 * f_mean * (1.0 - penalty))


def meteor_simplified(candidate: str, reference: str) -> float:
    """Unigram F-mean weighted toward recall, with a fragmentation penalty.

    F = 10 P R / (R + 9 P); penalty = 0.5 (chunks / matches)^3 where a
    chunk is a run of matches contiguous in both sentences. x100.
    """
    cand = _tokens_or_error(candidate, "candidate")
    ref = _tokens_or_error(reference, "reference")
    return _meteor(cand, ref)


def text_scores(candidate: str, reference: str, metrics: list[str]) -> list[float]:
    """One pair's score under each named metric of TEXT_METRICS, in the order given.

    Each side is tokenized once and BLEU counts n-grams once up to the
    largest order named, so one call replaces a call per metric. Every
    value equals the one bleu_n, rouge_l or meteor_simplified returns.
    """
    unknown = sorted(set(metrics) - set(TEXT_METRICS))
    if unknown:
        raise DeidError(f"unknown text metric(s): {', '.join(unknown)}")
    cand = _tokens_or_error(candidate, "candidate")
    ref = _tokens_or_error(reference, "reference")
    max_n = max((int(m[-1]) for m in metrics if m.startswith("bleu-")), default=0)
    scores = {f"bleu-{n}": v for n, v in enumerate(_bleu_scores(cand, ref, max_n), start=1)}
    if "rouge-l" in metrics:
        scores["rouge-l"] = _rouge_l(cand, ref)
    if "meteor" in metrics:
        scores["meteor"] = _meteor(cand, ref)
    return [scores[m] for m in metrics]


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Mean local SSIM over 8x8 stride-1 windows on [0, 1] images, x100."""
    a = validate_image(x, min_side=SSIM_WINDOW)
    b = validate_image(y, min_side=SSIM_WINDOW)
    if a.shape != b.shape:
        raise DeidError("ssim inputs must share one shape")
    return float(100.0 * _kernels.ssim_mean(a, b, SSIM_WINDOW))


@dataclass
class ProbeResult:
    """Outcome of the nearest-centroid identity probe."""

    accuracy: float
    n_classes: int
    n_eval: int
    confusion: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n_classes": self.n_classes,
            "n_eval": self.n_eval,
            "confusion": self.confusion,
        }


def identity_probe(train, eval_set, enc) -> ProbeResult:
    """Nearest-centroid patient re-identification over encoder features.

    train and eval_set are sequences of (image, patient_id). Eval images
    are assigned to the centroid with the highest cosine similarity;
    exact ties go to the lexicographically smallest patient id.
    """
    feats: dict[str, list[np.ndarray]] = {}
    for image, pid in train:
        feats.setdefault(str(pid), []).append(enc.encode_image(image))
    classes = sorted(feats)
    if len(classes) < 2:
        raise DeidError("identity probe needs at least 2 training classes")
    centroids = {pid: np.mean(feats[pid], axis=0) for pid in classes}

    confusion: dict[str, dict[str, int]] = {}
    correct = 0
    n_eval = 0
    for image, pid in eval_set:
        pid = str(pid)
        if pid not in centroids:
            raise DeidError(f"eval patient {pid!r} has no training examples")
        f = enc.encode_image(image)
        best_pid = None
        best_sim = -np.inf
        for cand in classes:  # lexicographic order makes ties deterministic
            sim = cosine(f, centroids[cand])
            if sim > best_sim:
                best_sim = sim
                best_pid = cand
        row = confusion.setdefault(pid, {})
        row[best_pid] = row.get(best_pid, 0) + 1
        correct += best_pid == pid
        n_eval += 1
    if n_eval == 0:
        raise DeidError("identity probe needs a non-empty eval set")
    return ProbeResult(
        accuracy=100.0 * correct / n_eval,
        n_classes=len(classes),
        n_eval=n_eval,
        confusion=confusion,
    )
