"""Text metrics, SSIM and the nearest-centroid identity probe."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deidpipe.encoders import ReferenceEncoder
from deidpipe.errors import DeidError
from deidpipe.evalkit import (
    TEXT_METRICS,
    ProbeResult,
    bleu_n,
    identity_probe,
    lcs_length,
    meteor_simplified,
    rouge_l,
    ssim,
    text_scores,
)
from deidpipe.synth import generate_corpus
from deidpipe.words import words
from oracles import naive_bleu_1, naive_lcs_length, naive_meteor, naive_ssim

CAND = "lungs clear"
REF = "the lungs are clear"


def test_bleu_1_fixture():
    assert bleu_n(CAND, REF, 1) == pytest.approx(36.787944, abs=0.01)


def test_rouge_l_fixture():
    assert rouge_l(CAND, REF) == pytest.approx(62.886598, abs=0.01)


def test_bleu_identity_is_100():
    s = "no acute cardiopulmonary process identified today"
    for n in range(1, 5):
        assert bleu_n(s, s, n) == pytest.approx(100.0, abs=1e-9)


def test_rouge_identity_is_100():
    s = "heart size within normal limits"
    assert rouge_l(s, s) == pytest.approx(100.0, abs=1e-9)


def test_bleu_matches_naive_unigram_reference():
    pairs = [
        ("lungs clear bilaterally", "the lungs are clear"),
        ("a a a b", "a b c d"),
        ("one two three", "three two one"),
    ]
    for cand, ref in pairs:
        want = naive_bleu_1(words(cand), words(ref))
        assert bleu_n(cand, ref, 1) == pytest.approx(want, abs=1e-9)


def test_bleu_is_case_insensitive():
    assert bleu_n("Lungs CLEAR", "the LUNGS are clear", 1) == pytest.approx(
        bleu_n("lungs clear", "the lungs are clear", 1), abs=1e-12
    )


def test_bleu_no_overlap_is_tiny_but_positive():
    v = bleu_n("alpha beta", "gamma delta", 2)
    assert 0.0 < v < 1e-4


def test_bleu_rejects_bad_order_and_empty_text():
    with pytest.raises(DeidError):
        bleu_n("a", "b", 0)
    with pytest.raises(DeidError):
        bleu_n("a", "b", 5)
    with pytest.raises(DeidError):
        bleu_n("", "b", 1)
    with pytest.raises(DeidError):
        bleu_n("a", "...", 1)


def test_rouge_l_subsequence_not_substring():
    # c-a-t is a subsequence of the reference even with gaps
    assert rouge_l("cat gone wild", "cat was gone quite wild") > 50.0


LCS_WORDS = ["a", "b", "c", "lungs", "clear", "é", "straße", "肺", "x" * 70]


@pytest.mark.parametrize(
    "a,b",
    [
        ([], []),
        ([], ["a", "b"]),
        (["a", "b"], []),
        (["a"] * 9, ["a"] * 5),
        (["a", "b", "c"], ["x", "y", "z"]),
        ([f"w{i}" for i in range(150)], [f"w{i}" for i in range(0, 150, 2)]),
        (["c", "a"] * 40, ["a", "c"] * 45),
        (["é", "straße", "肺", "é"], ["肺", "é", "é", "straße"]),
    ],
    ids=["both-empty", "empty-a", "empty-b", "all-equal", "no-shared", "over-64", "repeats", "non-ascii"],
)
def test_lcs_length_matches_table_on_edge_cases(a, b):
    assert lcs_length(a, b) == naive_lcs_length(a, b)
    assert lcs_length(b, a) == naive_lcs_length(a, b)


@settings(max_examples=300, deadline=None)
@given(
    a=st.lists(st.sampled_from(LCS_WORDS), max_size=140),
    b=st.lists(st.sampled_from(LCS_WORDS), max_size=140),
)
def test_lcs_length_matches_table(a, b):
    assert lcs_length(a, b) == naive_lcs_length(a, b)


def test_text_scores_equal_the_single_metric_functions():
    corpus = generate_corpus(40, 5, seed=3)
    reports = [r.report for r in corpus.records]
    pairs = list(zip(reports, reports[1:] + reports[:1])) + [(reports[0], reports[0])]
    pairs += [("lungs clear", "the lungs are clear"), ("a", "b c d e"), ("a b c d e", "a")]
    names = list(TEXT_METRICS)
    for cand, ref in pairs:
        want = [bleu_n(cand, ref, n) for n in (1, 2, 3, 4)]
        want += [rouge_l(cand, ref), meteor_simplified(cand, ref)]
        assert text_scores(cand, ref, names) == want
        assert text_scores(cand, ref, names[::-1]) == want[::-1]
        assert text_scores(cand, ref, ["bleu-2", "meteor", "bleu-2"]) == [want[1], want[5], want[1]]


def test_text_scores_rejects_unknown_names_and_wordless_text():
    with pytest.raises(DeidError, match="wer"):
        text_scores("a", "b", ["bleu-1", "wer"])
    with pytest.raises(DeidError, match="candidate"):
        text_scores("...", "b", ["rouge-l"])
    with pytest.raises(DeidError, match="reference"):
        text_scores("a", "", ["meteor"])


def test_meteor_identity_matches_formula():
    s = "opacity in the left lower lobe"
    m = len(words(s))
    want = 100.0 * (1.0 - 0.5 * (1.0 / m) ** 3)
    assert meteor_simplified(s, s) == pytest.approx(want, abs=1e-9)


def test_meteor_matches_naive_reference():
    pairs = [
        ("the cat sat on the mat", "the cat was sitting on the mat"),
        ("lungs clear", "the lungs are clear"),
        ("scarring noted", "scar noted previously"),
        ("walked home", "walking home"),
        ("alpha beta", "gamma delta"),
    ]
    for cand, ref in pairs:
        want = naive_meteor(words(cand), words(ref))
        assert meteor_simplified(cand, ref) == pytest.approx(want, abs=1e-9)


def test_meteor_stem_alignment_pairs_suffix_variants():
    assert meteor_simplified("walking", "walked") > 0.0
    assert meteor_simplified("be", "bed") == 0.0, "stems shorter than 3 never fire"


@settings(max_examples=60, deadline=None)
@given(
    cand=st.lists(st.sampled_from(["clear", "lungs", "heart", "stable", "mild"]), min_size=1, max_size=8),
    ref=st.lists(st.sampled_from(["clear", "lungs", "heart", "stable", "mild"]), min_size=1, max_size=8),
)
def test_text_metrics_stay_in_range(cand, ref):
    c, r = " ".join(cand), " ".join(ref)
    for value in (bleu_n(c, r, 2), rouge_l(c, r), meteor_simplified(c, r)):
        assert 0.0 <= value <= 100.0 + 1e-9


def test_ssim_identity_exactly_100():
    rng = np.random.default_rng(0)
    x = rng.random((32, 32))
    assert ssim(x, x.copy()) == 100.0


def test_ssim_matches_naive_reference():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.random((20, 20))
        y = rng.random((20, 20))
        assert ssim(x, y) == pytest.approx(100.0 * naive_ssim(x, y), abs=1e-9)


def test_ssim_requires_matching_shapes():
    with pytest.raises(DeidError):
        ssim(np.ones((16, 16)) * 0.5, np.ones((16, 17)) * 0.5)


def test_ssim_penalizes_noise_monotonically():
    rng = np.random.default_rng(2)
    x = rng.random((24, 24)) * 0.5 + 0.25
    small = np.clip(x + rng.normal(0, 0.01, x.shape), 0, 1)
    large = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
    assert ssim(x, small) > ssim(x, large)


def _cohorts(rng, n_train, n_eval, separation):
    """Two patients sharing one base image, split by a brightness shift."""
    base = rng.random((16, 16)) * 0.4 + 0.2

    def batch(n):
        sets = []
        for pid, shift in (("pa", 0.0), ("pb", separation)):
            for _ in range(n):
                noisy = np.clip(base + shift + rng.normal(0, 0.003, base.shape), 0, 1)
                sets.append((noisy, pid))
        return sets

    return batch(n_train), batch(n_eval)


def test_probe_separable_cohort_is_perfect():
    rng = np.random.default_rng(3)
    enc = ReferenceEncoder.from_seed(dim=32, pool_grid=8, seed=1)
    train, eval_set = _cohorts(rng, 6, 4, 0.3)
    res = identity_probe(train, eval_set, enc)
    assert res.accuracy == 100.0
    assert res.n_classes == 2
    assert res.n_eval == 8


def test_probe_result_confusion_counts_sum_to_eval_size():
    rng = np.random.default_rng(4)
    enc = ReferenceEncoder.from_seed(dim=16, pool_grid=4, seed=2)
    train, eval_set = _cohorts(rng, 5, 3, 0.05)
    res = identity_probe(train, eval_set, enc)
    total = sum(v for row in res.confusion.values() for v in row.values())
    assert total == res.n_eval
    assert isinstance(res.to_dict()["confusion"], dict)


def test_probe_needs_two_classes():
    rng = np.random.default_rng(5)
    enc = ReferenceEncoder.from_seed(dim=16, pool_grid=4, seed=0)
    pairs = [(rng.random((16, 16)), "only") for _ in range(4)]
    with pytest.raises(DeidError):
        identity_probe(pairs, pairs, enc)


def test_probe_rejects_unseen_eval_patient():
    rng = np.random.default_rng(6)
    enc = ReferenceEncoder.from_seed(dim=16, pool_grid=4, seed=0)
    train, _ = _cohorts(rng, 3, 1, 0.3)
    eval_set = [(rng.random((16, 16)), "stranger")]
    with pytest.raises(DeidError, match="stranger"):
        identity_probe(train, eval_set, enc)


def test_probe_predictions_invariant_to_positive_rescale():
    rng = np.random.default_rng(7)
    enc = ReferenceEncoder.from_seed(dim=32, pool_grid=8, seed=3)
    train, eval_set = _cohorts(rng, 5, 4, 0.2)
    halved = [(img * 0.5, pid) for img, pid in eval_set]
    a = identity_probe(train, eval_set, enc)
    b = identity_probe(train, halved, enc)
    assert a.confusion == b.confusion


def test_probe_result_is_a_plain_record():
    r = ProbeResult(accuracy=50.0, n_classes=2, n_eval=10)
    d = r.to_dict()
    assert d["accuracy"] == 50.0 and d["n_classes"] == 2 and d["n_eval"] == 10
