"""Constrained projection of soft prompt rows onto discrete tokens."""

from __future__ import annotations

import numpy as np
import pytest

from deidpipe.errors import DeidError, VocabularyExhaustedError
from deidpipe.projection import SelectionPolicy, project_prompt, score_row
from deidpipe.textkit import EmbeddingTable
from oracles import (
    apply_blacklist,
    bias_whitelist,
    naive_cosine_scores,
    naive_project_sequence,
    select_token,
    softmax_probabilities,
    top_k,
)

# The per-position stages live in oracles.py as the reference
# project_prompt must reproduce (see the composition test at the end);
# the tests below pin down what each stage means.


@pytest.fixture(scope="module")
def table():
    return EmbeddingTable.from_seed(50, 12, seed=8)


def _row(seed, dim=12):
    return np.random.default_rng(seed).standard_normal(dim)


def _candidates(vec, table, k):
    """(ids, raw scores) of the top k for one row, nothing blacklisted."""
    scores = score_row(vec, table)
    return top_k(scores, apply_blacklist(scores, ()), k)


def test_score_row_matches_naive_cosines(table):
    vec = _row(0)
    scores = score_row(vec, table)
    want = naive_cosine_scores(vec / np.linalg.norm(vec), table.unit_rows)
    assert scores.shape == (50,)
    np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12)


def test_apply_blacklist_marks_exactly_the_given_ids(table):
    scores = score_row(_row(1), table)
    before = scores.copy()
    excluded = apply_blacklist(scores, {3, 7, 49})
    assert sorted(np.flatnonzero(excluded)) == [3, 7, 49]
    np.testing.assert_array_equal(scores, before)


def test_top_k_matches_full_sort_oracle(table):
    scores = score_row(_row(2), table)
    ids, _ = top_k(scores, apply_blacklist(scores, {0, 5, 11}), 10)
    order = sorted(
        (i for i in range(50) if i not in {0, 5, 11}),
        key=lambda i: (-scores[i], i),
    )
    assert list(ids) == order[:10]


def test_top_k_breaks_score_ties_by_ascending_id():
    vectors = np.zeros((6, 4))
    vectors[:, 0] = 1.0
    vectors[5] = [0.0, 1.0, 0.0, 0.0]
    table = EmbeddingTable(vectors=vectors)
    ids, _ = _candidates(np.array([1.0, 0.0, 0.0, 0.0]), table, 3)
    assert list(ids) == [0, 1, 2]


def test_top_k_with_small_vocabulary_returns_everything(table):
    ids, _ = _candidates(_row(3), table, 500)
    assert len(ids) == 50


def test_top_k_raises_when_all_candidates_excluded(table):
    scores = score_row(_row(4), table)
    with pytest.raises(VocabularyExhaustedError):
        top_k(scores, apply_blacklist(scores, range(50)), 5)


def test_bias_whitelist_adds_bonus_only_to_members(table):
    ids, raw = _candidates(_row(5), table, 8)
    members = {int(ids[1]), int(ids[4])}
    biased = bias_whitelist(ids, raw, members, 0.25)
    for pos, tid in enumerate(ids):
        bonus = 0.25 if int(tid) in members else 0.0
        assert biased[pos] == raw[pos] + bonus


def test_zero_bias_leaves_scores_bitwise_identical(table):
    ids, raw = _candidates(_row(6), table, 8)
    np.testing.assert_array_equal(bias_whitelist(ids, raw, {int(ids[0])}, 0.0), raw)


def test_greedy_selection_takes_best_biased_score_lowest_id(table):
    ids, raw = _candidates(_row(7), table, 8)
    chosen = select_token(ids, raw, SelectionPolicy(mode="greedy"))
    best = sorted(zip(-raw, ids))[0][1]
    assert chosen == int(best)


def test_greedy_tie_goes_to_lowest_id():
    vectors = np.zeros((4, 3))
    vectors[:, 0] = 1.0
    table = EmbeddingTable(vectors=vectors)
    scores = score_row(np.array([1.0, 0.0, 0.0]), table)
    greedy = SelectionPolicy(mode="greedy")
    for banned, want in (((), 0), ({0}, 1)):
        ids, raw = top_k(scores, apply_blacklist(scores, banned), 4)
        assert select_token(ids, raw, greedy) == want


def test_whitelist_bias_can_flip_the_greedy_choice(table):
    ids, raw = _candidates(_row(8), table, 5)
    greedy = SelectionPolicy(mode="greedy")
    runner_up = int(ids[1])
    gap = float(raw[0] - raw[1])
    flipped = bias_whitelist(ids, raw, {runner_up}, gap + 0.01)
    assert select_token(ids, flipped, greedy) == runner_up
    unflipped = bias_whitelist(ids, raw, {runner_up}, gap / 2.0)
    assert select_token(ids, unflipped, greedy) == int(ids[0])


def test_softmax_probabilities_match_manual_formula(table):
    _, raw = _candidates(_row(9), table, 6)
    for tau in (0.25, 1.0, 4.0):
        probs = softmax_probabilities(raw, tau)
        logits = raw / tau
        want = np.exp(logits - logits.max())
        want /= want.sum()
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_sampling_frequencies_match_probabilities(table):
    vec = _row(10)
    ids, raw = _candidates(vec, table, 4)
    policy = SelectionPolicy(mode="softmax", temperature=1.0)
    rng = np.random.default_rng(123)
    draws = 100_000
    counts = np.zeros(50)
    # project_prompt draws one uniform per row: 10 prompts of 10k copies
    # of the row sample the same position 100k times
    for _ in range(10):
        tokens = project_prompt(
            np.tile(vec, (draws // 10, 1)), table, set(), set(), k=4, bias=0.0,
            policy=policy, rng=rng,
        )
        counts += np.bincount(tokens, minlength=50)
    probs = softmax_probabilities(raw, 1.0)
    for pos, tid in enumerate(ids):
        assert counts[tid] / draws == pytest.approx(probs[pos], abs=0.01)
    assert counts.sum() == draws


def test_softmax_is_seed_deterministic(table):
    ids, raw = _candidates(_row(11), table, 6)
    policy = SelectionPolicy(mode="softmax", temperature=0.7)
    a = [select_token(ids, raw, policy, np.random.default_rng(5)) for _ in range(10)]
    b = [select_token(ids, raw, policy, np.random.default_rng(5)) for _ in range(10)]
    assert a == b


def test_softmax_without_generator_raises(table):
    policy = SelectionPolicy(mode="softmax")
    ids, raw = _candidates(_row(15), table, 6)
    with pytest.raises(DeidError, match="random generator"):
        select_token(ids, raw, policy)
    with pytest.raises(DeidError, match="random generator"):
        project_prompt(
            np.random.default_rng(15).standard_normal((4, 12)), table, set(), set(),
            k=5, bias=0.0, policy=policy,
        )
    assert select_token(ids, raw, SelectionPolicy(mode="greedy")) == int(ids[0])


def test_project_prompt_matches_end_to_end_oracle(table):
    rng = np.random.default_rng(12)
    prompt = rng.standard_normal((9, 12))
    blacklist = {1, 2, 3, 30, 31}
    whitelist = {6, 40}
    for bias in (0.0, 0.05, 0.5):
        got = project_prompt(
            prompt, table, blacklist, whitelist, k=20, bias=bias,
            policy=SelectionPolicy(mode="greedy"),
        )
        want = naive_project_sequence(
            prompt, table.vectors, blacklist, whitelist, k=20, bias=bias
        )
        assert got == want


def test_project_prompt_never_emits_blacklisted_ids(table):
    rng = np.random.default_rng(13)
    banned = set(range(0, 50, 3))
    for mode in ("greedy", "softmax"):
        prompt = rng.standard_normal((16, 12))
        tokens = project_prompt(
            prompt, table, banned, set(), k=10, bias=0.1,
            policy=SelectionPolicy(mode=mode), rng=np.random.default_rng(1),
        )
        assert not banned.intersection(tokens)


def test_project_prompt_reports_failing_position(table):
    rng = np.random.default_rng(14)
    prompt = rng.standard_normal((3, 12))
    with pytest.raises(VocabularyExhaustedError, match="position 0"):
        project_prompt(
            prompt, table, set(range(50)), set(), k=5, bias=0.0,
            policy=SelectionPolicy(mode="greedy"),
        )


def test_project_prompt_rejects_non_matrix_input(table):
    with pytest.raises(DeidError):
        project_prompt(
            np.ones(12), table, set(), set(), k=5, bias=0.0,
            policy=SelectionPolicy(mode="greedy"),
        )


def test_project_prompt_audit_records_candidates(table):
    rng = np.random.default_rng(15)
    prompt = rng.standard_normal((2, 12))
    audit = []
    tokens = project_prompt(
        prompt, table, {7}, {9}, k=4, bias=0.2,
        policy=SelectionPolicy(mode="greedy"), audit=audit,
    )
    assert [a["position"] for a in audit] == [0, 1]
    for a, chosen in zip(audit, tokens):
        assert a["chosen"] == chosen
        assert chosen in a["candidate_ids"]
        assert 7 not in a["candidate_ids"]
        assert len(a["raw_scores"]) == len(a["candidate_ids"])


def test_selection_policy_validation():
    with pytest.raises(DeidError):
        SelectionPolicy(mode="lucky")
    with pytest.raises(DeidError):
        SelectionPolicy(mode="softmax", temperature=0.0)


def _project_per_position(prompt, table, blacklist, whitelist, k, bias, policy, rng):
    """project_prompt spelled out as the single-position composition."""
    tokens, audit = [], []
    for j, vec in enumerate(prompt):
        scores = score_row(vec, table)
        ids, raw = top_k(scores, apply_blacklist(scores, blacklist), k)
        biased = bias_whitelist(ids, raw, whitelist, bias)
        chosen = select_token(ids, biased, policy, rng)
        audit.append({
            "position": j,
            "candidate_ids": [int(i) for i in ids],
            "raw_scores": [float(s) for s in raw],
            "biased_scores": [float(s) for s in biased],
            "chosen": chosen,
        })
        tokens.append(chosen)
    return tokens, audit


def test_project_prompt_equals_per_position_composition():
    rng = np.random.default_rng(16)
    for case in range(240):
        size, dim = int(rng.integers(5, 60)), int(rng.integers(3, 10))
        vectors = rng.standard_normal((size, dim))
        # duplicated rows score bitwise equal, so ties must go to the lower id
        dupes = rng.integers(0, size, size=int(rng.integers(0, size // 2 + 1)))
        vectors[dupes] = vectors[int(rng.integers(size))]
        table = EmbeddingTable(vectors=vectors)
        prompt = rng.standard_normal((int(rng.integers(1, 10)), dim))
        prompt[0] = vectors[int(dupes[0]) if dupes.size else 0]
        k = int(rng.integers(1, 12))
        # some blacklists leave k or fewer ids available
        keep = int(rng.integers(1, k + 2)) if case % 4 == 0 else int(rng.integers(min(k, size), size + 1))
        ids = rng.permutation(size)
        blacklist = set(int(i) for i in ids[keep:])
        whitelist = set(int(i) for i in ids[: int(rng.integers(0, size))])
        bias = float(rng.choice([0.0, 0.05, 0.5]))
        mode = ("greedy", "softmax")[case % 2]
        policy = SelectionPolicy(mode=mode, temperature=float(rng.choice([0.25, 1.0, 4.0])))
        seed = int(rng.integers(2**31))
        draws_batched, draws_single = np.random.default_rng(seed), np.random.default_rng(seed)
        audit = []
        got = project_prompt(
            prompt, table, blacklist, whitelist, k=k, bias=bias,
            policy=policy, rng=draws_batched, audit=audit,
        )
        want, want_audit = _project_per_position(
            prompt, table, blacklist, whitelist, k, bias, policy, draws_single
        )
        assert got == want, f"case {case} ({mode})"
        assert audit == want_audit, f"case {case} ({mode})"
        assert draws_batched.random() == draws_single.random(), "rng streams diverged"
