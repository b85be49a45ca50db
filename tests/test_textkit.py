"""Vocabulary, tokenization, embedding table and report filtering."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deidpipe.errors import DeidError
from deidpipe.lexicon import match_terms
from deidpipe.textkit import (
    BOS_ID,
    DEID_PLACEHOLDER,
    EOS_ID,
    PAD_ID,
    RESERVED,
    UNK_ID,
    EmbeddingTable,
    Vocabulary,
    build_vocab,
    embed,
    filter_report,
    random_prompt,
    tokenize,
)
from deidpipe.words import words


def test_reserved_ids_occupy_the_first_slots():
    vocab = build_vocab(["alpha beta"])
    assert vocab.surface(PAD_ID) == "[PAD]"
    assert vocab.surface(UNK_ID) == "[UNK]"
    assert vocab.surface(BOS_ID) == "[BOS]"
    assert vocab.surface(EOS_ID) == "[EOS]"
    assert len(RESERVED) == 4


def test_build_vocab_matches_recount_oracle():
    corpus = [
        "the lungs are clear the heart is normal",
        "Clear LUNGS again",
        "heart size stable",
    ]
    counts = Counter(w for text in corpus for w in words(text))
    vocab = build_vocab(corpus, min_count=2)
    expected = list(RESERVED) + sorted(w for w, c in counts.items() if c >= 2)
    assert [vocab.surface(i) for i in range(len(vocab))] == expected


def test_build_vocab_min_count_filters_rare_words():
    vocab = build_vocab(["rare word word"], min_count=2)
    assert vocab.id_of("word") is not None
    assert vocab.id_of("rare") is None


def test_tokenize_lowercases_and_maps_unknown_to_unk():
    vocab = build_vocab(["lungs clear"])
    ids = tokenize("LUNGS totally CLEAR", vocab)
    assert ids[0] == vocab.id_of("lungs")
    assert ids[1] == UNK_ID
    assert ids[2] == vocab.id_of("clear")


def test_tokenize_truncates_to_max_len():
    vocab = build_vocab(["a b c d e"])
    ids = tokenize("a b c d e", vocab, max_len=3)
    assert len(ids) == 3


def test_tokenize_empty_text_yields_single_unk():
    vocab = build_vocab(["something"])
    assert tokenize("", vocab) == [UNK_ID]
    assert tokenize("...", vocab) == [UNK_ID]


def test_vocabulary_rejects_bad_reserved_prefix():
    with pytest.raises(DeidError):
        Vocabulary(surfaces=("[PAD]", "[UNK]", "word"))


def test_embedding_table_rows_fixed_by_seed_and_unit_length():
    t1 = EmbeddingTable.from_seed(30, 8, seed=5)
    t2 = EmbeddingTable.from_seed(30, 8, seed=5)
    np.testing.assert_array_equal(t1.vectors, t2.vectors)
    norms = np.linalg.norm(t1.vectors, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
    t3 = EmbeddingTable.from_seed(30, 8, seed=6)
    assert not np.array_equal(t1.vectors, t3.vectors)


def test_embed_is_a_row_gather():
    table = EmbeddingTable.from_seed(10, 5, seed=2)
    seq = [3, 9, 3, 0]
    got = embed(seq, table)
    for k, tid in enumerate(seq):
        np.testing.assert_array_equal(got[k], table.vectors[tid])
    got[0, 0] = 123.0
    assert table.vectors[3, 0] != 123.0, "embed must hand out a copy"


def test_embed_rejects_out_of_range_ids():
    table = EmbeddingTable.from_seed(4, 4, seed=0)
    with pytest.raises(DeidError):
        embed([4], table)
    with pytest.raises(DeidError):
        embed([-1], table)
    with pytest.raises(DeidError):
        embed([], table)


def test_random_prompt_seeded_shape_and_reproducibility():
    a = random_prompt(6, 4, seed=77)
    b = random_prompt(6, 4, seed=77)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (6, 4)
    assert not np.array_equal(a, random_prompt(6, 4, seed=78))


def test_filter_report_replaces_blacklist_and_keeps_whitelist(tiny_lexicon):
    text = "John Doe shows pleural effusion; mrn12345 on file."
    filtered, removals = filter_report(text, tiny_lexicon)
    assert filtered == "[DEID] shows pleural effusion; [DEID] on file."
    assert [r.surface for r in removals] == ["John Doe", "mrn12345"]
    assert [r.category for r in removals] == ["personnel", "patient_id"]
    assert text[removals[0].start : removals[0].end] == "John Doe"


def test_filter_report_is_idempotent(tiny_lexicon):
    text = "mrn12345 and JOHN DOE with cardiomegaly"
    once, removals = filter_report(text, tiny_lexicon)
    twice, more = filter_report(once, tiny_lexicon)
    assert removals and not more
    assert twice == once


def test_filtered_report_has_no_blacklist_matches(tiny_lexicon):
    text = "john doe john doe mrn12345 cardiomegaly"
    filtered, _ = filter_report(text, tiny_lexicon)
    left = [m for m in match_terms(filtered, tiny_lexicon) if m.kind == "blacklist"]
    assert left == []
    assert DEID_PLACEHOLDER in filtered


_FUZZ_LEXICON = None


def _fuzz_lexicon():
    global _FUZZ_LEXICON
    if _FUZZ_LEXICON is None:
        from deidpipe.lexicon import load_lexicon

        _FUZZ_LEXICON = load_lexicon(
            iter(["#category: personnel", "john doe", "#category: patient_id", "mrn12345"]),
            iter(["#category: descriptor", "pleural effusion", "cardiomegaly"]),
        )
    return _FUZZ_LEXICON


@settings(max_examples=100, deadline=None)
@given(
    parts=st.lists(
        st.sampled_from(["john doe", "mrn12345", "cardiomegaly", "stable", "lungs"]),
        min_size=0,
        max_size=12,
    )
)
def test_filter_report_never_leaks_and_preserves_whitelist(parts):
    lex = _fuzz_lexicon()
    text = " . ".join(parts)
    filtered, removals = filter_report(text, lex)
    assert [m for m in match_terms(filtered, lex) if m.kind == "blacklist"] == []
    n_white_before = sum(1 for m in match_terms(text, lex) if m.kind == "whitelist")
    n_white_after = sum(1 for m in match_terms(filtered, lex) if m.kind == "whitelist")
    assert n_white_after == n_white_before
    assert len(removals) == sum(1 for p in parts if p in ("john doe", "mrn12345"))
