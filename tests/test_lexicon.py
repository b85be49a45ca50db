"""Lexicon loading, validation and phrase matching."""

from __future__ import annotations

import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deidpipe.errors import LexiconError
from deidpipe.lexicon import (
    Lexicon,
    LexTerm,
    load_lexicon,
    load_lexicon_json,
    load_lexicon_path,
    match_terms,
    token_id_sets,
)
from deidpipe.textkit import build_vocab
from oracles import naive_match_spans


def _lex(black, white):
    return load_lexicon_json(
        json.dumps(
            {
                "blacklist": [{"term": t, "category": "personnel"} for t in black],
                "whitelist": [{"term": t, "category": "descriptor"} for t in white],
            }
        )
    )


def test_plain_format_with_category_headers():
    black = [
        "#category: personnel",
        "John Doe",
        "jane roe",
        "# free comment line",
        "#category: date",
        "january 03 2024",
        "",
    ]
    white = ["#category: descriptor", "pleural effusion", "#category: anatomy", "left lung"]
    lex = load_lexicon(iter(black), iter(white))
    assert [t.surface for t in lex.blacklist] == ["john doe", "jane roe", "january 03 2024"]
    assert lex.blacklist[0].category == "personnel"
    assert lex.blacklist[2].category == "date"
    assert lex.whitelist[1].surface == "left lung"
    assert lex.whitelist[1].category == "anatomy"


def test_plain_format_default_categories():
    lex = load_lexicon(iter(["somebody"]), iter(["haziness"]))
    assert lex.blacklist[0].category == "other"
    assert lex.whitelist[0].category == "descriptor"


def test_json_format_round_trip():
    lex = _lex(["john doe"], ["pleural effusion"])
    assert lex.blacklist[0].token_words == ("john", "doe")
    assert lex.whitelist[0].category == "descriptor"


def test_json_rejects_unknown_category():
    doc = {"blacklist": [{"term": "x", "category": "nonsense"}], "whitelist": []}
    with pytest.raises(LexiconError, match="nonsense"):
        load_lexicon_json(json.dumps(doc))


def test_wordless_term_rejected_with_line_number():
    with pytest.raises(LexiconError, match="line 2"):
        load_lexicon(iter(["somebody", "!!!"]), iter([]))


def test_unknown_header_category_rejected():
    with pytest.raises(LexiconError, match="line 1"):
        load_lexicon(iter(["#category: villain"]), iter([]))


def test_overlong_phrase_rejected():
    nine = " ".join(["word"] * 9)
    with pytest.raises(LexiconError, match="exceeds"):
        load_lexicon(iter([nine]), iter([]))


def test_duplicate_terms_keep_first_occurrence():
    lex = load_lexicon(iter(["John Doe", "JOHN DOE"]), iter([]))
    assert len(lex.blacklist) == 1
    assert lex.blacklist[0].surface == "john doe"


def test_overlapping_blacklist_and_whitelist_is_an_error():
    with pytest.raises(LexiconError, match="effusion"):
        _lex(["pleural effusion"], ["effusion noted"])


def test_disjoint_lists_load_cleanly():
    lex = _lex(["john doe", "mrn70131"], ["cardiomegaly", "pleural effusion"])
    assert isinstance(lex, Lexicon)
    assert len(lex.blacklist) == 2 and len(lex.whitelist) == 2


def test_load_lexicon_path_sniffs_json(tmp_path):
    p = tmp_path / "lex.json"
    p.write_text(
        json.dumps({"blacklist": [{"term": "zz", "category": "other"}], "whitelist": []}),
        encoding="utf-8",
    )
    lex = load_lexicon_path(p)
    assert lex.blacklist[0].surface == "zz"


def test_load_lexicon_path_plain_sections(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text(
        "#blacklist\n#category: personnel\njohn doe\n#whitelist\nedema\n",
        encoding="utf-8",
    )
    lex = load_lexicon_path(p)
    assert lex.blacklist[0].surface == "john doe"
    assert lex.blacklist[0].category == "personnel"
    assert lex.whitelist[0].surface == "edema"


def test_match_is_case_insensitive_and_reports_char_offsets():
    lex = _lex(["john doe"], [])
    text = "Patient JOHN DOE presented today."
    hits = match_terms(text, lex)
    assert len(hits) == 1
    m = hits[0]
    assert (m.start, m.end) == (8, 16)
    assert text[m.start : m.end] == "JOHN DOE"
    assert m.kind == "blacklist"


def test_longest_phrase_wins_over_prefix():
    lex = _lex(["john", "john doe jr"], [])
    hits = match_terms("seen by john doe jr today", lex)
    assert len(hits) == 1
    assert hits[0].surface == "john doe jr"


def test_words_inside_other_words_do_not_match():
    lex = _lex(["doe"], [])
    assert match_terms("antidoelike doenut", lex) == []
    assert len(match_terms("a doe appeared", lex)) == 1


def test_underscore_is_a_word_boundary():
    lex = _lex(["doe"], [])
    hits = match_terms("tag_doe_suffix", lex)
    assert len(hits) == 1


def test_matches_of_both_kinds_sorted_by_start():
    lex = _lex(["john doe"], ["cardiomegaly"])
    text = "cardiomegaly noted for john doe"
    hits = match_terms(text, lex)
    assert [m.kind for m in hits] == ["whitelist", "blacklist"]
    assert hits[0].start < hits[1].start


def test_match_spans_equal_sliding_window_oracle():
    surfaces = ["john doe", "jane", "mrn70131", "january 03 2024"]
    lex = _lex(surfaces, [])
    text = (
        "John Doe, mrn70131, seen january 03 2024. jane called about JANE "
        "and john doe again; johndoe is not a hit."
    )
    got = [(m.start, m.end) for m in match_terms(text, lex)]
    want = naive_match_spans(text, surfaces)
    assert got == sorted(want)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon zeta", "eta theta iota"]),
        min_size=1,
        max_size=30,
    ),
    st.sets(st.sampled_from(["alpha", "epsilon zeta", "eta theta iota", "kappa"]), min_size=1),
)
def test_random_texts_match_oracle(words_in_text, chosen_terms):
    text = " ".join(words_in_text)
    lex = _lex(sorted(chosen_terms), [])
    got = [(m.start, m.end) for m in match_terms(text, lex)]
    want = naive_match_spans(text, sorted(chosen_terms))
    assert got == sorted(want)
    for a, b in zip(got, got[1:]):
        assert a[1] <= b[0], "matches of one kind must not overlap"


def test_token_id_sets_cover_every_phrase_word():
    lex = _lex(["john doe"], ["pleural effusion"])
    vocab = build_vocab(["john doe has pleural effusion", "effusion gone"])
    f_ids, p_ids = token_id_sets(lex, vocab)
    assert {vocab.surface(i) for i in f_ids} == {"john", "doe"}
    assert {vocab.surface(i) for i in p_ids} == {"pleural", "effusion"}
    assert f_ids.isdisjoint(p_ids)


def test_token_id_sets_tolerates_missing_words(caplog):
    lex = _lex(["john doe", "jane marchetti"], [])
    vocab = build_vocab(["only doe appears"])
    with caplog.at_level(logging.WARNING, logger="deidpipe.lexicon"):
        f_ids, _ = token_id_sets(lex, vocab)
    assert {vocab.surface(i) for i in f_ids} == {"doe"}
    assert "3 blacklist word(s) absent" in caplog.text
    assert not [w for w in ("john", "jane", "marchetti") if w in caplog.text]


def test_lexterm_token_words_split_normalized_surface():
    t = LexTerm(surface="left lung", category="anatomy")
    assert t.token_words == ("left", "lung")
