"""End-to-end record processing: generation, seeding, parallel equality."""

from __future__ import annotations

import json

import numpy as np
import pytest

from deidpipe import _kernels
from deidpipe.config import PipelineConfig
from deidpipe.errors import DatasetError, RecordError
from deidpipe.lexicon import match_terms, token_id_sets
from deidpipe.pipeline import (
    Record,
    ToyGenerator,
    build_components,
    deid_dataset,
    deid_record,
    generate_image,
    record_rng,
)
from deidpipe.synth import generate_corpus
from deidpipe.textkit import build_vocab


def _sigmoid(z):
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(12, 3, seed=5)


@pytest.fixture(scope="module")
def parts(small_corpus):
    cfg = PipelineConfig(seed=4)
    vocab = build_vocab([r.report for r in small_corpus.records])
    table, enc, gen = build_components(cfg, vocab)
    return cfg, vocab, table, enc, gen


def test_generate_image_matches_manual_formula(parts):
    cfg, vocab, table, enc, gen = parts
    tokens = [5, 9, 14]
    img = generate_image(tokens, None, gen, table)
    u = table.vectors[tokens].mean(axis=0)
    want = np.clip(_sigmoid(gen.weights @ u + gen.bias).reshape(64, 64), 0.0, 1.0)
    np.testing.assert_allclose(img, want, rtol=0, atol=1e-12)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_generate_image_blend_mixes_lowpassed_source(parts):
    cfg, vocab, table, enc, _ = parts
    gen = ToyGenerator.from_seed(dim=16, out_h=64, out_w=64, seed=3, blend=0.4)
    rng = np.random.default_rng(0)
    source = rng.random((64, 64))
    tokens = [4, 6]
    pure = ToyGenerator.from_seed(dim=16, out_h=64, out_w=64, seed=3, blend=0.0)
    base = generate_image(tokens, None, pure, table)
    got = generate_image(tokens, source, gen, table)
    want = np.clip(0.6 * base + 0.4 * _kernels.lowpass_block4(source), 0.0, 1.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_generate_image_blend_requires_source(parts):
    cfg, vocab, table, enc, _ = parts
    gen = ToyGenerator.from_seed(dim=16, out_h=64, out_w=64, seed=3, blend=0.4)
    with pytest.raises(Exception):
        generate_image([1, 2], None, gen, table)


def test_record_rng_streams_are_disjoint_and_stable():
    a1 = record_rng(9, 0).integers(2**31, size=4)
    a2 = record_rng(9, 0).integers(2**31, size=4)
    b = record_rng(9, 1).integers(2**31, size=4)
    c = record_rng(10, 0).integers(2**31, size=4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_build_components_derive_from_master_seed(parts):
    cfg, vocab, table, enc, gen = parts
    table2, enc2, gen2 = build_components(cfg, vocab)
    np.testing.assert_array_equal(table.vectors, table2.vectors)
    np.testing.assert_array_equal(enc.text_weights, enc2.text_weights)
    np.testing.assert_array_equal(gen.weights, gen2.weights)
    other, _, _ = build_components(PipelineConfig(seed=5), vocab)
    assert not np.array_equal(table.vectors, other.vectors)


def test_deid_record_produces_clean_report_and_image(small_corpus, parts):
    cfg, vocab, table, enc, gen = parts
    lex = small_corpus.lexicon
    rec = small_corpus.records[0]
    ids = token_id_sets(lex, vocab)
    out = deid_record(rec, cfg, lex, vocab, table, enc, gen, record_rng(cfg.seed, 0), ids)
    assert out.id == rec.id
    assert [m for m in match_terms(out.report, lex) if m.kind == "blacklist"] == []
    assert out.image.shape == (64, 64)
    assert 0.0 <= out.image.min() and out.image.max() <= 1.0
    assert not set(token_id_sets(lex, vocab)[0]).intersection(out.prompt_tokens)
    opt = out.audit["optimization"]
    assert set(opt) == {"steps_per_round", "learning_rate", "initial_loss", "final_loss"}
    assert opt["steps_per_round"] == cfg.steps
    assert np.isfinite(opt["initial_loss"]) and np.isfinite(opt["final_loss"])


def test_deid_dataset_worker_count_does_not_change_bytes(small_corpus, parts):
    cfg, vocab, table, enc, gen = parts
    lex = small_corpus.lexicon
    recs = small_corpus.records

    def run(workers):
        out = deid_dataset(recs, cfg, lex, vocab, table, enc, gen, workers=workers)
        return [
            (d.id, d.report, d.prompt_tokens, d.image.tobytes(), json.dumps(d.audit, sort_keys=True))
            for d in out
        ]

    assert run(1) == run(4)


def test_deid_dataset_preserves_input_order(small_corpus, parts):
    cfg, vocab, table, enc, gen = parts
    out = deid_dataset(
        small_corpus.records, cfg, small_corpus.lexicon, vocab, table, enc, gen, workers=3
    )
    assert [d.id for d in out] == [r.id for r in small_corpus.records]


def test_deid_dataset_skips_failing_records(small_corpus, parts):
    cfg, vocab, table, enc, gen = parts
    bad = Record(id="bad", patient_id="p9", image=np.ones((4, 4)), report="tiny image")
    recs = [small_corpus.records[0], bad, small_corpus.records[1]]
    failures = []
    out = deid_dataset(
        recs, cfg, small_corpus.lexicon, vocab, table, enc, gen, failures=failures
    )
    assert [d.id for d in out] == [recs[0].id, recs[2].id]
    assert len(failures) == 1 and failures[0][0] == "bad"


def test_deid_dataset_rejects_duplicate_ids(small_corpus, parts):
    cfg, vocab, table, enc, gen = parts
    recs = [small_corpus.records[0], small_corpus.records[0]]
    with pytest.raises(DatasetError):
        deid_dataset(recs, cfg, small_corpus.lexicon, vocab, table, enc, gen)


def test_deid_record_wraps_failures_with_record_id(small_corpus, parts):
    cfg, vocab, table, enc, gen = parts
    bad = Record(id="r77", patient_id="p0", image=np.ones((4, 4)), report="x")
    ids = token_id_sets(small_corpus.lexicon, vocab)
    with pytest.raises(RecordError, match="r77"):
        deid_record(
            bad, cfg, small_corpus.lexicon, vocab, table, enc, gen, record_rng(4, 0), ids
        )


def test_source_blend_feeds_the_original_image(small_corpus, parts):
    cfg, vocab, table, enc, gen = parts
    lex = small_corpus.lexicon
    rec = small_corpus.records[2]
    ids = token_id_sets(lex, vocab)
    blend_cfg = PipelineConfig(seed=4, source_blend=0.5)
    btable, benc, bgen = build_components(blend_cfg, vocab)
    blended = deid_record(rec, blend_cfg, lex, vocab, btable, benc, bgen, record_rng(4, 2), ids)
    plain = deid_record(rec, cfg, lex, vocab, table, enc, gen, record_rng(4, 2), ids)
    assert not np.array_equal(blended.image, plain.image)


def test_verbose_audit_includes_projection_dump(small_corpus, parts):
    cfg, vocab, table, enc, gen = parts
    lex = small_corpus.lexicon
    rec = small_corpus.records[0]
    ids = token_id_sets(lex, vocab)
    out = deid_record(
        rec, cfg, lex, vocab, table, enc, gen, record_rng(4, 0), ids, verbose_audit=True
    )
    assert "projection" in out.audit
    assert len(out.audit["projection"]) == len(out.prompt_tokens)
    quiet = deid_record(rec, cfg, lex, vocab, table, enc, gen, record_rng(4, 0), ids)
    assert "projection" not in quiet.audit
