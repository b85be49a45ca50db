"""Release gate: the nine end-to-end guarantees this package ships under.

Each test prints one PASS/FAIL line (visible with pytest -s or on
failure) and then asserts, so the suite both documents and enforces the
bar. Budgeted runtimes are asserted where stated.
"""

from __future__ import annotations

import json
import time

import numpy as np

from deidpipe.cli import main
from deidpipe.config import PipelineConfig
from deidpipe.encoders import ReferenceEncoder, max_relative_grad_error
from deidpipe.evalkit import bleu_n, identity_probe, rouge_l, ssim
from deidpipe.lexicon import load_lexicon_json, match_terms, token_id_sets
from deidpipe.optimizer import optimize_prompt
from deidpipe.pipeline import build_components, deid_dataset, generate_image
from deidpipe.projection import SelectionPolicy, project_prompt, score_row
from deidpipe.synth import generate_corpus
from deidpipe.textkit import EmbeddingTable, build_vocab, filter_report, tokenize
from deidpipe.encoders import alignment_grad, alignment_loss
from oracles import (
    apply_blacklist,
    naive_project_sequence,
    naive_ssim,
    select_token,
    softmax_probabilities,
    top_k,
)


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_01_gradient_correctness():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        enc = ReferenceEncoder.from_seed(dim=16, pool_grid=8, seed=int(rng.integers(2**31)))
        prompt = np.random.default_rng(int(rng.integers(2**31))).standard_normal((8, 16))
        f_img = np.random.default_rng(int(rng.integers(2**31))).standard_normal(16)
        worst = max(worst, max_relative_grad_error(prompt, f_img, enc, step=1e-5))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _report(
        "1 gradient correctness",
        ok,
        f"max relative error {worst:.3e} over 100 instances in {elapsed:.2f}s",
    )


def test_02_projection_oracle_equivalence():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    biases = (0.0, 0.05, 0.5)
    checked = 0
    for i in range(200):
        table = EmbeddingTable.from_seed(200, 12, seed=int(rng.integers(2**31)))
        prompt = np.random.default_rng(int(rng.integers(2**31))).standard_normal((6, 12))
        ids = rng.permutation(200)
        blacklist = set(int(x) for x in ids[:30])
        whitelist = set(int(x) for x in ids[30:60])
        bias = biases[i % 3]
        got = project_prompt(
            prompt, table, blacklist, whitelist, k=20, bias=bias,
            policy=SelectionPolicy(mode="greedy"),
        )
        want = naive_project_sequence(
            prompt, table.vectors, blacklist, whitelist, k=20, bias=bias
        )
        assert got == want, f"instance {i} diverged from the full-sort oracle"
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 200 and elapsed < 10.0
    _report(
        "2 projection oracle equivalence",
        ok,
        f"{checked}/200 instances sequence-identical in {elapsed:.2f}s",
    )


def _random_trial_lexicon(rng) -> tuple:
    pool = [f"w{chr(97 + a)}{chr(97 + b)}" for a in range(6) for b in range(5)]
    shuffled = [pool[int(i)] for i in rng.permutation(len(pool))]
    black_words, white_words = shuffled[:8], shuffled[8:14]
    black_terms = [
        {"term": " ".join(black_words[i : i + 1 + int(rng.integers(2))]), "category": "other"}
        for i in range(0, 8, 2)
    ]
    white_terms = [{"term": w, "category": "descriptor"} for w in white_words]
    lex = load_lexicon_json(json.dumps({"blacklist": black_terms, "whitelist": white_terms}))
    return lex, pool


def test_03_blacklist_soundness_fuzz():
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    for trial in range(1000):
        lex, pool = _random_trial_lexicon(rng)
        vocab = build_vocab([" ".join(pool)])
        blacklist_ids, whitelist_ids = token_id_sets(lex, vocab)
        table = EmbeddingTable.from_seed(len(vocab), 8, seed=int(rng.integers(2**31)))
        prompt = np.random.default_rng(int(rng.integers(2**31))).standard_normal((4, 8))
        mode = "softmax" if trial % 2 else "greedy"
        policy = SelectionPolicy(mode=mode, temperature=float(rng.choice([0.5, 1.0, 2.0])))
        tokens = project_prompt(
            prompt, table, blacklist_ids, whitelist_ids,
            k=int(rng.integers(1, 16)), bias=float(rng.choice([0.0, 0.05, 0.5])),
            policy=policy, rng=np.random.default_rng(int(rng.integers(2**31))),
        )
        assert not blacklist_ids.intersection(tokens), f"trial {trial} leaked a banned id"
        text = " ".join(str(rng.choice(pool)) for _ in range(int(rng.integers(5, 30))))
        filtered, _ = filter_report(text, lex)
        leaks = [m for m in match_terms(filtered, lex) if m.kind == "blacklist"]
        assert leaks == [], f"trial {trial} leaked a surface match"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _report(
        "3 blacklist soundness fuzz",
        ok,
        f"1000 trials, zero id or surface leaks, {elapsed:.2f}s",
    )


def test_04_whitelist_bias_semantics():
    rng = np.random.default_rng(1004)
    table = EmbeddingTable.from_seed(120, 10, seed=77)
    lambdas = (0.0, 0.01, 0.1, 1.0)

    # zero bias must be bit-identical to a pipeline with the stage removed
    for _ in range(50):
        prompt = np.random.default_rng(int(rng.integers(2**31))).standard_normal((5, 10))
        whitelist = set(int(x) for x in rng.integers(0, 120, size=20))
        with_stage = project_prompt(
            prompt, table, set(), whitelist, k=15, bias=0.0,
            policy=SelectionPolicy(mode="greedy"),
        )
        without_stage = []
        for row_vec in prompt:
            scores = score_row(row_vec, table)
            ids, raw = top_k(scores, apply_blacklist(scores, ()), 15)
            without_stage.append(select_token(ids, raw, SelectionPolicy(mode="greedy")))
        assert with_stage == without_stage

    # whitelist softmax mass never decreases in the bias, membership fixed;
    # candidates and biased scores are those project_prompt audits
    for case in range(100):
        prompt_row = np.random.default_rng(2000 + case).standard_normal(10)
        whitelist = set(int(x) for x in np.random.default_rng(case).integers(0, 120, size=25))
        prev_mass = -1.0
        prev_ids = None
        for lam in lambdas:
            audit: list = []
            project_prompt(
                prompt_row[None, :], table, set(), whitelist, k=15, bias=lam,
                policy=SelectionPolicy(mode="greedy"), audit=audit,
            )
            ids, biased = audit[0]["candidate_ids"], audit[0]["biased_scores"]
            if lam == 0.0:
                assert biased == audit[0]["raw_scores"]
            probs = softmax_probabilities(np.array(biased), 1.0)
            mass = float(sum(p for p, tid in zip(probs, ids) if tid in whitelist))
            assert mass >= prev_mass - 1e-12, f"case {case}: mass dropped at bias {lam}"
            assert prev_ids is None or ids == prev_ids, "membership must not depend on bias"
            prev_mass, prev_ids = mass, ids
    _report(
        "4 whitelist bias semantics",
        True,
        "bias 0 bitwise-equal to stage removal; softmax mass monotone over 100 sets",
    )


def test_05_optimization_behavior():
    rng = np.random.default_rng(1005)
    improved = 0
    replay_worst = 0.0
    for _ in range(200):
        enc = ReferenceEncoder.from_seed(dim=16, pool_grid=8, seed=int(rng.integers(2**31)))
        prompt = np.random.default_rng(int(rng.integers(2**31))).standard_normal((8, 16))
        f_img = np.random.default_rng(int(rng.integers(2**31))).standard_normal(16)
        final, trace = optimize_prompt(prompt, f_img, enc, learning_rate=0.05, steps=50)
        improved += trace.losses[-1] < trace.losses[0]
        current = prompt.astype(np.float64)
        assert abs(trace.losses[0] - alignment_loss(current, f_img, enc)) <= 1e-12
        for t in range(1, 51):
            current = current - 0.05 * alignment_grad(current, f_img, enc)
            replay_worst = max(
                replay_worst, abs(trace.losses[t] - alignment_loss(current, f_img, enc))
            )
        np.testing.assert_allclose(final, current, rtol=0, atol=1e-12)
    ok = improved >= 190 and replay_worst <= 1e-12
    _report(
        "5 optimization behavior",
        ok,
        f"{improved}/200 instances improved, worst trace replay error {replay_worst:.1e}",
    )


def _split_by_patient(pairs):
    seen: dict[str, int] = {}
    train, eval_set = [], []
    for img, pid in pairs:
        k = seen.get(pid, 0)
        seen[pid] = k + 1
        (train if k % 2 == 0 else eval_set).append((img, pid))
    return train, eval_set


def test_06_identity_leakage_ordering():
    t0 = time.perf_counter()
    corpus = generate_corpus(2600, 50, seed=7)
    recs = corpus.records
    probe_enc = ReferenceEncoder.from_seed(dim=64, pool_grid=8, seed=11)

    train, eval_set = _split_by_patient([(r.image, r.patient_id) for r in recs])
    real = identity_probe(train, eval_set, probe_enc).accuracy

    cfg = PipelineConfig(
        mode="softmax", temperature=1.0, top_k=20, whitelist_bias=0.05,
        init="raw_report", seed=13,
    )
    vocab = build_vocab([r.report for r in recs])
    table, enc, gen = build_components(cfg, vocab)

    raw_pairs = [
        (generate_image(tokenize(r.report, vocab, cfg.max_prompt_len), None, gen, table), r.patient_id)
        for r in recs
    ]
    train, eval_set = _split_by_patient(raw_pairs)
    raw_gen = identity_probe(train, eval_set, probe_enc).accuracy

    failures: list = []
    outputs = deid_dataset(
        recs, cfg, corpus.lexicon, vocab, table, enc, gen, workers=8, failures=failures
    )
    pid_of = {r.id: r.patient_id for r in recs}
    train, eval_set = _split_by_patient([(d.image, pid_of[d.id]) for d in outputs])
    deid = identity_probe(train, eval_set, probe_enc).accuracy

    elapsed = time.perf_counter() - t0
    chance = 100.0 / 50
    ok = (
        not failures
        and real >= 95.0
        and deid <= chance + 10.0
        and real > raw_gen > deid
        and elapsed < 120.0
    )
    _report(
        "6 identity leakage ordering",
        ok,
        f"real {real:.2f} > raw-gen {raw_gen:.2f} > deid {deid:.2f} "
        f"(chance {chance:.2f}), {elapsed:.1f}s",
    )


def test_07_metric_fixtures():
    rng = np.random.default_rng(1007)
    b = bleu_n("lungs clear", "the lungs are clear", 1)
    r = rouge_l("lungs clear", "the lungs are clear")
    fixture_ok = abs(b - 36.79) <= 0.01 and abs(r - 62.89) <= 0.01
    sentence = "no acute cardiopulmonary abnormality detected"
    identity_ok = all(
        abs(bleu_n(sentence, sentence, n) - 100.0) < 1e-9 for n in range(1, 5)
    ) and abs(rouge_l(sentence, sentence) - 100.0) < 1e-9
    x = rng.random((24, 24))
    ssim_exact = ssim(x, x.copy()) == 100.0
    worst = 0.0
    for _ in range(20):
        a = rng.random((20, 20))
        bimg = rng.random((20, 20))
        worst = max(worst, abs(ssim(a, bimg) - 100.0 * naive_ssim(a, bimg)))
    ok = fixture_ok and identity_ok and ssim_exact and worst <= 1e-9
    _report(
        "7 metric fixtures",
        ok,
        f"bleu-1 {b:.2f}, rouge-l {r:.2f}, ssim self-identity exact, "
        f"naive-reference gap {worst:.1e} over 20 pairs",
    )


def test_08_determinism_across_workers(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert main([
        "synth-corpus", "--output", str(corpus_dir),
        "--records", "50", "--patients", "5", "--seed", "21",
    ]) == 0

    def run(tag, workers):
        out = tmp_path / tag
        rc = main([
            "deid",
            "--input", str(corpus_dir / "dataset.jsonl"),
            "--lexicon", str(corpus_dir / "lexicon.json"),
            "--output", str(out),
            "--seed", "3",
            "--workers", str(workers),
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        images = b"".join(
            p.read_bytes() for p in sorted((out / "images").glob("*.pgm"))
        )
        return (out / "dataset.jsonl").read_bytes(), images, manifest["fingerprint"]

    solo = run("w1", 1)
    pool = run("w8", 8)
    rerun = run("w1_again", 1)
    ok = solo == pool == rerun
    _report(
        "8 determinism across workers",
        ok,
        "50-record run: 1 worker, 8 workers and a rerun are byte-identical "
        f"(fingerprint {solo[2][:12]})",
    )


def test_09_phi_filter_recall(tmp_path):
    out = tmp_path / "corpus"
    assert main([
        "synth-corpus", "--output", str(out),
        "--records", "80", "--patients", "8", "--seed", "17",
    ]) == 0
    lex_doc = json.loads((out / "lexicon.json").read_text(encoding="utf-8"))
    lex = load_lexicon_json(json.dumps(lex_doc))
    reports = {
        json.loads(line)["id"]: json.loads(line)["report"]
        for line in (out / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    }
    truth = {
        json.loads(line)["id"]: json.loads(line)["terms"]
        for line in (out / "ground_truth.jsonl").read_text(encoding="utf-8").splitlines()
    }
    injected = removed = 0
    whitelist_before = whitelist_after = 0
    for rid, report in reports.items():
        spans = [t for t in truth[rid] if t["kind"] == "blacklist"]
        filtered, removals = filter_report(report, lex)
        got = {(r.start, r.end) for r in removals}
        want = {(t["start"], t["end"]) for t in spans}
        assert got == want, f"record {rid}: removal spans diverge from ground truth"
        assert [m for m in match_terms(filtered, lex) if m.kind == "blacklist"] == []
        injected += len(want)
        removed += len(got & want)
        whitelist_before += sum(1 for m in match_terms(report, lex) if m.kind == "whitelist")
        whitelist_after += sum(1 for m in match_terms(filtered, lex) if m.kind == "whitelist")
    recall = 100.0 * removed / injected
    preserved = 100.0 * whitelist_after / max(whitelist_before, 1)
    ok = recall == 100.0 and preserved == 100.0 and whitelist_before > 0
    _report(
        "9 phi filter recall",
        ok,
        f"{removed}/{injected} injected terms replaced ({recall:.1f}%), "
        f"{whitelist_after}/{whitelist_before} whitelist hits preserved ({preserved:.1f}%)",
    )
