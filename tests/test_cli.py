"""The deidpipe command line: all six subcommands and their exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from deidpipe.cli import main
from deidpipe.config import PipelineConfig
from deidpipe.dataio import read_pgm, write_pgm
from deidpipe.evalkit import TEXT_METRICS, bleu_n, meteor_simplified, rouge_l
from deidpipe.lexicon import load_lexicon_json, load_lexicon_path, match_terms
from deidpipe.synth import generate_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main([
        "synth-corpus", "--output", str(out),
        "--records", "12", "--patients", "3", "--seed", "5",
    ])
    assert rc == 0
    return out


def _read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def test_synth_corpus_writes_expected_files(corpus_dir):
    assert (corpus_dir / "dataset.jsonl").exists()
    assert (corpus_dir / "lexicon.json").exists()
    assert (corpus_dir / "ground_truth.jsonl").exists()
    docs = _read_jsonl(corpus_dir / "dataset.jsonl")
    assert len(docs) == 12
    assert (corpus_dir / "images" / f"{docs[0]['id']}.pgm").exists()


def test_synth_corpus_is_reproducible(tmp_path, corpus_dir):
    again = tmp_path / "again"
    rc = main([
        "synth-corpus", "--output", str(again),
        "--records", "12", "--patients", "3", "--seed", "5",
    ])
    assert rc == 0
    assert (again / "dataset.jsonl").read_bytes() == (corpus_dir / "dataset.jsonl").read_bytes()
    assert (again / "ground_truth.jsonl").read_bytes() == (
        corpus_dir / "ground_truth.jsonl"
    ).read_bytes()


def test_synth_corpus_rejects_bad_counts(tmp_path, capsys):
    rc = main(["synth-corpus", "--output", str(tmp_path / "x"), "--records", "0"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_deid_print_defaults(capsys):
    rc = main(["deid", "--print-defaults"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == PipelineConfig().to_dict()


def test_deid_requires_io_arguments(capsys):
    rc = main(["deid", "--input", "x.jsonl"])
    assert rc == 2
    assert "--output" in capsys.readouterr().err


@pytest.fixture(scope="module")
def deid_run(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("deid_out")
    rc = main([
        "deid",
        "--input", str(corpus_dir / "dataset.jsonl"),
        "--lexicon", str(corpus_dir / "lexicon.json"),
        "--output", str(out),
        "--seed", "7",
    ])
    assert rc == 0
    return out


def test_deid_writes_dataset_manifest_and_images(deid_run):
    docs = _read_jsonl(deid_run / "dataset.jsonl")
    assert len(docs) == 12
    manifest = json.loads((deid_run / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["n_ok"] == 12 and manifest["n_failed"] == 0
    assert manifest["fingerprint"] == PipelineConfig(seed=7).fingerprint()
    assert manifest["config"]["seed"] == 7
    img = read_pgm(deid_run / docs[0]["image"]["path"])
    assert img.shape == (64, 64)


def test_deid_outputs_are_deidentified(deid_run, corpus_dir):
    lex = load_lexicon_path(corpus_dir / "lexicon.json")
    for doc in _read_jsonl(deid_run / "dataset.jsonl"):
        hits = [m for m in match_terms(doc["report"], lex) if m.kind == "blacklist"]
        assert hits == []
        assert doc["audit"]["removals"], "the synthetic reports all carry phi"


def test_deid_rerun_and_workers_are_byte_identical(corpus_dir, deid_run, tmp_path):
    for extra in (["--workers", "4"], []):
        again = tmp_path / ("w" + str(len(extra)))
        rc = main([
            "deid",
            "--input", str(corpus_dir / "dataset.jsonl"),
            "--lexicon", str(corpus_dir / "lexicon.json"),
            "--output", str(again),
            "--seed", "7",
            *extra,
        ])
        assert rc == 0
        assert (again / "dataset.jsonl").read_bytes() == (
            deid_run / "dataset.jsonl"
        ).read_bytes()


def test_deid_seed_changes_output(corpus_dir, deid_run, tmp_path):
    other = tmp_path / "other_seed"
    rc = main([
        "deid",
        "--input", str(corpus_dir / "dataset.jsonl"),
        "--lexicon", str(corpus_dir / "lexicon.json"),
        "--output", str(other),
        "--seed", "8",
    ])
    assert rc == 0
    assert (other / "dataset.jsonl").read_bytes() != (deid_run / "dataset.jsonl").read_bytes()


def test_deid_config_file_with_seed_override(corpus_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"steps": 5, "seed": 1}), encoding="utf-8")
    out = tmp_path / "cfg_out"
    rc = main([
        "deid",
        "--config", str(cfg_path),
        "--input", str(corpus_dir / "dataset.jsonl"),
        "--lexicon", str(corpus_dir / "lexicon.json"),
        "--output", str(out),
        "--seed", "2",
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["steps"] == 5
    assert manifest["config"]["seed"] == 2


def test_deid_unknown_config_key_exits_2(corpus_dir, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"stepz": 5}), encoding="utf-8")
    rc = main([
        "deid",
        "--config", str(cfg_path),
        "--input", str(corpus_dir / "dataset.jsonl"),
        "--lexicon", str(corpus_dir / "lexicon.json"),
        "--output", str(tmp_path / "nope"),
    ])
    assert rc == 2
    assert "stepz" in capsys.readouterr().err


def test_deid_missing_input_file_exits_2(corpus_dir, tmp_path):
    rc = main([
        "deid",
        "--input", str(tmp_path / "absent.jsonl"),
        "--lexicon", str(corpus_dir / "lexicon.json"),
        "--output", str(tmp_path / "o"),
    ])
    assert rc == 2


def test_deid_rejects_path_traversal_record_id(corpus_dir, tmp_path, capsys):
    doc = json.loads((corpus_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines()[0])
    doc["id"] = "../../escaped"
    doc["image"] = {"path": str(corpus_dir / doc["image"]["path"])}
    src = tmp_path / "in" / "dataset.jsonl"
    src.parent.mkdir()
    src.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    rc = main([
        "deid",
        "--input", str(src),
        "--lexicon", str(corpus_dir / "lexicon.json"),
        "--output", str(tmp_path / "out" / "run"),
    ])
    assert rc == 2
    assert "record id" in capsys.readouterr().err
    written = set(tmp_path.rglob("*")) - set(before)
    assert all(p.is_relative_to(tmp_path / "out" / "run") for p in written if p.is_file())
    assert not (tmp_path / "out" / "escaped.pgm").exists()


@pytest.mark.parametrize("where", ["absolute", "dotdot"])
def test_deid_rejects_image_path_outside_input_dir(corpus_dir, tmp_path, capsys, where):
    doc = json.loads((corpus_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines()[0])
    image = corpus_dir / doc["image"]["path"]
    src = tmp_path / "in" / "dataset.jsonl"
    src.parent.mkdir()
    rel = str(image) if where == "absolute" else f"../{image.name}"
    if where == "dotdot":
        (tmp_path / image.name).write_bytes(image.read_bytes())
    doc["image"] = {"path": rel}
    src.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    rc = main([
        "deid",
        "--input", str(src),
        "--lexicon", str(corpus_dir / "lexicon.json"),
        "--output", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "image path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "bad",
    [
        {"steps": 2.5},
        {"top_k": 2.5},
        {"max_prompt_len": 2.5},
        {"rounds": 1.5},
        {"seed": -1},
        {"seed": "x"},
        {"seed": 1e30},
    ],
)
def test_deid_config_value_of_wrong_type_exits_2(corpus_dir, tmp_path, capsys, bad):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(bad), encoding="utf-8")
    rc = main([
        "deid",
        "--config", str(cfg_path),
        "--input", str(corpus_dir / "dataset.jsonl"),
        "--lexicon", str(corpus_dir / "lexicon.json"),
        "--output", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert next(iter(bad)) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_filter_reports_round_trip(corpus_dir, tmp_path, capsys):
    reports = [json.loads(l)["report"] for l in (corpus_dir / "dataset.jsonl").read_text().splitlines()]
    src = tmp_path / "reports.txt"
    src.write_text("\n".join(reports) + "\n", encoding="utf-8")
    dst = tmp_path / "filtered.txt"
    rc = main([
        "filter-reports",
        "--lexicon", str(corpus_dir / "lexicon.json"),
        "--input", str(src),
        "--output", str(dst),
    ])
    assert rc == 0
    lex = load_lexicon_path(corpus_dir / "lexicon.json")
    filtered = dst.read_text(encoding="utf-8").splitlines()
    assert len(filtered) == len(reports)
    for line in filtered:
        assert [m for m in match_terms(line, lex) if m.kind == "blacklist"] == []
    audit = _read_jsonl(tmp_path / "filtered.txt.audit.jsonl")
    assert len(audit) == len(reports)
    assert all(doc["removals"] for doc in audit)


def test_no_blacklist_term_in_any_written_text_file(tmp_path):
    corpus = tmp_path / "corpus"
    assert main([
        "synth-corpus", "--output", str(corpus),
        "--records", "80", "--patients", "8", "--seed", "17",
    ]) == 0
    reports = tmp_path / "reports.txt"
    reports.write_text(
        "".join(doc["report"] + "\n" for doc in _read_jsonl(corpus / "dataset.jsonl")),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    deid = [
        "deid", "--input", str(corpus / "dataset.jsonl"),
        "--lexicon", str(corpus / "lexicon.json"), "--seed", "3",
    ]
    assert main(deid + ["--output", str(out / "plain")]) == 0
    assert main(deid + ["--output", str(out / "verbose"), "--verbose-audit"]) == 0
    assert main([
        "filter-reports", "--lexicon", str(corpus / "lexicon.json"),
        "--input", str(reports), "--output", str(out / "filtered.txt"),
    ]) == 0
    # blacklist matches do not depend on the whitelist; leaving it out
    # halves the scan of the 4 MB verbose dataset
    terms = json.loads((corpus / "lexicon.json").read_text(encoding="utf-8"))["blacklist"]
    blacklist = load_lexicon_json(json.dumps({"blacklist": terms, "whitelist": []}))
    texts = sorted(p for p in out.rglob("*") if p.is_file() and p.suffix != ".pgm")
    assert len(texts) == 6, "dataset and manifest per deid run, filtered text and its audit"
    for path in texts:
        hits = match_terms(path.read_text(encoding="utf-8"), blacklist)
        assert hits == [], f"{path.relative_to(out)}: {len(hits)} blacklist term(s)"


def test_eval_text_metrics(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("lungs clear\nheart normal\n", encoding="utf-8")
    (tmp_path / "r.txt").write_text("the lungs are clear\nheart normal\n", encoding="utf-8")
    rc = main([
        "eval",
        "--metrics", "bleu-1,rouge-l,meteor",
        "--candidates", str(tmp_path / "c.txt"),
        "--references", str(tmp_path / "r.txt"),
        "--output", str(tmp_path / "scores.jsonl"),
    ])
    assert rc == 0
    out_lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [d["metric"] for d in out_lines] == ["bleu-1", "rouge-l", "meteor"]
    bleu = out_lines[0]
    assert bleu["n_pairs"] == 2
    assert bleu["value"] == pytest.approx((36.787944 + 100.0) / 2, abs=0.01)
    assert len({d["fingerprint"] for d in out_lines}) == 1
    assert (tmp_path / "scores.jsonl").read_text(encoding="utf-8").count("\n") == 3


def test_eval_text_metrics_equal_the_public_functions(tmp_path, capsys):
    reports = [r.report for r in generate_corpus(30, 5, seed=11).records]
    cands, refs = reports, reports[7:] + reports[:7]
    (tmp_path / "c.txt").write_text("\n".join(cands) + "\n", encoding="utf-8")
    (tmp_path / "r.txt").write_text("\n".join(refs) + "\n", encoding="utf-8")
    rc = main([
        "eval", "--metrics", ",".join(TEXT_METRICS),
        "--candidates", str(tmp_path / "c.txt"),
        "--references", str(tmp_path / "r.txt"),
    ])
    assert rc == 0
    got = {d["metric"]: d["value"] for d in map(json.loads, capsys.readouterr().out.splitlines())}
    public = {f"bleu-{n}": lambda c, r, n=n: bleu_n(c, r, n) for n in (1, 2, 3, 4)}
    public.update({"rouge-l": rouge_l, "meteor": meteor_simplified})
    for name in TEXT_METRICS:
        scores = [public[name](c, r) for c, r in zip(cands, refs)]
        assert got[name] == sum(scores) / len(scores), name


@pytest.mark.parametrize("side", ["candidates", "references"])
@pytest.mark.parametrize("line", ["", "... --- !!!"])
def test_eval_empty_or_wordless_line_exits_2(tmp_path, capsys, side, line):
    files = {"candidates": "lungs clear\nheart normal\n", "references": "lungs clear\nheart normal\n"}
    files[side] = f"lungs clear\n{line}\n"
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    rc = main([
        "eval", "--metrics", ",".join(TEXT_METRICS),
        "--candidates", str(tmp_path / "candidates"),
        "--references", str(tmp_path / "references"),
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert side[:-1] in captured.err and "no word tokens" in captured.err


def test_eval_rejects_unknown_metric(tmp_path, capsys):
    for metrics, named in (("wer", "wer"), ("", "--metrics"), (",", "--metrics")):
        rc = main(["eval", "--metrics", metrics])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err


def test_eval_rejects_mismatched_line_counts(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("a\nb\n", encoding="utf-8")
    (tmp_path / "r.txt").write_text("a\n", encoding="utf-8")
    rc = main([
        "eval", "--metrics", "bleu-1",
        "--candidates", str(tmp_path / "c.txt"),
        "--references", str(tmp_path / "r.txt"),
    ])
    assert rc == 2


def test_eval_ssim_over_directories(tmp_path, capsys):
    rng = np.random.default_rng(0)
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
    for name in ("x.pgm", "y.pgm"):
        img = rng.random((16, 16))
        write_pgm(tmp_path / "a" / name, img)
        write_pgm(tmp_path / "b" / name, img)
    rc = main([
        "eval", "--metrics", "ssim",
        "--images-a", str(tmp_path / "a"),
        "--images-b", str(tmp_path / "b"),
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[0])
    assert doc["metric"] == "ssim"
    assert doc["value"] == pytest.approx(100.0, abs=1e-9)
    assert doc["n_pairs"] == 2


def test_eval_ssim_unpaired_directories_exit_2(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    write_pgm(tmp_path / "a" / "only.pgm", np.full((16, 16), 0.5))
    rc = main([
        "eval", "--metrics", "ssim",
        "--images-a", str(tmp_path / "a"),
        "--images-b", str(tmp_path / "b"),
    ])
    assert rc == 2


def test_probe_command_on_split_corpus(corpus_dir, tmp_path, capsys):
    docs = _read_jsonl(corpus_dir / "dataset.jsonl")
    seen: dict[str, int] = {}
    train, eval_set = [], []
    for doc in docs:
        k = seen.get(doc["patient_id"], 0)
        seen[doc["patient_id"]] = k + 1
        (train if k % 2 == 0 else eval_set).append(doc)

    def rewrite(rows, name):
        path = tmp_path / name / "dataset.jsonl"
        path.parent.mkdir()
        with open(path, "w", encoding="utf-8") as fh:
            for doc in rows:
                img = read_pgm(corpus_dir / doc["image"]["path"])
                fh.write(json.dumps({
                    "id": doc["id"],
                    "patient_id": doc["patient_id"],
                    "report": doc["report"],
                    "image": {"pixels": img.tolist(), "h": img.shape[0], "w": img.shape[1]},
                }) + "\n")
        return path

    rc = main([
        "probe",
        "--train", str(rewrite(train, "train")),
        "--eval", str(rewrite(eval_set, "eval")),
        "--encoder-dim", "64",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_classes"] == 3
    assert doc["chance"] == pytest.approx(100.0 / 3)
    assert doc["accuracy"] >= 95.0, "real watermark images are separable"


def test_probe_single_class_exits_2(tmp_path, capsys):
    img = np.full((16, 16), 0.5)
    path = tmp_path / "one.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(2):
            fh.write(json.dumps({
                "id": f"r{i}", "patient_id": "p0", "report": "x",
                "image": {"pixels": img.tolist(), "h": 16, "w": 16},
            }) + "\n")
    rc = main(["probe", "--train", str(path), "--eval", str(path)])
    assert rc == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--encoder-dim", "0"), ("--pool-grid", "0"), ("--encoder-seed", "-1")],
    ids=["--encoder-dim", "--pool-grid", "--encoder-seed"],
)
def test_probe_rejects_sizes_below_one_before_reading(tmp_path, capsys, flag, value):
    missing = tmp_path / "no-such-dataset.jsonl"
    rc = main(["probe", "--train", str(missing), "--eval", str(missing), flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert flag in err and "no-such-dataset" not in err


def test_gradcheck_passes_by_default(capsys):
    rc = main(["gradcheck", "--instances", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "5/5" in out


def test_gradcheck_injected_bug_fails(capsys):
    rc = main(["gradcheck", "--instances", "3", "--inject-bug"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_zero_instances_is_usage_error(capsys):
    rc = main(["gradcheck", "--instances", "0"])
    assert rc == 2


@pytest.mark.parametrize("flag", ["--step", "--tolerance"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_gradcheck_rejects_non_positive_or_non_finite_flags(capsys, flag, value):
    rc = main(["gradcheck", "--instances", "1", flag, value])
    assert rc == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
