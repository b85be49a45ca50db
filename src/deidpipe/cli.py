"""Command line entry point.

Subcommands: deid, filter-reports, eval, probe, synth-corpus, gradcheck.
Exit codes: 0 success, 1 partial per-record failures, 2 usage/config/IO
errors. All randomness flows from --seed, so reruns are byte-identical
except for the manifest timing block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .dataio import canonical_json, read_dataset, read_pgm, write_dataset, write_deid_dataset
from .encoders import ReferenceEncoder, max_relative_grad_error
from .errors import DeidError
from .evalkit import (
    BLEU_EPSILON,
    ROUGE_BETA,
    SSIM_WINDOW,
    TEXT_METRICS,
    identity_probe,
    ssim,
    text_scores,
)

# Not called here since eval scores each pair with text_scores; the
# pipeline benchmark (pipebench/layers.py) still wraps these cli names.
from .evalkit import bleu_n, meteor_simplified, rouge_l  # noqa: F401
from .lexicon import load_lexicon_path
from .pipeline import build_components, deid_dataset
from .synth import generate_corpus
from .textkit import build_vocab, filter_report, random_prompt

ALL_METRICS = TEXT_METRICS + ("ssim",)


def _fingerprint(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg = PipelineConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    return cfg


def cmd_deid(args) -> int:
    if args.print_defaults:
        print(json.dumps(PipelineConfig().to_dict(), indent=2, sort_keys=True))
        return 0
    if not args.input or not args.lexicon or not args.output:
        print("deid requires --input, --lexicon and --output", file=sys.stderr)
        return 2
    cfg = _load_config(args)
    lex = load_lexicon_path(args.lexicon)
    records = read_dataset(args.input)
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    vocab = build_vocab([r.report for r in records]) if records else None
    outputs = []
    failures: list[tuple[str, str]] = []
    if records:
        table, enc, gen = build_components(cfg, vocab)
        outputs = deid_dataset(
            records,
            cfg,
            lex,
            vocab,
            table,
            enc,
            gen,
            workers=args.workers,
            failures=failures,
            verbose_audit=args.verbose_audit,
        )
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_deid_dataset(outputs, out_dir / "dataset.jsonl")
    manifest = {
        "fingerprint": cfg.fingerprint(),
        "config": cfg.to_dict(),
        "input": str(args.input),
        "output": str(args.output),
        "n_records": len(records),
        "n_ok": len(outputs),
        "n_failed": len(failures),
        "failures": [{"id": rid, "error": msg} for rid, msg in failures],
        "timing": {"started": started, "elapsed_seconds": time.perf_counter() - t0},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if outputs:
        losses = [r.audit["optimization"] for r in outputs]
        mean_initial = sum(o["initial_loss"] for o in losses) / len(losses)
        mean_final = sum(o["final_loss"] for o in losses) / len(losses)
        print(
            f"deid: {len(outputs)}/{len(records)} records ok, "
            f"mean loss {mean_initial:.4f} -> {mean_final:.4f}, "
            f"fingerprint {cfg.fingerprint()[:12]}"
        )
    else:
        print(f"deid: 0/{len(records)} records ok")
    for rid, msg in failures:
        print(f"deid: failed {rid}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def cmd_filter_reports(args) -> int:
    lex = load_lexicon_path(args.lexicon)
    in_path = Path(args.input)
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    audit_path = out_path.with_suffix(out_path.suffix + ".audit.jsonl")
    n = 0
    with open(in_path, "r", encoding="utf-8") as src, open(
        out_path, "w", encoding="utf-8"
    ) as dst, open(audit_path, "w", encoding="utf-8") as audit:
        for lineno, line in enumerate(src, start=1):
            text = line.rstrip("\n")
            filtered, removals = filter_report(text, lex)
            dst.write(filtered + "\n")
            doc = {"line": lineno, "removals": [r.to_dict() for r in removals]}
            audit.write(canonical_json(doc) + "\n")
            n += 1
    print(f"filter-reports: {n} line(s) -> {out_path}")
    return 0


def _read_lines(path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def cmd_eval(args) -> int:
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        print(f"eval: --metrics is empty; choose from {', '.join(ALL_METRICS)}", file=sys.stderr)
        return 2
    unknown = sorted(set(metrics) - set(ALL_METRICS))
    if unknown:
        print(f"eval: unknown metric(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    text_metrics = [m for m in metrics if m in TEXT_METRICS]
    want_ssim = "ssim" in metrics
    fingerprint = _fingerprint(
        {
            "metrics": sorted(metrics),
            "bleu_epsilon": BLEU_EPSILON,
            "rouge_beta": ROUGE_BETA,
            "ssim_window": SSIM_WINDOW,
        }
    )
    lines = []
    if text_metrics:
        if not args.candidates or not args.references:
            print("eval: text metrics need --candidates and --references", file=sys.stderr)
            return 2
        cands = _read_lines(args.candidates)
        refs = _read_lines(args.references)
        if len(cands) != len(refs):
            print(
                f"eval: {len(cands)} candidate line(s) vs {len(refs)} reference line(s)",
                file=sys.stderr,
            )
            return 2
        if not cands:
            print("eval: empty candidate file", file=sys.stderr)
            return 2
        rows = [text_scores(c, r, text_metrics) for c, r in zip(cands, refs)]
        for name, scores in zip(text_metrics, zip(*rows)):
            lines.append(
                {
                    "metric": name,
                    "value": sum(scores) / len(scores),
                    "n_pairs": len(scores),
                    "fingerprint": fingerprint,
                }
            )
    if want_ssim:
        if not args.images_a or not args.images_b:
            print("eval: ssim needs --images-a and --images-b", file=sys.stderr)
            return 2
        dir_a, dir_b = Path(args.images_a), Path(args.images_b)
        names_a = sorted(p.name for p in dir_a.glob("*.pgm"))
        names_b = sorted(p.name for p in dir_b.glob("*.pgm"))
        if names_a != names_b:
            print("eval: image directories do not pair up by filename", file=sys.stderr)
            return 2
        if not names_a:
            print("eval: no .pgm files to pair", file=sys.stderr)
            return 2
        scores = [
            ssim(read_pgm(dir_a / name), read_pgm(dir_b / name)) for name in names_a
        ]
        lines.append(
            {
                "metric": "ssim",
                "value": sum(scores) / len(scores),
                "n_pairs": len(scores),
                "fingerprint": fingerprint,
            }
        )
    payload = "\n".join(canonical_json(line) for line in lines) + "\n"
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(payload, encoding="utf-8")
    sys.stdout.write(payload)
    return 0


def cmd_probe(args) -> int:
    for flag, value, low in (
        ("--encoder-dim", args.encoder_dim, 1),
        ("--pool-grid", args.pool_grid, 1),
        ("--encoder-seed", args.encoder_seed, 0),
    ):
        if value < low:
            print(f"probe: {flag} must be >= {low}, got {value}", file=sys.stderr)
            return 2
    train = read_dataset(args.train)
    eval_set = read_dataset(args.eval)
    enc = ReferenceEncoder.from_seed(
        dim=args.encoder_dim, pool_grid=args.pool_grid, seed=args.encoder_seed
    )
    result = identity_probe(
        [(r.image, r.patient_id) for r in train],
        [(r.image, r.patient_id) for r in eval_set],
        enc,
    )
    doc = result.to_dict()
    doc["chance"] = 100.0 / result.n_classes
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_synth_corpus(args) -> int:
    corpus = generate_corpus(
        n_records=args.records,
        n_patients=args.patients,
        seed=args.seed if args.seed is not None else 0,
        image_size=args.image_size,
    )
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset(corpus.records, out_dir / "dataset.jsonl")
    blacklist = [
        {"term": t.surface, "category": t.category} for t in corpus.lexicon.blacklist
    ]
    whitelist = [
        {"term": t.surface, "category": t.category} for t in corpus.lexicon.whitelist
    ]
    (out_dir / "lexicon.json").write_text(
        json.dumps({"blacklist": blacklist, "whitelist": whitelist}, indent=2) + "\n",
        encoding="utf-8",
    )
    with open(out_dir / "ground_truth.jsonl", "w", encoding="utf-8") as fh:
        for rec in corpus.records:
            fh.write(canonical_json({"id": rec.id, "terms": corpus.ground_truth[rec.id]}) + "\n")
    print(
        f"synth-corpus: {len(corpus.records)} record(s), "
        f"{len(corpus.patients)} patient(s) -> {out_dir}"
    )
    return 0


def cmd_gradcheck(args) -> int:
    if args.instances < 1:
        print("gradcheck: --instances must be >= 1", file=sys.stderr)
        return 2
    for flag, value in (("--step", args.step), ("--tolerance", args.tolerance)):
        if not (math.isfinite(value) and value > 0):
            print(f"gradcheck: {flag} must be finite and > 0, got {value}", file=sys.stderr)
            return 2
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    worst = 0.0
    failed = 0
    for _ in range(args.instances):
        enc = ReferenceEncoder.from_seed(
            dim=args.dim, pool_grid=8, seed=int(rng.integers(2**31))
        )
        prompt = random_prompt(args.prompt_len, args.dim, seed=int(rng.integers(2**31)))
        f_img = np.random.default_rng(int(rng.integers(2**31))).standard_normal(args.dim)
        err = max_relative_grad_error(prompt, f_img, enc, step=args.step)
        if args.inject_bug:
            err += 1e-3  # deliberately break the comparison to prove it can fail
        worst = max(worst, err)
        failed += err >= args.tolerance
    status = "PASS" if failed == 0 else "FAIL"
    print(
        f"gradcheck: {status} {args.instances - failed}/{args.instances} instances, "
        f"max relative error {worst:.3e} (tolerance {args.tolerance:.1e})"
    )
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deidpipe",
        description="Utility-preserving de-identification of paired image/report data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deid", help="de-identify a paired dataset")
    p.add_argument("--config", help="json run configuration")
    p.add_argument("--lexicon", help="lexicon file (json or plain)")
    p.add_argument("--input", help="input dataset jsonl")
    p.add_argument("--output", help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument(
        "--workers", type=int, default=1, help="accepted for existing scripts; has no effect"
    )
    p.add_argument("--verbose-audit", action="store_true", help="per-position candidate dumps")
    p.add_argument("--print-defaults", action="store_true", help="print default config and exit")
    p.set_defaults(func=cmd_deid)

    p = sub.add_parser("filter-reports", help="text-only blacklist filtering")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--input", required=True, help="one report per line")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_filter_reports)

    p = sub.add_parser("eval", help="compute metrics over paired files")
    p.add_argument("--metrics", default=",".join(TEXT_METRICS))
    p.add_argument("--candidates", help="candidate text, one per line")
    p.add_argument("--references", help="reference text, one per line")
    p.add_argument("--images-a", help="directory of candidate .pgm images")
    p.add_argument("--images-b", help="directory of reference .pgm images")
    p.add_argument("--output", help="write report lines here as well as stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="nearest-centroid identity probe")
    p.add_argument("--train", required=True, help="training dataset jsonl")
    p.add_argument("--eval", required=True, help="evaluation dataset jsonl")
    p.add_argument("--encoder-dim", type=int, default=64)
    p.add_argument("--pool-grid", type=int, default=8)
    p.add_argument("--encoder-seed", type=int, default=0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("synth-corpus", help="generate the watermark cohort")
    p.add_argument("--output", required=True)
    p.add_argument("--records", type=int, default=100)
    p.add_argument("--patients", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", type=int, default=64)
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("gradcheck", help="verify the analytic gradient")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--prompt-len", type=int, default=8)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-bug", action="store_true", help="prove the check can fail")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DeidError as exc:
        print(f"deidpipe: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"deidpipe: io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
