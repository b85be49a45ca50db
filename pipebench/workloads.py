"""The three benchmark workloads and the checks on their outputs.

Each workload is one closed-loop caller. Call k of a run works on input k,
which `inputs(k)` makes from the workload seed and k alone, so no two
timed calls share an input and a cache keyed on content cannot serve one.
`build(inp)` makes the program set-up calls the benchmark makes itself,
`step(inp)` makes one call into deidpipe and returns its raw result, and
`verify(k, inp, result)` checks that result outside the timed region and
returns the number of items (records or record pairs) the call completed.
`recheck` repeats input 0 once after timing; its output must have the
digest the first call gave. `finish` runs the checks that need the whole
run and returns the quality figures.

Calls the traced run should see go through module attributes
(`pipeline.deid_dataset`, `cli.main`), which the tracer replaces. Calls
that only make inputs or check outputs use names imported directly, which
it does not. The pipeline config seed is the fixed acceptance-6 value.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from deidpipe import cli, lexicon, pipeline, textkit
from deidpipe.config import PipelineConfig
from deidpipe.dataio import read_dataset
from deidpipe.encoders import ReferenceEncoder
from deidpipe.evalkit import identity_probe, rouge_l
from deidpipe.lexicon import load_lexicon_path, token_id_sets
from deidpipe.synth import generate_corpus
from deidpipe.textkit import build_vocab

ACCEPTANCE6 = dict(
    mode="softmax", temperature=1.0, top_k=20, whitelist_bias=0.05, init="raw_report", seed=13
)
EVAL_METRICS = "bleu-1,bleu-2,bleu-3,bleu-4,rouge-l,meteor,ssim"


def input_seed(seed: int, k: int, part: int = 0) -> int:
    """Corpus seed of part `part` of input k; distinct for every (seed, k, part)."""
    return int(np.random.SeedSequence((seed, k, part)).generate_state(1)[0])


@contextlib.contextmanager
def quiet():
    """Capture stdout and stderr; yields the two buffers."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield out, err


def quiet_call(fn, *args, **kwargs):
    """Call fn with stdout and stderr captured; return (result, stdout, stderr)."""
    with quiet() as (out, err):
        result = fn(*args, **kwargs)
    return result, out.getvalue(), err.getvalue()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    return quiet_call(cli.main, argv)


def synth_corpus(out_dir: Path, records: int, patients: int, seed: int) -> None:
    """Write a fresh corpus to out_dir as `deidpipe synth-corpus` does, untraced."""
    shutil.rmtree(out_dir, ignore_errors=True)
    args = SimpleNamespace(
        output=str(out_dir), records=records, patients=patients, seed=seed, image_size=64
    )
    rc, _, err = quiet_call(cli.cmd_synth_corpus, args)
    if rc != 0:
        raise RuntimeError(f"synth-corpus failed: {err}")


def privacy_violations(rows, lex, blacklist_ids: set[int]) -> list[str]:
    """Ids of (id, report, prompt_tokens) rows that leak a blacklisted surface or id."""
    bad = []
    for rid, report, tokens in rows:
        if any(m.kind == "blacklist" for m in lexicon.match_terms(report, lex)):
            bad.append(rid)
        elif blacklist_ids.intersection(tokens):
            bad.append(rid)
    return bad


def split_by_patient(pairs):
    """The acceptance-6 split: each patient's records alternate train, eval."""
    seen: dict[str, int] = {}
    train, eval_set = [], []
    for img, pid in pairs:
        k = seen.get(pid, 0)
        seen[pid] = k + 1
        (train if k % 2 == 0 else eval_set).append((img, pid))
    return train, eval_set


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode("utf-8") + b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Workload:
    """Shared bookkeeping: attempted and failed items, determinism by digest."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.problems: list[str] = []

    def build(self, inp) -> None:
        """Program set-up the benchmark makes itself, printing nothing; none by default."""

    def check_digest(self, k: int, digest: str) -> bool:
        """Remember input 0's output digest; False if the recheck's differs."""
        if k != 0:
            return True
        if self.digest is None:
            self.digest = digest
            return True
        if digest != self.digest:
            self.problems.append("output digest of input 0 changed when it was run again")
            return False
        return True

    def recheck(self) -> None:
        """Run input 0 again; verify compares its digest with the first one."""
        inp = self.inputs(0)
        self.build(inp)
        self.verify(0, inp, self.step(inp))


class CohortSoftmax(Workload):
    """In-process deid_dataset on a 200-record, 50-patient corpus of 64x64 images.

    The acceptance-6 config with source_blend=0 and workers=1. Every call
    de-identifies a whole corpus, as the reference run does: the
    per-record random streams derive from the index within the call, so
    calls on chunks whose boundaries align with patients would hand every
    record of a patient the same stream and leak identity.
    """

    unit = "records"
    records = 200
    patients = 50

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.cfg = PipelineConfig(**ACCEPTANCE6)
        self.outputs: list = []

    def inputs(self, k: int):
        corpus = generate_corpus(self.records, self.patients, seed=input_seed(self.seed, k))
        return SimpleNamespace(corpus=corpus)

    def build(self, inp) -> None:
        with quiet():
            inp.vocab = textkit.build_vocab([r.report for r in inp.corpus.records])
            inp.blacklist_ids, _ = lexicon.token_id_sets(inp.corpus.lexicon, inp.vocab)
            inp.table, inp.enc, inp.gen = pipeline.build_components(self.cfg, inp.vocab)

    def step(self, inp):
        failures: list = []
        out = quiet_call(
            pipeline.deid_dataset, inp.corpus.records, self.cfg, inp.corpus.lexicon,
            inp.vocab, inp.table, inp.enc, inp.gen, workers=1, failures=failures,
        )[0]
        return out, failures

    def verify(self, k: int, inp, result) -> int:
        out, failures = result
        self.attempted += self.records
        bad = set(rid for rid, _ in failures)
        bad.update(
            privacy_violations(
                ((d.id, d.report, d.prompt_tokens) for d in out),
                inp.corpus.lexicon,
                inp.blacklist_ids,
            )
        )
        h = hashlib.sha256()
        for d in out:
            doc = {"id": d.id, "report": d.report, "tokens": d.prompt_tokens, "audit": d.audit}
            h.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
            h.update(np.ascontiguousarray(d.image, dtype=np.float64).tobytes())
        if not self.check_digest(k, h.hexdigest()):
            bad.update(d.id for d in out)
        self.failed += len(bad)
        if k == 0:
            self.outputs, self.source = out, inp.corpus.records
        return len(out)

    def finish(self) -> dict:
        source = {r.id: r for r in self.source}
        probe_enc = ReferenceEncoder.from_seed(dim=64, pool_grid=8, seed=11)
        train, eval_set = split_by_patient(
            [(d.image, source[d.id].patient_id) for d in self.outputs]
        )
        leak = identity_probe(train, eval_set, probe_enc)
        chance = 100.0 / leak.n_classes
        if leak.accuracy > chance + 10.0:
            self.problems.append(f"identity probe {leak.accuracy:.2f}% exceeds chance + 10")
        return {
            "leak_acc_pct": leak.accuracy,
            "leak_chance_pct": chance,
            "utility_rouge_l_pct": float(
                np.mean([rouge_l(d.report, source[d.id].report) for d in self.outputs])
            ),
            "final_loss_mean": float(
                np.mean([d.audit["optimization"]["final_loss"] for d in self.outputs])
            ),
        }


class CliAuditBlend(Workload):
    """`deidpipe deid` through cli.main on a 100-record corpus written to disk.

    mode=greedy, source_blend=0.5, --workers 2 and --verbose-audit. Each
    input is written to the same corpus directory, and each call writes a
    fresh output directory.
    """

    unit = "records"
    records = 100
    patients = 10

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.corpus = workdir / "corpus"
        self.out = workdir / "out"
        config = workdir / "config.json"
        config.write_text(json.dumps({**ACCEPTANCE6, "mode": "greedy", "source_blend": 0.5}))
        self.argv = [
            "deid", "--input", str(self.corpus / "dataset.jsonl"),
            "--lexicon", str(self.corpus / "lexicon.json"), "--output", str(self.out),
            "--config", str(config), "--workers", "2", "--verbose-audit",
        ]
        self.first_rows: list[dict] = []

    def inputs(self, k: int):
        synth_corpus(self.corpus, self.records, self.patients, input_seed(self.seed, k))
        shutil.rmtree(self.out, ignore_errors=True)
        lex = load_lexicon_path(self.corpus / "lexicon.json")
        source = read_dataset(self.corpus / "dataset.jsonl")
        vocab = build_vocab([r.report for r in source])
        return SimpleNamespace(
            lex=lex,
            blacklist_ids=quiet_call(token_id_sets, lex, vocab)[0][0],
            source_reports={r.id: r.report for r in source},
        )

    def step(self, inp):
        return run_cli(self.argv)

    def verify(self, k: int, inp, result) -> int:
        rc, _, err = result
        self.attempted += self.records
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        dataset = self.out / "dataset.jsonl"
        rows = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
        images = [self.out / row["image"]["path"] for row in rows]
        failed = manifest["n_failed"]
        if rc != 0 or len(rows) != manifest["n_ok"]:
            self.problems.append(f"deid exited {rc}: {err.strip()[-200:]}")
            failed = self.records
        failed += len(
            privacy_violations(
                ((r["id"], r["report"], r["prompt_tokens"]) for r in rows),
                inp.lex, inp.blacklist_ids,
            )
        )
        if not self.check_digest(k, digest_files([dataset, *images])):
            failed = self.records
        self.failed += min(failed, self.records)
        if k == 0:
            self.first_rows, self.source_reports = rows, inp.source_reports
        return manifest["n_ok"]

    def finish(self) -> dict:
        rows = self.first_rows
        return {
            "utility_rouge_l_pct": float(
                np.mean([rouge_l(r["report"], self.source_reports[r["id"]]) for r in rows])
            ),
            "final_loss_mean": float(
                np.mean([r["audit"]["optimization"]["final_loss"] for r in rows])
            ),
        }


class EvalKit(Workload):
    """`deidpipe eval` (all seven metrics) plus `deidpipe probe` through cli.main.

    Input k pairs record i of one 100-record corpus with record i of a
    second corpus drawn from another seed; no pipeline stage runs.
    """

    unit = "pairs"
    records = 100
    patients = 10

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        a, b = self.dirs = workdir / "a", workdir / "b"
        self.eval_argv = [
            "eval", "--metrics", EVAL_METRICS,
            "--candidates", str(a / "reports.txt"), "--references", str(b / "reports.txt"),
            "--images-a", str(a / "images"), "--images-b", str(b / "images"),
        ]
        self.probe_argv = [
            "probe", "--train", str(a / "dataset.jsonl"), "--eval", str(b / "dataset.jsonl"),
        ]
        self.scores: dict[str, float] = {}

    def inputs(self, k: int):
        for part, d in enumerate(self.dirs):
            synth_corpus(d, self.records, self.patients, input_seed(self.seed, k, part))
            lines = (d / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
            reports = [json.loads(line)["report"] for line in lines]
            (d / "reports.txt").write_text("\n".join(reports) + "\n", encoding="utf-8")
        return None

    def step(self, inp):
        return run_cli(self.eval_argv), run_cli(self.probe_argv)

    def verify(self, k: int, inp, result) -> int:
        (rc_e, out_e, err_e), (rc_p, out_p, err_p) = result
        self.attempted += self.records
        ok = rc_e == 0 and rc_p == 0
        if ok:
            lines = [json.loads(line) for line in out_e.splitlines()]
            probe = json.loads(out_p)
            scores = {line["metric"]: line["value"] for line in lines}
            ok = (
                sorted(scores) == sorted(EVAL_METRICS.split(","))
                and all(line["n_pairs"] == self.records for line in lines)
                and all(math.isfinite(v) and -100.0 <= v <= 100.0 for v in scores.values())
                and probe["n_eval"] == self.records
                and probe["accuracy"] >= 95.0
            )
            scores["probe_accuracy"] = probe["accuracy"]
            if k == 0:
                self.scores = scores
        if not ok:
            self.problems.append(f"eval/probe output failed its checks: {(err_e + err_p)[-200:]}")
        ok = self.check_digest(k, hashlib.sha256((out_e + out_p).encode()).hexdigest()) and ok
        if not ok:
            self.failed += self.records
        return self.records

    def finish(self) -> dict:
        return {f"{k}_pct": v for k, v in self.scores.items()}


WORKLOADS = {
    "cohort-softmax": CohortSoftmax,
    "cli-audit-blend": CliAuditBlend,
    "eval-kit": EvalKit,
}
