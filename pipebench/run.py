"""Pipeline benchmark for deidpipe: throughput on seeded synthetic workloads.

Usage, from the root of a checkout:

    python3 pipebench/run.py --workload cohort-softmax --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each exists):

    cohort-softmax   in-process deid_dataset, acceptance-6 config, workers=1
    cli-audit-blend  `deidpipe deid` via cli.main: greedy, source_blend 0.5,
                     --workers 2, --verbose-audit
    eval-kit         `deidpipe eval` (seven metrics) and `deidpipe probe` via cli.main

Each run is one process and one closed-loop caller. It imports deidpipe
from src/ of the checkout, then calls the program until the calls have
taken --seconds in total. Call k works on a fresh input generated from
--seed and k. Set-up time is the median time IMPORT_PROBES fresh
interpreters take to import deidpipe, probed before any workload work so
that every workload probes from the same state, plus the median time the
builds of the untraced calls' inputs took.
Outputs are checked outside the timed region: failed records, the
privacy invariant and byte determinism (input 0, run again after timing,
must give the same digest) count against `correct` and `failed`.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 the run spends half of --seconds untraced and half traced, and
the last line holds the per-layer metrics; spans are written to
.bench_build/pipebench/. The line before the last stamps the environment,
the output digest and the quality figures of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "pipebench"
IMPORT_PROBES = 10
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import deidpipe.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import deidpipe in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "deidpipe").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git working tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    from deidpipe import _kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": _kernels.backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


@dataclass
class Calls:
    """What `measure` saw: items done, call seconds and build seconds."""

    items: int = 0
    busy: float = 0.0
    rates: list[float] = field(default_factory=list)
    builds: list[float] = field(default_factory=list)


def measure(wl, seconds: float, k: int) -> tuple[Calls, int]:
    """Call the workload on inputs k, k+1, ... until the calls total `seconds`.

    Making each input is not timed; building it is timed as set-up.
    Returns what was seen and the next unused input.
    """
    c = Calls()
    while c.busy < seconds:
        inp = wl.inputs(k)
        t0 = time.perf_counter()
        wl.build(inp)
        c.builds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        result = wl.step(inp)
        dt = time.perf_counter() - t0
        c.busy += dt
        n = wl.verify(k, inp, result)
        c.items += n
        c.rates.append(n / dt)
        k += 1
    return c, k


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deidpipe" / "__init__.py").is_file():
        print(f"pipebench: no deidpipe package under {SRC}", file=sys.stderr)
        return 2
    # benchmarks/ holds the kernel microbenchmark whose shapes layers.py reuses.
    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks")]
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"pipebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        imports = [import_seconds() for _ in range(IMPORT_PROBES)]
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        plain, k = measure(wl, untraced_s, 0)
        setup_s = statistics.median(imports) + statistics.median(plain.builds)
        info = {
            "untraced_calls": len(plain.rates),
            "untraced_call_rate_quartiles": quartiles(plain.rates),
            "import_quartiles": quartiles(imports),
        }
        if args.trace:
            tracer = spans.Tracer()
            layers.install(tracer)
            try:
                traced, _ = measure(wl, args.seconds / 2, k)
                timed_spans = len(tracer.spans)
                # Traced, so the digest check also shows tracing leaves the bytes alone.
                wl.recheck()
            finally:
                tracer.unwrap_all()
            wl.problems += [f"traced name missing from deidpipe: {n}" for n in tracer.missing]
            tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
            overhead = 1.0 - (traced.items / traced.busy) / (plain.items / plain.busy)
            values = layers.per_layer_metrics(
                spans.summarize(tracer.spans[:timed_spans]), traced.items,
                layers.kernel_micro_ms(), overhead,
            )
            metrics = {n: {"value": v, "unit": layers.UNITS[n]} for n, v in values.items()}
            info.update(traced_calls=len(traced.rates), spans=timed_spans, missing=tracer.missing)
        else:
            wl.recheck()
            metrics = {
                "records_per_s": {"value": plain.items / plain.busy, "unit": "records/s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        quality = wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = {
        "workload": args.workload,
        "items": wl.unit,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "setup_s": setup_s,
        "digest": wl.digest,
        "quality": quality,
        "problems": wl.problems,
        **info,
    }
    print(json.dumps({"pipebench": stamp}, sort_keys=True))
    result = {
        "correct": not wl.problems and wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
