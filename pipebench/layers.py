"""Where the traced run puts its spans, and the per-layer metrics it derives.

Every span wraps a name that deidpipe looks up at call time (a module
global or a method), so the program's own code is untouched. Kernel byte
counts are computed from array shapes, not measured.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

from deidpipe import _kernels, cli, lexicon, optimizer, pipeline, projection, textkit
from deidpipe.encoders import ReferenceEncoder

from bench_kernels import _best_per_call, _workloads
from spans import Layer, Tracer

KERNELS = ("cosine_scores", "block_mean", "lowpass_block4", "ssim_mean")

# Bytes a kernel must read and write, from its argument shapes (float64).
KERNEL_BYTES = {
    "cosine_scores": lambda q, rows: q.nbytes + rows.nbytes + 8 * rows.shape[0],
    "block_mean": lambda img, gh, gw: img.nbytes + 8 * gh * gw,
    "lowpass_block4": lambda img: 2 * img.nbytes,
    "ssim_mean": lambda x, y, win=8: x.nbytes + y.nbytes + 8,
}


def _written_bytes(args, result) -> float:
    records, path = args[0], Path(args[1])
    return path.stat().st_size + sum(
        (path.parent / "images" / f"{rec.id}.pgm").stat().st_size for rec in records
    )


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary. Each call site reaches exactly one wrapper."""
    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "read_dataset", "dataio.read_dataset")
    w(cli, "write_deid_dataset", "dataio.write_deid_dataset", work_of=_written_bytes)
    for owner in (cli, textkit):
        w(owner, "build_vocab", "textkit.build_vocab")
    for owner in (cli, pipeline):
        w(owner, "build_components", "pipeline.build_components")
        w(owner, "deid_dataset", "pipeline.deid_dataset")
    for owner in (pipeline, lexicon):
        w(owner, "token_id_sets", "lexicon.token_id_sets")
    w(pipeline, "deid_record", "pipeline.deid_record", record_of=lambda a: a[0].id)
    w(pipeline, "tokenize", "textkit.tokenize")
    w(pipeline, "filter_report", "textkit.filter_report")
    w(pipeline, "generate_image", "pipeline.generate_image")
    w(optimizer, "optimize_prompt", "optimizer.optimize_prompt")
    w(optimizer, "alignment_loss", "encoders.loss_grad")
    w(optimizer, "alignment_grad", "encoders.loss_grad")
    w(optimizer, "project_prompt", "projection.project_prompt", work_of=lambda a, r: len(a[0]))
    w(projection, "score_row", "projection.score_row")
    w(ReferenceEncoder, "encode_image", "encoders.encode_image")
    for name in KERNELS:
        w(_kernels, name, f"kernels.{name}", work_of=lambda a, r, f=KERNEL_BYTES[name]: f(*a))
    for name in ("ssim", "bleu_n", "rouge_l", "meteor_simplified", "identity_probe"):
        w(cli, name, f"evalkit.{name}")


# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = [
    ("pipeline.deid_record.ms_p50", "ms", "lower"),
    ("pipeline.deid_record.ms_p95", "ms", "lower"),
    ("pipeline.concurrency", "ratio", "higher"),
    ("pipeline.generate_image.ms_per_record", "ms/record", "lower"),
    ("pipeline.build_components.ms", "ms", "lower"),
    ("textkit.build_vocab.ms", "ms", "lower"),
    ("lexicon.token_id_sets.ms", "ms", "lower"),
    ("textkit.tokenize.ms_per_record", "ms/record", "lower"),
    ("textkit.filter_report.ms_per_record", "ms/record", "lower"),
    ("encoders.loss_grad.calls_per_record", "calls/record", "lower"),
    ("encoders.loss_grad.ms_per_record", "ms/record", "lower"),
    ("optimizer.optimize_prompt.self_ms_per_record", "ms/record", "lower"),
    ("projection.project_prompt.self_ms_per_record", "ms/record", "lower"),
    ("projection.positions_per_record", "positions/record", "lower"),
    ("projection.score_row.calls_per_record", "calls/record", "lower"),
    ("encoders.encode_image.ms_per_call", "ms/call", "lower"),
    ("encoders.encode_image.calls_per_record", "calls/record", "lower"),
]
for _k in KERNELS:
    PER_LAYER += [
        (f"kernels.{_k}.calls_per_record", "calls/record", "lower"),
        (f"kernels.{_k}.ms_per_call", "ms/call", "lower"),
        (f"kernels.{_k}.computed_bytes_per_call", "bytes/call", "lower"),
        (f"kernels.{_k}.micro_ms_per_call", "ms/call", "lower"),
    ]
PER_LAYER += [
    ("dataio.read_dataset.ms_per_record", "ms/record", "lower"),
    ("dataio.write_deid_dataset.ms_per_record", "ms/record", "lower"),
    ("dataio.bytes_written_per_record", "bytes/record", "lower"),
    ("evalkit.ssim.ms_per_pair", "ms/pair", "lower"),
    ("evalkit.bleu_n.ms_per_pair", "ms/pair", "lower"),
    ("evalkit.rouge_l.ms_per_pair", "ms/pair", "lower"),
    ("evalkit.meteor_simplified.ms_per_pair", "ms/pair", "lower"),
    ("evalkit.identity_probe.ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ms_per_call(layer: Layer) -> float:
    return 1e3 * layer.seconds / layer.calls if layer.calls else 0.0


def _median_ms(layer: Layer) -> float:
    return 1e3 * statistics.median(layer.durations) if layer.calls else 0.0


def per_layer_metrics(
    layers: dict[str, Layer], items: int, micro_ms: dict[str, float], overhead: float
) -> dict[str, float]:
    """Per-layer values from span totals; `items` is records (or pairs) traced."""
    get = lambda name: layers.get(name, Layer())  # noqa: E731
    per_item = lambda v: v / items  # noqa: E731
    record = get("pipeline.deid_record")
    dataset = get("pipeline.deid_dataset")
    main = get("cli.main")
    out = {
        "pipeline.deid_record.ms_p50": _median_ms(record),
        "pipeline.deid_record.ms_p95": (
            1e3 * statistics.quantiles(record.durations, n=20)[-1] if record.calls > 1 else 0.0
        ),
        "pipeline.concurrency": record.seconds / dataset.seconds if dataset.calls else 0.0,
        "pipeline.generate_image.ms_per_record": per_item(1e3 * get("pipeline.generate_image").seconds),
        "pipeline.build_components.ms": _median_ms(get("pipeline.build_components")),
        "textkit.build_vocab.ms": _median_ms(get("textkit.build_vocab")),
        "lexicon.token_id_sets.ms": _median_ms(get("lexicon.token_id_sets")),
        "textkit.tokenize.ms_per_record": per_item(1e3 * get("textkit.tokenize").seconds),
        "textkit.filter_report.ms_per_record": per_item(1e3 * get("textkit.filter_report").seconds),
        "encoders.loss_grad.calls_per_record": per_item(get("encoders.loss_grad").calls),
        "encoders.loss_grad.ms_per_record": per_item(1e3 * get("encoders.loss_grad").seconds),
        "optimizer.optimize_prompt.self_ms_per_record": per_item(
            1e3 * get("optimizer.optimize_prompt").self_seconds
        ),
        "projection.project_prompt.self_ms_per_record": per_item(
            1e3 * get("projection.project_prompt").self_seconds
        ),
        "projection.positions_per_record": per_item(get("projection.project_prompt").work),
        "projection.score_row.calls_per_record": per_item(get("projection.score_row").calls),
        "encoders.encode_image.ms_per_call": _ms_per_call(get("encoders.encode_image")),
        "encoders.encode_image.calls_per_record": per_item(get("encoders.encode_image").calls),
    }
    for k in KERNELS:
        layer = get(f"kernels.{k}")
        out[f"kernels.{k}.calls_per_record"] = per_item(layer.calls)
        out[f"kernels.{k}.ms_per_call"] = _ms_per_call(layer)
        out[f"kernels.{k}.computed_bytes_per_call"] = layer.work / layer.calls if layer.calls else 0.0
        out[f"kernels.{k}.micro_ms_per_call"] = micro_ms[k]
    out.update({
        "dataio.read_dataset.ms_per_record": per_item(1e3 * get("dataio.read_dataset").seconds),
        "dataio.write_deid_dataset.ms_per_record": per_item(
            1e3 * get("dataio.write_deid_dataset").seconds
        ),
        "dataio.bytes_written_per_record": per_item(get("dataio.write_deid_dataset").work),
        "evalkit.ssim.ms_per_pair": per_item(1e3 * get("evalkit.ssim").seconds),
        "evalkit.bleu_n.ms_per_pair": per_item(1e3 * get("evalkit.bleu_n").seconds),
        "evalkit.rouge_l.ms_per_pair": per_item(1e3 * get("evalkit.rouge_l").seconds),
        "evalkit.meteor_simplified.ms_per_pair": per_item(
            1e3 * get("evalkit.meteor_simplified").seconds
        ),
        "evalkit.identity_probe.ms": _median_ms(get("evalkit.identity_probe")),
        "cli.self_ms": 1e3 * main.self_seconds / main.calls if main.calls else 0.0,
        "trace.overhead_frac": overhead,
    })
    return out


def kernel_micro_ms(loops: int = 10, repeats: int = 5) -> dict[str, float]:
    """Best ms per call of each numpy kernel on the shapes of benchmarks/bench_kernels.py."""
    return {
        name: 1e3 * _best_per_call(getattr(_kernels, f"{base}_numpy"), args, loops, repeats)
        for name, _, base, args in _workloads(np.random.default_rng(0))
    }
