"""The names the pipeline benchmark wraps or reads must exist in deidpipe.

pipebench/layers.py traces deidpipe by replacing module attributes and
methods by name, and times the *_numpy kernels with the shapes of
benchmarks/bench_kernels.py. A renamed or deleted name fails here, in
about a second, rather than as an incorrect benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _sub in ("src", "benchmarks", "pipebench"):
    if str(ROOT / _sub) not in sys.path:
        sys.path.insert(0, str(ROOT / _sub))

import layers  # noqa: E402
import spans  # noqa: E402

from deidpipe import _kernels  # noqa: E402


def test_every_traced_name_exists():
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        assert tracer.missing == []
    finally:
        tracer.unwrap_all()


def test_kernel_backend_and_microbenchmark_names():
    assert _kernels.backend() == "numpy"
    micro = layers.kernel_micro_ms(loops=1, repeats=1)
    assert set(micro) == {"cosine_scores", "block_mean", "lowpass_block4", "ssim_mean"}
