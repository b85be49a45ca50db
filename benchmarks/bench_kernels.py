"""Benchmark the numpy kernels on representative workloads.

Prints the best per-call time of each hot kernel over a few repeats.

Usage:
    python3 benchmarks/bench_kernels.py [--repeats N] [--loops N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from deidpipe import _kernels


def _best_per_call(fn, args, loops: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / loops)
    return best


def _workloads(rng: np.random.Generator) -> list[tuple[str, str, str, tuple]]:
    table = rng.standard_normal((5000, 64))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    q = rng.standard_normal(64)
    q /= np.linalg.norm(q)
    img = rng.random((256, 256))
    x = rng.random((128, 128))
    y = np.clip(x + 0.05 * rng.standard_normal(x.shape), 0.0, 1.0)
    return [
        ("cosine_scores", "5000x64 table", "cosine_scores", (q, table)),
        ("block_mean", "256x256 -> 8x8", "block_mean", (img, 8, 8)),
        ("lowpass_block4", "256x256", "lowpass_block4", (img,)),
        ("ssim_mean", "128x128, win 8", "ssim_mean", (x, y, 8)),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats, best wins")
    parser.add_argument("--loops", type=int, default=20, help="calls per repeat")
    args = parser.parse_args()

    header = f"{'kernel':<16} {'workload':<16} {'ms/call':>10}"
    print(header)
    print("-" * len(header))
    for name, workload, base, call_args in _workloads(np.random.default_rng(0)):
        fn = getattr(_kernels, base + "_numpy")
        t = _best_per_call(fn, call_args, args.loops, args.repeats)
        print(f"{name:<16} {workload:<16} {1e3 * t:10.4f}")


if __name__ == "__main__":
    main()
