"""Tests of the benchmark itself: emitted metric names and span arithmetic.

Run from the root of the repository with:

    python3 -m pytest pipebench
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from spans import Span, Tracer, covered, self_times, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    stamp, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(stamp)["pipebench"], json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric(workload):
    plain_stamp, plain = _run(workload, 0)
    traced_stamp, traced = _run(workload, 1)
    for result, spec in ((plain, BENCH["end_to_end"]), (traced, BENCH["per_layer"])):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec
        }
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])
    # One seed gives one output in every process; the traced run's recheck
    # of input 0 already compared traced bytes with untraced ones.
    assert plain_stamp["digest"] == traced_stamp["digest"]


def test_a_traced_name_the_program_lacks_marks_the_run_incorrect(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import layers
    import run

    install = layers.install

    def install_one_more(tracer):
        install(tracer)
        tracer.wrap(layers.pipeline, "renamed_away", "pipeline.renamed_away")

    monkeypatch.setattr(layers, "install", install_one_more)
    argv = ["--workload", "eval-kit", "--seed", "2", "--seconds", "0.5", "--trace", "1"]
    assert run.main(argv) == 0
    stamp, result = capsys.readouterr().out.strip().splitlines()[-2:]
    assert json.loads(stamp)["pipebench"]["missing"] == ["pipeline.renamed_away"]
    assert json.loads(result)["correct"] is False


def test_run_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "pipebench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "pipebench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "eval-kit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        Span(0, "root", 0.0, 10.0, None, "r1"),
        Span(1, "a", 1.0, 4.0, 0, "r1"),
        Span(2, "b", 3.0, 6.0, 0, "r1"),  # overlaps a: the overlap counts once
        Span(3, "c", 2.0, 3.0, 1, "r1"),
        Span(4, "d", 9.0, 12.0, 0, "r1"),  # runs past its parent: clipped at 10
    ]
    assert self_times(tree) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}
    assert covered(0.0, 1.0, []) == 0.0
    layers = summarize(tree)
    assert (layers["root"].calls, layers["root"].seconds, layers["root"].self_seconds) == (
        1, 10.0, 4.0
    )


def test_tracer_nests_per_thread_and_restores_the_original():
    def inner(x):
        return x + 1

    mod = SimpleNamespace(inner=inner)
    mod.outer = lambda rid: mod.inner(1)
    tracer = Tracer()
    tracer.wrap(mod, "outer", "outer", record_of=lambda a: a[0])
    tracer.wrap(mod, "inner", "inner", work_of=lambda a, r: r)
    threads = [threading.Thread(target=mod.outer, args=(f"r{i}",)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    tracer.unwrap_all()
    assert mod.inner is inner
    by_id = {s.id: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 2 and all(s.work == 2 for s in inners)
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.parent is None
        assert s.record == parent.record
    assert {s.record for s in inners} == {"r0", "r1"}
