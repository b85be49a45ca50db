"""PGM image files, dataset serialization and the config fingerprint."""

from __future__ import annotations

import json

import numpy as np
import pytest

from deidpipe.config import PipelineConfig
from deidpipe.dataio import (
    read_dataset,
    read_pgm,
    write_dataset,
    write_deid_dataset,
    write_pgm,
)
from deidpipe.errors import DatasetError, FormatError
from deidpipe.pipeline import DeidRecord, Record


def test_pgm_round_trip_is_quantization(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((17, 23))
    p = tmp_path / "img.pgm"
    write_pgm(p, img)
    back = read_pgm(p)
    np.testing.assert_array_equal(back, np.rint(img * 255.0) / 255.0)


def test_pgm_round_trip_exact_for_quantized_images(tmp_path):
    rng = np.random.default_rng(1)
    img = np.rint(rng.random((16, 16)) * 255.0) / 255.0
    p = tmp_path / "img.pgm"
    write_pgm(p, img)
    np.testing.assert_array_equal(read_pgm(p), img)


def test_pgm_header_tolerates_comments_and_whitespace(tmp_path):
    p = tmp_path / "img.pgm"
    payload = bytes(range(6))
    p.write_bytes(b"P5\n# a comment\n 3  # widths\n2\n255\n" + payload)
    img = read_pgm(p)
    assert img.shape == (2, 3)
    np.testing.assert_allclose(img.ravel() * 255.0, np.arange(6.0), atol=1e-12)


def test_pgm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(FormatError):
        read_pgm(p)


def test_pgm_rejects_non_255_maxval(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError):
        read_pgm(p)


def test_pgm_rejects_truncated_payload(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(FormatError):
        read_pgm(p)


def _records():
    rng = np.random.default_rng(2)
    return [
        Record(
            id=f"r{i}",
            patient_id=f"p{i % 2}",
            image=np.rint(rng.random((16, 16)) * 255.0) / 255.0,
            report=f"report body {i}",
        )
        for i in range(4)
    ]


def test_dataset_round_trip(tmp_path):
    recs = _records()
    path = tmp_path / "data" / "dataset.jsonl"
    write_dataset(recs, path)
    back = read_dataset(path)
    assert [r.id for r in back] == [r.id for r in recs]
    assert [r.patient_id for r in back] == [r.patient_id for r in recs]
    assert [r.report for r in back] == [r.report for r in recs]
    for a, b in zip(recs, back):
        np.testing.assert_array_equal(a.image, b.image)


def _doc(rid="a", value=0.0):
    return {
        "id": rid,
        "patient_id": "p",
        "report": "x",
        "image": {"pixels": [[value] * 8] * 8, "h": 8, "w": 8},
    }


def test_read_dataset_reports_bad_line_number(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text(json.dumps(_doc()) + "\nnot json\n", encoding="utf-8")
    with pytest.raises(FormatError, match=":2"):
        read_dataset(path)


def test_read_dataset_reports_missing_fields(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text('{"id": "a"}\n', encoding="utf-8")
    with pytest.raises(FormatError, match="missing field"):
        read_dataset(path)


def test_read_dataset_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text(json.dumps(_doc()) + "\n" + json.dumps(_doc()) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="duplicate"):
        read_dataset(path)


@pytest.mark.parametrize("rid", ["../../escaped", "/abs", "a/b", "a\\b", ".hidden", "", "-x", "a b"])
def test_read_dataset_rejects_unsafe_ids(tmp_path, rid):
    path = tmp_path / "dataset.jsonl"
    path.write_text(json.dumps(_doc(rid)) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="record id"):
        read_dataset(path)


def test_read_dataset_checks_pixel_range(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text(json.dumps(_doc(value=2.0)) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="record a"):
        read_dataset(path)


def test_read_dataset_accepts_inline_pixels(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text(json.dumps(_doc(value=0.5)) + "\n", encoding="utf-8")
    recs = read_dataset(path)
    assert len(recs) == 1
    np.testing.assert_array_equal(recs[0].image, np.full((8, 8), 0.5))


@pytest.mark.parametrize("reader", [read_dataset])
@pytest.mark.parametrize("where", ["absolute", "dotdot"])
def test_readers_reject_image_paths_outside_the_dataset(tmp_path, reader, where):
    outside = tmp_path / "outside.pgm"
    write_pgm(outside, np.full((8, 8), 0.5))
    rel = str(outside) if where == "absolute" else "images/../../outside.pgm"
    path = tmp_path / "data" / "dataset.jsonl"
    path.parent.mkdir()
    path.write_text(json.dumps({**_doc(), "image": {"path": rel}}) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="image path"):
        reader(path)


def test_read_dataset_accepts_image_paths_that_stay_inside(tmp_path):
    data = tmp_path / "data"
    write_pgm(data / "images" / "a.pgm", np.full((8, 8), 0.5))
    want = read_pgm(data / "images" / "a.pgm")
    for i, rel in enumerate(["images/../images/a.pgm", str(data / "images" / "a.pgm")]):
        path = data / f"dataset{i}.jsonl"
        path.write_text(json.dumps({**_doc(), "image": {"path": rel}}) + "\n", encoding="utf-8")
        np.testing.assert_array_equal(read_dataset(path)[0].image, want)


@pytest.mark.parametrize(
    "writer,make",
    [
        (write_dataset, lambda rid: Record(rid, "p", np.zeros((8, 8)), "r")),
        (write_deid_dataset, lambda rid: DeidRecord(rid, np.zeros((8, 8)), "r", [4])),
    ],
    ids=["write_dataset", "write_deid_dataset"],
)
def test_writers_check_every_id_before_writing(tmp_path, writer, make):
    path = tmp_path / "d" / "a" / "b" / "dataset.jsonl"
    with pytest.raises(FormatError, match="record id"):
        writer([make("ok"), make("../../escaped")], path)
    assert list(tmp_path.rglob("*")) == [], "nothing may be written, in or outside d/a/b"


def test_deid_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    outs = [
        DeidRecord(
            id=f"r{i}",
            image=np.rint(rng.random((16, 16)) * 255.0) / 255.0,
            report=f"clean report {i}",
            prompt_tokens=[4, 5, 6 + i],
            audit={"removals": [], "optimization": {"rounds": 1}},
        )
        for i in range(3)
    ]
    path = tmp_path / "out" / "dataset.jsonl"
    write_deid_dataset(outs, path)
    docs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [d["id"] for d in docs] == ["r0", "r1", "r2"]
    assert docs[0]["prompt_tokens"] == [4, 5, 6]
    for doc, rec in zip(docs, outs):
        assert doc["report"] == rec.report and doc["audit"] == rec.audit
        np.testing.assert_array_equal(read_pgm(path.parent / doc["image"]["path"]), rec.image)
    first_bytes = path.read_bytes()
    write_deid_dataset(outs, path)
    assert path.read_bytes() == first_bytes, "serialization must be canonical"


def test_config_fingerprint_is_stable_and_sensitive():
    a = PipelineConfig()
    b = PipelineConfig()
    assert a.fingerprint() == b.fingerprint()
    c = PipelineConfig(top_k=21)
    assert a.fingerprint() != c.fingerprint()


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(FormatError, match="mystery"):
        PipelineConfig.from_dict({"mystery": 3})


def test_config_validation_rejects_bad_values():
    for bad in (
        {"learning_rate": -0.5},
        {"learning_rate": float("nan")},
        {"temperature": 0.0},
        {"mode": "other"},
        {"rounds": 0},
        {"source_blend": 1.5},
        {"pair_report": "both"},
        {"init": "zeros"},
        {"steps": True},
        {"rounds": 2.0},
        {"seed": 2**63},
        {"seed": False},
        {"learning_rate": True},
        {"temperature": "1"},
        {"source_blend": None},
    ):
        with pytest.raises(FormatError):
            PipelineConfig.from_dict(bad)


def test_config_accepts_integral_floats_and_the_largest_seed():
    cfg = PipelineConfig(learning_rate=1, seed=2**63 - 1)
    assert (cfg.learning_rate, cfg.seed) == (1, 2**63 - 1)


def test_config_file_round_trip(tmp_path):
    cfg = PipelineConfig(learning_rate=0.1, steps=12, mode="softmax", seed=99)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    again = PipelineConfig.from_file(p)
    assert again == cfg
    assert again.fingerprint() == cfg.fingerprint()
