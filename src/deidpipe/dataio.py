"""On-disk formats: record datasets (jsonl), grayscale images (binary PGM)."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DatasetError, FormatError

if TYPE_CHECKING:
    from .pipeline import DeidRecord, Record

# Record ids name output files (images/<id>.pgm), so they may hold no
# path separator and may not start with a dot.
_RECORD_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _check_record_id(rid: str, where: str) -> None:
    if not _RECORD_ID.fullmatch(rid):
        raise FormatError(f"{where}: record id {rid!r} must match {_RECORD_ID.pattern}")


def write_pgm(path, img: np.ndarray) -> None:
    """Write an 8-bit binary PGM; pixels in [0, 1] quantize to 255 levels."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise FormatError("pgm image must be 2-D")
    if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
        raise FormatError("pgm pixels must be finite and lie in [0, 1]")
    levels = np.rint(arr * 255.0).astype(np.uint8)
    h, w = arr.shape
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(levels.tobytes(order="C"))


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM back to floats in [0, 1] (multiples of 1/255)."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise FormatError(f"{path}: not a binary pgm (P5) file")
    # Header tokens: magic, width, height, maxval; comments start with '#'.
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated pgm header")
        fields.append(raw[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed pgm header") from exc
    if w < 1 or h < 1:
        raise FormatError(f"{path}: pgm sides must be >= 1, found {w}x{h}")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, found {maxval}")
    body = raw[pos : pos + w * h]
    if len(body) != w * h:
        raise FormatError(f"{path}: expected {w * h} pixel bytes, found {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w).astype(np.float64) / 255.0


def _check_numbers(value, where: str) -> None:
    """Every leaf of a nested list must be a JSON number; true and false are not."""
    if isinstance(value, list):
        for item in value:
            _check_numbers(item, where)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}: inline pixel {value!r} is not a number")


def _image_from_field(doc: dict, base_dir: Path, where: str) -> np.ndarray:
    """The record's image, inline or from a PGM path under base_dir (resolved)."""
    image = doc.get("image")
    if not isinstance(image, dict):
        raise FormatError(f"{where}: image must be an object")
    if "path" in image:
        rel = image["path"]
        target = (base_dir / rel).resolve() if isinstance(rel, str) else None
        if target is None or not target.is_relative_to(base_dir):
            raise FormatError(f"{where}: image path {rel!r} must lie under {base_dir}")
        return read_pgm(target)
    if "pixels" in image:
        for side in ("h", "w"):
            value = image.get(side)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise FormatError(f"{where}: inline {side} must be an integer >= 1")
        _check_numbers(image["pixels"], where)
        try:
            arr = np.asarray(image["pixels"], dtype=np.float64).reshape(image["h"], image["w"])
        except (OverflowError, ValueError) as exc:
            raise FormatError(f"{where}: bad inline pixel block: {exc}") from exc
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
            raise DatasetError(f"{where}: pixels out of [0, 1]")
        return arr
    raise FormatError(f"{where}: image needs either path or pixels")


def read_dataset(path) -> "list[Record]":
    """Read one record per jsonl line; image paths resolve next to the file.

    An image path that resolves outside the file's directory, absolute or
    through "..", is a FormatError.
    """
    from .pipeline import Record

    path = Path(path)
    base_dir = path.parent.resolve()
    records: list[Record] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{where}: invalid json: {exc}") from exc
            missing = [k for k in ("id", "patient_id", "report", "image") if k not in doc]
            if missing:
                raise FormatError(f"{where}: missing field(s) {', '.join(missing)}")
            rid = str(doc["id"])
            _check_record_id(rid, where)
            if rid in seen:
                raise DatasetError(f"{where}: duplicate record id {rid!r}")
            seen.add(rid)
            records.append(
                Record(
                    id=rid,
                    patient_id=str(doc["patient_id"]),
                    report=str(doc["report"]),
                    image=_image_from_field(doc, base_dir, f"{where} (record {rid})"),
                )
            )
    return records


def canonical_json(doc) -> str:
    """Sorted keys and no whitespace, so equal documents give equal bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _write_records(records, path, images_dir: str, doc_of) -> None:
    """Write each record's PGM, then its jsonl line doc_of(rec, image field).

    Every id is checked before anything is written, so no id can place a
    file outside the dataset's directory.
    """
    records = list(records)
    path = Path(path)
    for rec in records:
        _check_record_id(rec.id, str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            rel = f"{images_dir}/{rec.id}.pgm"
            write_pgm(path.parent / rel, rec.image)
            fh.write(canonical_json(doc_of(rec, {"path": rel})) + "\n")


def write_dataset(records: "Sequence[Record]", path, images_dir: str = "images") -> None:
    """Write records as jsonl plus one PGM per image under images_dir."""
    _write_records(
        records,
        path,
        images_dir,
        lambda rec, image: {
            "id": rec.id,
            "patient_id": rec.patient_id,
            "report": rec.report,
            "image": image,
        },
    )


def write_deid_dataset(
    records: "Sequence[DeidRecord]", path, images_dir: str = "images"
) -> None:
    """Write de-identified records: report, prompt tokens, audit, PGM image."""
    _write_records(
        records,
        path,
        images_dir,
        lambda rec, image: {
            "id": rec.id,
            "report": rec.report,
            "image": image,
            "prompt_tokens": list(rec.prompt_tokens),
            "audit": rec.audit,
        },
    )

