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
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, found {maxval}")
    body = raw[pos : pos + w * h]
    if len(body) != w * h:
        raise FormatError(f"{path}: expected {w * h} pixel bytes, found {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w).astype(np.float64) / 255.0


def _image_from_field(doc: dict, base_dir: Path, where: str) -> np.ndarray:
    image = doc.get("image")
    if not isinstance(image, dict):
        raise FormatError(f"{where}: image must be an object")
    if "path" in image:
        return read_pgm(base_dir / image["path"])
    if "pixels" in image:
        try:
            h, w = int(image["h"]), int(image["w"])
            arr = np.asarray(image["pixels"], dtype=np.float64).reshape(h, w)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{where}: bad inline pixel block: {exc}") from exc
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
            raise DatasetError(f"{where}: pixels out of [0, 1]")
        return arr
    raise FormatError(f"{where}: image needs either path or pixels")


def read_dataset(path) -> "list[Record]":
    """Read one record per jsonl line; image paths resolve next to the file."""
    from .pipeline import Record

    path = Path(path)
    base_dir = path.parent
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
            if not _RECORD_ID.fullmatch(rid):
                raise FormatError(
                    f"{where}: record id {rid!r} must match {_RECORD_ID.pattern}"
                )
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


def _canon(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_dataset(records: "Sequence[Record]", path, images_dir: str = "images") -> None:
    """Write records as jsonl plus one PGM per image under images_dir."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            rel = f"{images_dir}/{rec.id}.pgm"
            write_pgm(path.parent / rel, rec.image)
            fh.write(
                _canon(
                    {
                        "id": rec.id,
                        "patient_id": rec.patient_id,
                        "report": rec.report,
                        "image": {"path": rel},
                    }
                )
                + "\n"
            )


def write_deid_dataset(
    records: "Sequence[DeidRecord]", path, images_dir: str = "images"
) -> None:
    """Write de-identified records: report, prompt tokens, audit, PGM image."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            rel = f"{images_dir}/{rec.id}.pgm"
            write_pgm(path.parent / rel, rec.image)
            fh.write(
                _canon(
                    {
                        "id": rec.id,
                        "report": rec.report,
                        "image": {"path": rel},
                        "prompt_tokens": list(rec.prompt_tokens),
                        "audit": rec.audit,
                    }
                )
                + "\n"
            )


def read_deid_dataset(path) -> list[dict]:
    """Read a de-identified dataset back as dicts with loaded images."""
    path = Path(path)
    out: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: invalid json: {exc}") from exc
            doc["image"] = read_pgm(path.parent / doc["image"]["path"])
            out.append(doc)
    return out
