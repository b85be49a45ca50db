"""Run configuration and its stable fingerprint."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from numbers import Real
from pathlib import Path

from .dataio import canonical_json
from .errors import FormatError

MODES = ("greedy", "softmax")
PAIR_REPORT_CHOICES = ("original", "filtered")
INIT_CHOICES = ("raw_report", "random")
_INT_FIELDS = ("steps", "top_k", "max_prompt_len", "rounds", "seed")
_REAL_FIELDS = ("learning_rate", "whitelist_bias", "temperature", "source_blend")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of a de-identification run; field names mirror the config file."""

    learning_rate: float = 0.05   # gradient step size
    steps: int = 50               # gradient steps per round
    top_k: int = 20               # candidates kept per position
    whitelist_bias: float = 0.05  # additive score bonus for whitelist tokens
    temperature: float = 1.0      # softmax temperature
    mode: str = "greedy"          # "greedy" or "softmax" token selection
    seed: int = 0                 # master seed for every derived stream
    max_prompt_len: int = 64      # tokenized report truncation length
    rounds: int = 1               # optimize/project/re-embed cycles
    source_blend: float = 0.0     # weight of the low-passed source image
    pair_report: str = "filtered" # report paired with the output image
    init: str = "raw_report"      # prompt initialization

    def __post_init__(self):
        # bool is an int subclass, and True is no step count or seed.
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise FormatError(f"{name} must be an integer")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise FormatError(f"{name} must be a number")
        if not 0 <= self.seed < 2**63:
            raise FormatError("seed must lie in [0, 2**63)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise FormatError("learning_rate must be a finite value >= 0")
        if self.steps < 0:
            raise FormatError("steps must be >= 0")
        if self.top_k < 1:
            raise FormatError("top_k must be >= 1")
        if not (math.isfinite(self.whitelist_bias) and self.whitelist_bias >= 0.0):
            raise FormatError("whitelist_bias must be >= 0")
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise FormatError("temperature must be > 0")
        if self.mode not in MODES:
            raise FormatError(f"mode must be one of {MODES}")
        if self.max_prompt_len < 1:
            raise FormatError("max_prompt_len must be >= 1")
        if self.rounds < 1:
            raise FormatError("rounds must be >= 1")
        if not 0.0 <= self.source_blend <= 1.0:
            raise FormatError("source_blend must lie in [0, 1]")
        if self.pair_report not in PAIR_REPORT_CHOICES:
            raise FormatError(f"pair_report must be one of {PAIR_REPORT_CHOICES}")
        if self.init not in INIT_CHOICES:
            raise FormatError(f"init must be one of {INIT_CHOICES}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise FormatError(f"unknown config field(s): {', '.join(unknown)}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise FormatError(f"invalid config: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid config json: {exc}") from exc
        if not isinstance(doc, dict):
            raise FormatError(f"{path}: config must be a json object")
        return cls.from_dict(doc)

    def fingerprint(self) -> str:
        """sha256 over the canonical field encoding; key order never matters."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8")).hexdigest()
