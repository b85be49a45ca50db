"""Vocabulary, token embeddings and report-level text handling."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DeidError
from .lexicon import Lexicon, match_terms
from .words import words

RESERVED = ("[PAD]", "[UNK]", "[BOS]", "[EOS]")
PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3

DEID_PLACEHOLDER = "[DEID]"

DEFAULT_MAX_PROMPT_LEN = 64


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token surfaces; ids 0..3 are the reserved tokens."""

    surfaces: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if tuple(self.surfaces[: len(RESERVED)]) != RESERVED:
            raise DeidError("vocabulary must start with the reserved tokens")
        if len(set(self.surfaces)) != len(self.surfaces):
            raise DeidError("vocabulary surfaces must be unique")
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.surfaces)}
        )

    def __len__(self) -> int:
        return len(self.surfaces)

    def id_of(self, word: str) -> int | None:
        return self._index.get(word)

    def surface(self, token_id: int) -> str:
        return self.surfaces[token_id]


def build_vocab(corpus: Sequence[str], min_count: int = 1) -> Vocabulary:
    """Reserved tokens plus every corpus word with frequency >= min_count.

    Corpus words sort lexicographically after the reserved block, so the
    id assignment is a pure function of the corpus content.
    """
    if min_count < 1:
        raise DeidError("min_count must be >= 1")
    if len(corpus) == 0:
        raise DeidError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for report in corpus:
        counts.update(words(report))
    kept = sorted(w for w, c in counts.items() if c >= min_count)
    return Vocabulary(RESERVED + tuple(kept))


def tokenize(report: str, vocab: Vocabulary, max_len: int = DEFAULT_MAX_PROMPT_LEN) -> list[int]:
    """Word-level token ids, unknown words mapped to [UNK], truncated to max_len.

    An empty report yields a single [UNK] so downstream prompts always
    have at least one row.
    """
    if max_len < 1:
        raise DeidError("max_len must be >= 1")
    pieces = words(report)[:max_len]
    if not pieces:
        return [UNK_ID]
    unk = UNK_ID
    return [vocab.id_of(w) if vocab.id_of(w) is not None else unk for w in pieces]


@dataclass
class EmbeddingTable:
    """Dense token embeddings: one row per vocabulary id.

    Rows built by from_seed are unit length. unit_rows (used for cosine
    scoring) is computed on first use and errors on any zero-norm row.
    """

    vectors: np.ndarray
    _unit_rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 2:
            raise DeidError("embedding table must be 2-D with dim >= 2")
        if not np.all(np.isfinite(self.vectors)):
            raise DeidError("embedding table contains non-finite values")

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def unit_rows(self) -> np.ndarray:
        if self._unit_rows is None:
            norms = np.linalg.norm(self.vectors, axis=1)
            if np.any(norms == 0.0):
                bad = int(np.flatnonzero(norms == 0.0)[0])
                raise DeidError(f"embedding table row {bad} has zero norm")
            self._unit_rows = self.vectors / norms[:, None]
        return self._unit_rows

    @classmethod
    def from_seed(cls, size: int, dim: int, seed: int) -> "EmbeddingTable":
        """Regenerate the table from a seed: i.i.d. normal rows scaled to unit norm."""
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((size, dim))
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(norms == 0.0):
            raise DeidError("degenerate zero-norm row while seeding table")
        return cls(vectors / norms[:, None])


def embed(seq: Sequence[int], table: EmbeddingTable) -> np.ndarray:
    """Stack embedding rows for a token sequence into an (L, D) prompt."""
    ids = np.asarray(seq, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise DeidError("token sequence must be a non-empty 1-D sequence")
    if ids.min() < 0 or ids.max() >= table.size:
        raise DeidError("token id out of range for the embedding table")
    return table.vectors[ids].copy()


def random_prompt(length: int, dim: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. standard-normal prompt of shape (length, dim)."""
    if length < 1 or dim < 1:
        raise DeidError("prompt length and dim must be >= 1")
    return np.random.default_rng(seed).standard_normal((length, dim))


@dataclass(frozen=True)
class Removal:
    """One blacklist phrase removed from a report."""

    start: int
    end: int
    surface: str
    category: str

    def to_dict(self) -> dict:
        """The form audit files store: the span and category, never the surface.

        The surface is the removed PHI itself, so it stays out of every
        file. Built literally: dataclasses.asdict costs about 30 times as
        much, and this runs for every removal of every record.
        """
        return {"start": self.start, "end": self.end, "category": self.category}


def filter_report(text: str, lex: Lexicon) -> tuple[str, list[Removal]]:
    """Replace every blacklist match with the [DEID] placeholder.

    Whitelist matches pass through byte-identical. The placeholder is
    assumed not to be a lexicon surface itself; its brackets keep the
    inserted word token-isolated from its neighbours.
    """
    hits = [m for m in match_terms(text, lex) if m.kind == "blacklist"]
    out: list[str] = []
    pos = 0
    removals: list[Removal] = []
    for m in hits:
        out.append(text[pos : m.start])
        out.append(DEID_PLACEHOLDER)
        removals.append(Removal(m.start, m.end, text[m.start : m.end], m.category))
        pos = m.end
    out.append(text[pos:])
    return "".join(out), removals
