"""Blacklist/whitelist lexicon loading and surface matching.

The blacklist holds protected-information phrases that must never survive
into de-identified outputs; the whitelist holds clinically useful phrases
whose selection the projection stage encourages. Matching is
case-insensitive, token-boundary aligned, longest-match-wins and then
leftmost. Multi-word phrases decompose into their constituent word tokens
when mapped onto a vocabulary.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import IO, Iterable, Union

from .errors import LexiconError
from .words import word_spans

log = logging.getLogger(__name__)

BLACKLIST_CATEGORIES = frozenset(
    {
        "patient_id",
        "personnel",
        "contact",
        "location",
        "date",
        "demographic",
        "institution",
        "other",
    }
)
WHITELIST_CATEGORIES = frozenset(
    {"modality", "view", "anatomy", "tissue", "descriptor"}
)

MAX_PHRASE_WORDS = 8

TextSource = Union[IO[str], Iterable[str]]


@dataclass(frozen=True, order=True)
class LexTerm:
    """One lexicon phrase: a case-folded surface and its category."""

    surface: str
    category: str

    @property
    def token_words(self) -> tuple[str, ...]:
        return tuple(self.surface.split(" "))


PhraseIndex = tuple[dict[tuple[str, ...], LexTerm], int]


def _phrase_index(terms: tuple[LexTerm, ...]) -> PhraseIndex:
    """Terms keyed by their word tuple, plus the longest phrase length."""
    index = {t.token_words: t for t in terms}
    longest = max((len(k) for k in index), default=0)
    return index, longest


@dataclass(frozen=True)
class Lexicon:
    """Both term lists, with a phrase index of each built once for matching."""

    blacklist: tuple[LexTerm, ...]
    whitelist: tuple[LexTerm, ...]
    _indexes: tuple[PhraseIndex, PhraseIndex] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_indexes", (_phrase_index(self.blacklist), _phrase_index(self.whitelist))
        )


@dataclass(frozen=True)
class TermMatch:
    """One lexicon hit in a text; start/end index the original string."""

    start: int
    end: int
    surface: str
    kind: str  # "blacklist" or "whitelist"
    category: str


def _normalize_surface(raw: str, where: str) -> str:
    """Case-fold a phrase and strip punctuation from its word edges."""
    pieces = [m for _, _, m in word_spans(raw)]
    if not pieces:
        raise LexiconError(f"{where}: no word characters in term {raw!r}")
    if len(pieces) > MAX_PHRASE_WORDS:
        raise LexiconError(
            f"{where}: term {raw!r} exceeds {MAX_PHRASE_WORDS} words"
        )
    return " ".join(p.casefold() for p in pieces)


def _dedup(entries: list[LexTerm], kind: str) -> tuple[LexTerm, ...]:
    seen: dict[str, LexTerm] = {}
    for term in entries:
        if term.surface not in seen:
            seen[term.surface] = term
        elif seen[term.surface].category != term.category:
            log.warning(
                "%s term %r listed under both %r and %r; keeping the first",
                kind,
                term.surface,
                seen[term.surface].category,
                term.category,
            )
    return tuple(seen.values())


def _check_overlap(
    blacklist: tuple[LexTerm, ...], whitelist: tuple[LexTerm, ...]
) -> None:
    f_words = {w for t in blacklist for w in t.token_words}
    p_words = {w for t in whitelist for w in t.token_words}
    shared = sorted(f_words & p_words)
    if shared:
        raise LexiconError(
            "blacklist and whitelist share tokens: " + ", ".join(shared)
        )


def _parse_plain(source: TextSource, kind: str, categories: frozenset[str]) -> list[LexTerm]:
    default = "other" if kind == "blacklist" else "descriptor"
    category = default
    entries: list[LexTerm] = []
    for lineno, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("category:"):
                category = body[len("category:"):].strip().casefold()
                if category not in categories:
                    raise LexiconError(
                        f"{kind} line {lineno}: unknown category {category!r}"
                    )
            continue  # plain comment
        surface = _normalize_surface(stripped, f"{kind} line {lineno}")
        entries.append(LexTerm(surface, category))
    return entries


def load_lexicon(blacklist_source: TextSource, whitelist_source: TextSource) -> Lexicon:
    """Load the plain one-term-per-line format with #category: headers."""
    blacklist = _dedup(
        _parse_plain(blacklist_source, "blacklist", BLACKLIST_CATEGORIES),
        "blacklist",
    )
    whitelist = _dedup(
        _parse_plain(whitelist_source, "whitelist", WHITELIST_CATEGORIES),
        "whitelist",
    )
    _check_overlap(blacklist, whitelist)
    return Lexicon(blacklist=blacklist, whitelist=whitelist)


def load_lexicon_json(text: str) -> Lexicon:
    """Load the structured format: {"blacklist": [{"term", "category"}...], "whitelist": [...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LexiconError(f"invalid lexicon json: {exc}") from exc
    if not isinstance(doc, dict):
        raise LexiconError("lexicon json must be an object")
    out: dict[str, list[LexTerm]] = {}
    for kind, categories in (
        ("blacklist", BLACKLIST_CATEGORIES),
        ("whitelist", WHITELIST_CATEGORIES),
    ):
        entries = doc.get(kind, [])
        if not isinstance(entries, list):
            raise LexiconError(f"{kind} must be an array")
        parsed = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "term" not in entry or "category" not in entry:
                raise LexiconError(
                    f"{kind}[{i}]: expected an object with term and category"
                )
            category = str(entry["category"]).casefold()
            if category not in categories:
                raise LexiconError(f"{kind}[{i}]: unknown category {category!r}")
            parsed.append(
                LexTerm(_normalize_surface(str(entry["term"]), f"{kind}[{i}]"), category)
            )
        out[kind] = parsed
    blacklist = _dedup(out["blacklist"], "blacklist")
    whitelist = _dedup(out["whitelist"], "whitelist")
    _check_overlap(blacklist, whitelist)
    return Lexicon(blacklist=blacklist, whitelist=whitelist)


def load_lexicon_path(path) -> Lexicon:
    """Load a lexicon file, sniffing the structured vs plain format."""
    from pathlib import Path

    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".json" or text.lstrip()[:1] == "{":
        return load_lexicon_json(text)
    # A single plain file carries both lists via #blacklist / #whitelist markers.
    black: list[str] = []
    white: list[str] = []
    current = black
    for line in text.splitlines():
        marker = line.strip().casefold()
        if marker == "#blacklist":
            current = black
            continue
        if marker == "#whitelist":
            current = white
            continue
        current.append(line)
    return load_lexicon(iter(black), iter(white))


def _match_kind(
    spans: list[tuple[int, int, str]],
    phrase_index: PhraseIndex,
    kind: str,
) -> list[TermMatch]:
    index, longest = phrase_index
    if not index:
        return []
    folded = [w.casefold() for _, _, w in spans]
    matches: list[TermMatch] = []
    i = 0
    n = len(spans)
    while i < n:
        hit = None
        for k in range(min(longest, n - i), 0, -1):
            term = index.get(tuple(folded[i : i + k]))
            if term is not None:
                hit = (k, term)
                break
        if hit is None:
            i += 1
            continue
        k, term = hit
        matches.append(
            TermMatch(
                start=spans[i][0],
                end=spans[i + k - 1][1],
                surface=term.surface,
                kind=kind,
                category=term.category,
            )
        )
        i += k
    return matches


def match_terms(text: str, lex: Lexicon) -> list[TermMatch]:
    """All lexicon hits in the text, sorted by start offset.

    Within each list the scan is greedy: at every token position the
    longest matching phrase wins and its tokens are consumed, so matches
    of one kind never overlap each other.
    """
    spans = word_spans(text)
    black, white = lex._indexes
    hits = _match_kind(spans, black, "blacklist")
    hits += _match_kind(spans, white, "whitelist")
    hits.sort(key=lambda m: (m.start, m.end))
    return hits


def token_id_sets(lex: Lexicon, vocab) -> tuple[set[int], set[int]]:
    """Map lexicon phrases onto vocabulary token ids.

    Multi-word phrases contribute every constituent word's id. Words
    absent from the vocabulary are reported through the module logger
    rather than silently dropped.
    """
    out: list[set[int]] = []
    for kind, terms in (("blacklist", lex.blacklist), ("whitelist", lex.whitelist)):
        ids: set[int] = set()
        missing: set[str] = set()
        for term in terms:
            for word in term.token_words:
                tid = vocab.id_of(word)
                if tid is None:
                    missing.add(word)
                else:
                    ids.add(tid)
        if missing:
            log.warning(
                "%d %s word(s) absent from vocabulary: %s",
                len(missing),
                kind,
                ", ".join(sorted(missing)),
            )
        out.append(ids)
    return out[0], out[1]
