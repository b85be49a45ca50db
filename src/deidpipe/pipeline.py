"""End-to-end de-identification of paired image/report records.

Per record: tokenize the report, optimize the continuous prompt against
the image feature, project it to constrained token ids, synthesize a new
image from those ids, and pair it with the filtered report.
Every random choice derives from (config seed, record index), so results
never depend on how a run is scheduled.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .config import PipelineConfig
from .encoders import ReferenceEncoder, validate_image
from .errors import DatasetError, DeidError, RecordError
from .lexicon import Lexicon, token_id_sets
from .optimizer import optimize_and_project
from .textkit import EmbeddingTable, Vocabulary, embed, filter_report, tokenize

log = logging.getLogger(__name__)

DEFAULT_OUT_SIDE = 64
_GEN_GAIN = 6.0

# Fixed offsets appended to the master seed for derived component streams.
# Record streams use (seed, index) with index < 2**32, so these never collide.
_TABLE_STREAM = 2**32
_ENCODER_STREAM = 2**32 + 1
_GENERATOR_STREAM = 2**32 + 2


@dataclass
class Record:
    """One input pairing: identifiers, grayscale image, free-text report."""

    id: str
    patient_id: str
    image: np.ndarray
    report: str


@dataclass
class DeidRecord:
    """One de-identified output pairing plus its audit trail."""

    id: str
    image: np.ndarray
    report: str
    prompt_tokens: list[int]
    audit: dict = field(default_factory=dict)


@dataclass
class ToyGenerator:
    """Sigmoid-linear image synthesizer conditioned on a token sequence.

    The base image is sigmoid(weights @ u + bias) where u is the mean
    embedding of the tokens. With blend > 0 a 4x4 block-mean low-pass of
    the source image is mixed in; blend = 0 ignores the source entirely.
    """

    weights: np.ndarray
    bias: np.ndarray
    out_h: int
    out_w: int
    blend: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        n_out = self.out_h * self.out_w
        if self.weights.shape[0] != n_out or self.bias.shape != (n_out,):
            raise DeidError("generator weights/bias must match out_h * out_w")
        if not 0.0 <= self.blend <= 1.0:
            raise DeidError("blend must lie in [0, 1]")

    @classmethod
    def from_seed(
        cls,
        dim: int,
        out_h: int = DEFAULT_OUT_SIDE,
        out_w: int = DEFAULT_OUT_SIDE,
        seed: int = 0,
        blend: float = 0.0,
    ) -> "ToyGenerator":
        rng = np.random.default_rng(seed)
        n_out = out_h * out_w
        return cls(
            weights=rng.standard_normal((n_out, dim)) * _GEN_GAIN,
            bias=rng.standard_normal(n_out) * 0.5,
            out_h=out_h,
            out_w=out_w,
            blend=blend,
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def generate_image(
    tokens,
    source: np.ndarray | None,
    gen: ToyGenerator,
    table: EmbeddingTable,
) -> np.ndarray:
    """Synthesize an image from token ids, optionally blending the source.

    output = (1 - blend) * sigmoid(W @ mean_embedding + b)
           +      blend  * lowpass(source)
    clamped to [0, 1]. Deterministic: no randomness enters here.
    """
    u = embed(tokens, table).mean(axis=0)
    base = _sigmoid(gen.weights @ u + gen.bias).reshape(gen.out_h, gen.out_w)
    if gen.blend > 0.0:
        if source is None:
            raise DeidError("blend > 0 requires a source image")
        src = validate_image(source)
        if src.shape != (gen.out_h, gen.out_w):
            raise DeidError("source image shape must match the generator output")
        base = (1.0 - gen.blend) * base + gen.blend * _kernels.lowpass_block4(src)
    return np.clip(base, 0.0, 1.0)


def record_rng(seed: int, index: int) -> np.random.Generator:
    """The per-record random stream: a splittable mix of (seed, index)."""
    return np.random.default_rng((seed, index))


def build_components(
    cfg: PipelineConfig,
    vocab: Vocabulary,
    dim: int = 16,
    pool_grid: int = 8,
    out_h: int = DEFAULT_OUT_SIDE,
    out_w: int = DEFAULT_OUT_SIDE,
) -> tuple[EmbeddingTable, ReferenceEncoder, ToyGenerator]:
    """Derive the table, encoder and generator from the master seed."""
    table = EmbeddingTable.from_seed(
        len(vocab), dim, seed=int(np.random.default_rng((cfg.seed, _TABLE_STREAM)).integers(2**31))
    )
    enc_seed = int(np.random.default_rng((cfg.seed, _ENCODER_STREAM)).integers(2**31))
    gen_seed = int(np.random.default_rng((cfg.seed, _GENERATOR_STREAM)).integers(2**31))
    enc = ReferenceEncoder.from_seed(dim=dim, pool_grid=pool_grid, seed=enc_seed)
    gen = ToyGenerator.from_seed(
        dim=dim, out_h=out_h, out_w=out_w, seed=gen_seed, blend=cfg.source_blend
    )
    return table, enc, gen


def deid_record(
    rec: Record,
    cfg: PipelineConfig,
    lex: Lexicon,
    vocab: Vocabulary,
    table: EmbeddingTable,
    enc: ReferenceEncoder,
    gen: ToyGenerator,
    rng: np.random.Generator,
    id_sets: tuple[set[int], set[int]],
    verbose_audit: bool = False,
) -> DeidRecord:
    """De-identify one record; any failure is re-raised tagged with its id.

    id_sets is token_id_sets(lex, vocab), computed once per dataset.
    """
    try:
        blacklist_ids, whitelist_ids = id_sets
        prompt = embed(tokenize(rec.report, vocab, cfg.max_prompt_len), table)
        f_img = enc.encode_image(rec.image)
        projection_audit: list | None = [] if verbose_audit else None
        tokens, losses = optimize_and_project(
            prompt,
            f_img,
            enc,
            table,
            blacklist_ids,
            whitelist_ids,
            cfg,
            rng=rng,
            audit=projection_audit,
        )
        image = generate_image(
            tokens, rec.image if cfg.source_blend > 0.0 else None, gen, table
        )
        report, removals = filter_report(rec.report, lex)
        audit = {
            "removals": [r.to_dict() for r in removals],
            "optimization": {
                "steps_per_round": cfg.steps,
                "learning_rate": cfg.learning_rate,
                "initial_loss": float(losses[0]),
                "final_loss": float(losses[-1]),
            },
        }
        if verbose_audit:
            audit["projection"] = projection_audit
        return DeidRecord(
            id=rec.id,
            image=image,
            report=report,
            prompt_tokens=[int(t) for t in tokens],
            audit=audit,
        )
    except DeidError as exc:
        if isinstance(exc, RecordError):
            raise
        raise RecordError(rec.id, str(exc)) from exc


def deid_dataset(
    records,
    cfg: PipelineConfig,
    lex: Lexicon,
    vocab: Vocabulary,
    table: EmbeddingTable,
    enc: ReferenceEncoder,
    gen: ToyGenerator,
    workers: int = 1,
    failures: list | None = None,
    verbose_audit: bool = False,
) -> list[DeidRecord]:
    """De-identify a dataset; failed records are skipped and reported.

    Records run one after another in input order. Record i draws from
    record_rng(cfg.seed, i), with i its index in the whole dataset, so
    output bytes depend on nothing but the inputs and the seed. workers
    is accepted for existing callers and has no effect: a thread pool
    only made runs slower, because records are short, GIL-bound numpy
    work. Failures append (record_id, message) to the optional failures
    list.
    """
    ids = [rec.id for rec in records]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DatasetError(f"duplicate record id(s): {', '.join(dupes)}")
    id_sets = token_id_sets(lex, vocab)
    outputs: list[DeidRecord] = []
    for index, rec in enumerate(records):
        try:
            outputs.append(
                deid_record(
                    rec,
                    cfg,
                    lex,
                    vocab,
                    table,
                    enc,
                    gen,
                    rng=record_rng(cfg.seed, index),
                    id_sets=id_sets,
                    verbose_audit=verbose_audit,
                )
            )
        except RecordError as exc:
            log.warning("skipping failed record: %s", exc)
            if failures is not None:
                failures.append((exc.record_id, str(exc)))
    return outputs
