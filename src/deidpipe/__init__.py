"""Utility-preserving de-identification of paired image/report corpora."""

from .config import PipelineConfig
from .encoders import (
    ReferenceEncoder,
    alignment_grad,
    alignment_loss,
    cosine,
)
from .errors import (
    DatasetError,
    DegenerateInputError,
    DeidError,
    FormatError,
    LexiconError,
    OptimizationError,
    RecordError,
    VocabularyExhaustedError,
)
from .evalkit import ProbeResult, bleu_n, identity_probe, meteor_simplified, rouge_l, ssim
from .lexicon import (
    Lexicon,
    LexTerm,
    TermMatch,
    load_lexicon,
    load_lexicon_json,
    load_lexicon_path,
    match_terms,
    token_id_sets,
)
from .optimizer import OptTrace, optimize_prompt, refine_cycle
from .pipeline import (
    DeidRecord,
    Record,
    ToyGenerator,
    build_components,
    deid_dataset,
    deid_record,
    generate_image,
    record_rng,
)
from .projection import SelectionPolicy, project_prompt, score_row
from .synth import SynthCorpus, generate_corpus
from .textkit import (
    EmbeddingTable,
    Removal,
    Vocabulary,
    build_vocab,
    embed,
    filter_report,
    random_prompt,
    tokenize,
)

__version__ = "0.1.0"
