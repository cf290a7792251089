"""Training-free construction of vision-language reward models by checkpoint merging."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    CheckpointFormatError,
    ClassificationError,
    DatasetError,
    RecipeError,
    ScorerError,
    TripleValidationError,
    VlrmergeError,
    VocabError,
)
from .tensorstore import (  # noqa: F401
    Checkpoint,
    Dtype,
    Tensor,
    read_checkpoint,
    read_metadata,
    read_vocab,
    write_checkpoint,
    write_vocab,
)
from .components import (  # noqa: F401
    ComponentMap,
    ModelTriple,
    Role,
    Rule,
    classify_tensors,
    classify_triple,
    load_manifest_config,
    validate_triple,
)
from .merging import MergeMethod, MergeRecipe, merge_tensor, merge_transformer  # noqa: F401
from .embeddings import AlignedVocab, align_vocab, merge_embedding_rows  # noqa: F401
from .assembly import AssemblyPlan, assemble_vlrm, check_merged_structure, write_merged  # noqa: F401
from .evaluation import (  # noqa: F401
    BenchReport,
    BoNInstance,
    PreferencePair,
    evaluate_bon,
    evaluate_pairwise,
    judge_pair,
    load_bon_dataset,
    load_pairwise_dataset,
    score_best_of_n,
    score_pairwise_bench,
)
from .scoring import RecordingScorer, ReplayScorer, StubScorer, SubprocessScorer  # noqa: F401
from .sweep import SweepConfig, SweepEntry, SweepResult, generate_grid, run_sweep, select_best  # noqa: F401
