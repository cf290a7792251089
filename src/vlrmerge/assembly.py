"""Composition of the merged vision-language reward model checkpoint.

The output keeps the LVLM's vision encoder and adapter verbatim, merges the
shared transformer per the recipe, merges the embedding matrices row-by-row,
takes the reward head verbatim from the text reward model, and drops the
language-modeling head: the make-up that ``components.MAKEUP`` states.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Iterator, Sequence
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path

from . import __version__
from .components import MAKEUP, ModelTriple, Role, validate_triple
from .embeddings import AlignedVocab, align_vocab, check_embedding_rows, merge_embedding_rows, unread_rows
from .errors import InsufficientMemoryError, RecipeError, TripleValidationError, VlrmergeError
from .merging import (
    MergeMethod,
    MergeRecipe,
    _buffer_sizes,
    _Buffers,
    _kernel_slots,
    available_memory,
    check_variants,
    default_jobs,
    merge_transformer,
    run_workers,
)
from .tensorstore import (
    Checkpoint,
    CheckpointWriter,
    Layout,
    Tensor,
    checkpoint_writer,
    copy_payload,
    default_vocab_path,
    write_checkpoint,  # noqa: F401  (the benchmark's tracer wraps it by this name)
    write_vocab,
)

log = logging.getLogger(__name__)


def recorded_provenance(recipe: MergeRecipe, provenance: dict[str, str]) -> dict[str, str]:
    """The metadata a checkpoint assembled for ``recipe`` records."""
    meta = dict(provenance)
    meta["recipe.method"] = recipe.method.value
    meta["recipe.lambda"] = repr(recipe.lam)
    if recipe.density is not None:
        meta["recipe.density"] = repr(recipe.density)
    if recipe.seed is not None:
        meta["recipe.seed"] = str(recipe.seed)
    meta["tool.version"] = __version__
    return meta


def check_merged_structure(merged: Checkpoint, triple: ModelTriple) -> list[str]:
    """Structural validation of an assembled checkpoint against its sources and ``MAKEUP``."""
    report = []
    kept = set()
    for role, kind, is_merged in MAKEUP:
        for name, source in triple.tensors(role)[kind].items():
            kept.add(name)
            if name not in merged.tensors:
                report.append(f"missing {role.value} tensor {name}")
            elif not is_merged and merged.tensors[name] != source:
                report.append(f"{role.value} tensor {name} is not byte-identical to the {kind}")
    report.extend(f"tensor {name} must be dropped" for name in merged.tensors if name not in kept)
    return report


def _output_layout(triple: ModelTriple, aligned: AlignedVocab) -> Layout:
    """Each output tensor's dtype and shape, in ``MAKEUP`` order; an embedding has a row per aligned token."""
    layout = {}
    # validate_triple keeps reward head names apart from every name taken from the lvlm
    for role, kind, _ in MAKEUP:
        for name, t in triple.tensors(role)[kind].items():
            layout[name] = (t.dtype, (len(aligned.tokens), *t.shape[1:]) if role is Role.EMBEDDING else t.shape)
    return layout


def _worker_sizes(recipes: Sequence[MergeRecipe], triple: ModelTriple) -> tuple[int, int, bool]:
    """The ``_kernel_slots`` sizes of every worker of an assembly: the kernel's, a block holding an embedding row."""
    emb = triple.tensors(Role.EMBEDDING)
    row = max((math.prod(t.shape[1:]) for ts in emb.values() for t in ts.values()), default=0)
    return _buffer_sizes(recipes, triple.tensors(Role.TRANSFORMER)["pre"], row)


def check_memory(recipes: Sequence[MergeRecipe], triple: ModelTriple, jobs: int | None = None) -> int:
    """The workers a merge of ``recipes`` on ``triple`` may run on, from the headers alone.

    The recipes must be one merge (``check_variants``: RecipeError
    otherwise). The workers are ``jobs`` (None takes ``default_jobs()``),
    lowered when fewer fit the memory this process may use
    (``available_memory``), each mapping the one table of buffers that
    every worker of the assembly maps (``_worker_sizes``). Raises
    InsufficientMemoryError when not even one worker fits, and
    VlrmergeError for a ``jobs`` below 1. The output bytes do not depend
    on the worker count.
    """
    if jobs is not None and jobs < 1:
        raise VlrmergeError(f"jobs must be at least 1, got {jobs}")
    check_variants(recipes)
    jobs = jobs or default_jobs()
    if (have := available_memory()) is None:
        return jobs
    per_worker = _Buffers.layout(_kernel_slots(*_worker_sizes(recipes, triple)))[1]
    fit = have // per_worker
    if fit < 1:
        raise InsufficientMemoryError(per_worker, have)
    if fit < jobs:
        mib = 1 << 20
        log.warning("running %d of %d workers: each needs about %.1f MiB and this process may use %.1f MiB",
                    fit, jobs, per_worker / mib, have / mib)
        return fit
    return jobs


def _merge_block(
    aligned: AlignedVocab,
    sources: list[Tensor],
    method: MergeMethod,
    rows: range,
    writers: list[CheckpointWriter],
    space: _Buffers,
) -> None:
    """Merge the output rows ``rows`` of the embedding ``sources`` and write them at their offset into every writer."""
    block = merge_embedding_rows(aligned, *sources, method, rows, space)
    for writer in writers:
        writer.write(sources[1].name, block, rows.start * block.shape[1] * block.itemsize)


def _copy(source: Tensor, writers: list[CheckpointWriter], space: _Buffers) -> None:
    """Copy ``source`` into every writer, a piece at a time in ``space``'s ``storage`` slot."""
    copy_payload(source, writers, space.get("storage"))


def _pieces(
    method: MergeMethod, aligned: AlignedVocab, triple: ModelTriple, writers: list[CheckpointWriter], block: int
) -> list[Callable[[_Buffers], None]]:
    """The work that follows the transformer merge, in pieces for workers whose slots hold ``block`` elements.

    Each embedding's output rows, ``block // width`` at a time and at least
    one, the finite check of the input rows no block reads
    (``unread_rows``), in blocks too, and each tensor the output copies
    verbatim. Each piece is called with its worker's buffers: a copy moves
    in pieces of the ``storage`` slot.
    """
    pieces, checks = [], []
    emb = triple.tensors(Role.EMBEDDING)
    for name in emb["lvlm"]:
        sources = [ts[name] for ts in emb.values()]
        step = max(block // sources[1].shape[1], 1)
        for start in range(0, len(aligned.tokens), step):
            rows = range(start, min(start + step, len(aligned.tokens)))
            pieces.append(partial(_merge_block, aligned, sources, method, rows, writers))
        n_rows = {kind: ts[name].shape[0] for kind, ts in emb.items()}
        for kind, unread in unread_rows(aligned, method, n_rows).items():
            for start in range(0, unread.size, step):
                checks.append(partial(check_embedding_rows, kind, emb[kind][name], unread[start : start + step]))
    copies = [
        partial(_copy, source, writers)
        for role, kind, is_merged in MAKEUP
        if not is_merged
        for source in triple.tensors(role)[kind].values()
    ]
    return pieces + checks + copies


def assemble_vlrm(
    recipes: Sequence[MergeRecipe],
    triple: ModelTriple,
    paths: Sequence[str | Path],
    provenance: dict[str, str] | None = None,
    jobs: int | None = None,
) -> tuple[Layout, dict[str, int]]:
    """Merge the triple once for ``recipes``, which are one merge, and write each result to its path.

    Validates the triple, aligns its vocabularies and builds the output
    layout once, and, before any file is written or any payload is read,
    lowers ``jobs`` to the workers that fit the memory this process may use
    (``check_memory``: RecipeError unless the recipes share method and seed,
    so differ only in lambda and density, and InsufficientMemoryError when
    no worker fits). Then one ``merge_transformer`` call covers every
    recipe, reading each input tensor a block at a time, and writes each
    output block at its offset as soon as it is done. Then one
    ``run_workers`` call on the same workers merges each embedding a block
    of output rows at a time, reading only the input rows the block takes
    and writing the block into every output at its offset, checks the input
    rows no block reads, and copies the vision, adapter and reward head
    tensors from their files a piece at a time into every output. The
    language-modeling heads are never read (nor, for linear, the base
    embedding), and memory holds each worker's buffers, one table for both
    calls: blocks, and for ties a ranking key of one tensor's size, never a
    whole payload or a whole model. Each output is written as
    ``write_merged`` writes and records ``provenance`` and its recipe. When
    the merge is done, every input file is checked to be as it was opened
    (InputChangedError if not) and the files are moved onto their paths, so
    a failure keeps none of them. Returns the layout and vocabulary every
    output has; no recipes write nothing, align nothing and return two
    empty maps. Raises TripleValidationError when the triple is not
    mergeable and RecipeError unless there is one distinct path per recipe.
    """
    report = validate_triple(triple)
    if report:
        raise TripleValidationError(report)
    if len(paths) != len(recipes):
        raise RecipeError(f"{len(recipes)} recipes need as many output paths, got {len(paths)}")
    owners: dict[Path, int] = {}
    for i, (recipe, path) in enumerate(zip(recipes, paths)):
        owner = owners.setdefault(Path(path).resolve(), i)
        if owner != i:
            raise RecipeError(f"recipes {recipes[owner].slug()} and {recipe.slug()} share the output path {path}")
    if not recipes:
        return {}, {}
    workers = check_memory(recipes, triple, jobs)
    key, block, grid = _worker_sizes(recipes, triple)
    slots = _kernel_slots(key, block, grid)

    models = (triple.pre, triple.lvlm, triple.rm)
    aligned = align_vocab(*(model.ckpt.vocab for model in models))
    vocab, layout = aligned.output_vocab(), _output_layout(triple, aligned)
    with ExitStack() as stack:
        writers = [
            stack.enter_context(write_merged(path, vocab, layout, recorded_provenance(recipe, provenance or {})))
            for recipe, path in zip(recipes, paths)
        ]
        merge_transformer(
            recipes[0],
            *triple.tensors(Role.TRANSFORMER).values(),
            jobs=workers,
            variants=recipes,
            sink=lambda i, name, block, at: writers[i].write(name, block, at),
        )
        pieces = _pieces(recipes[0].method, aligned, triple, writers, block)
        run_workers(pieces, workers, lambda piece, space: piece(space), lambda: _Buffers(slots))
        for model in models:
            model.ckpt.check_unchanged()
    return layout, vocab


@contextmanager
def write_merged(
    path: str | Path, vocab: dict[str, int], layout: Layout, metadata: dict[str, str]
) -> Iterator[CheckpointWriter]:
    """Write the merged vocabulary sidecar, then open the checkpoint for streamed writes.

    Yields a ``CheckpointWriter`` on a temporary file beside ``path``, moved
    onto ``path`` when the block ends without an exception (see
    ``checkpoint_writer``). Each file is replaced atomically and the
    checkpoint comes last, so an existing checkpoint at ``path`` means the
    whole variant was written.
    """
    write_vocab(vocab, default_vocab_path(path))
    with checkpoint_writer(path, layout, metadata) as writer:
        yield writer
