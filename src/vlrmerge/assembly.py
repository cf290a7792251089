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
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import __version__
from .components import MAKEUP, ModelTriple, Role, validate_triple
from .embeddings import AlignedVocab, align_vocab, check_embedding_rows, merge_embedding_rows, unread_rows
from .errors import InsufficientMemoryError, RecipeError, TripleValidationError, VlrmergeError
from .merging import (
    MergeMethod,
    MergeRecipe,
    Slots,
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


@dataclass(frozen=True)
class MergePlan:
    """A merge of ``recipes`` on ``triple`` that ``plan_merge`` validated and sized; only ``plan_merge`` makes one.

    Each of its ``workers`` maps the buffer table ``slots``, of ``block``
    elements a block slot; ``aligned`` and ``layout`` are the output's.
    """

    recipes: tuple[MergeRecipe, ...]
    triple: ModelTriple
    workers: int
    slots: Slots
    block: int
    aligned: AlignedVocab
    layout: Layout


def plan_merge(recipes: Sequence[MergeRecipe], triple: ModelTriple, jobs: int | None = None) -> MergePlan:
    """The one check of a merge of ``recipes`` on ``triple``, from the headers alone: it reads no payload.

    A ``jobs`` below 1 is a VlrmergeError, a triple ``validate_triple``
    rejects a TripleValidationError, and recipes of several methods or
    seeds a RecipeError (``check_variants``). Each worker maps one table of
    buffers, for the kernel and a block of the widest embedding row. The
    workers are ``jobs`` (None takes ``default_jobs()``), lowered with a
    warning to those that fit the memory this process may use
    (``available_memory``); InsufficientMemoryError when none does. The
    plan of a sweep's grid bounds the merge of any subset of it.
    """
    if jobs is not None and jobs < 1:
        raise VlrmergeError(f"jobs must be at least 1, got {jobs}")
    if report := validate_triple(triple):
        raise TripleValidationError(report)
    check_variants(recipes)
    emb = triple.tensors(Role.EMBEDDING)
    row = max((math.prod(t.shape[1:]) for ts in emb.values() for t in ts.values()), default=0)
    key, block, grid = _buffer_sizes(recipes, triple.tensors(Role.TRANSFORMER)["pre"], row)
    slots = _kernel_slots(key, block, grid)
    workers = jobs or default_jobs()
    if (have := available_memory()) is not None:
        per_worker = _Buffers.layout(slots)[1]
        fit = have // per_worker
        if fit < 1:
            raise InsufficientMemoryError(per_worker, have)
        if fit < workers:
            log.warning("running %d of %d workers: each needs about %.1f MiB and this process may use %.1f MiB",
                        fit, workers, per_worker / 2**20, have / 2**20)
            workers = fit
    aligned = align_vocab(*(model.ckpt.vocab for model in (triple.pre, triple.lvlm, triple.rm)))
    return MergePlan(tuple(recipes), triple, workers, slots, block, aligned, _output_layout(triple, aligned))


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
    plan: MergePlan, outputs: dict[MergeRecipe, str | Path], provenance: dict[str, str] | None = None
) -> None:
    """Merge ``plan``'s triple once for the recipes of ``outputs`` and write each result to its path.

    ``outputs`` maps some of the plan's recipes to distinct paths (a
    RecipeError before any write otherwise); none write nothing. On the
    plan's workers, each with the plan's buffers, one ``merge_transformer``
    call covers every recipe, then one ``run_workers`` call merges each
    embedding a block of output rows at a time, reading only the rows the
    block takes, checks the input rows no block reads, and copies the
    vision, adapter and reward head tensors a piece at a time. Every block
    is written at its offset into every output as soon as it is done, so
    memory never holds a whole payload; the language-modeling heads are
    never read (nor, for linear, the base embedding). Each output is
    written as ``write_merged`` writes and records ``provenance`` and its
    recipe. When the merge is done, every input file is checked to be as it
    was opened (InputChangedError if not) and the files are moved onto
    their paths, so a failure keeps none of them.
    """
    owners: dict[Path, MergeRecipe] = {}
    for recipe, path in outputs.items():
        if recipe not in plan.recipes:
            raise RecipeError(f"recipe {recipe.slug()} is not one of the merge plan's recipes")
        owner = owners.setdefault(Path(path).resolve(), recipe)
        if owner != recipe:
            raise RecipeError(f"recipes {owner.slug()} and {recipe.slug()} share the output path {path}")
    if not outputs:
        return
    recipes, triple, vocab = list(outputs), plan.triple, plan.aligned.output_vocab()
    with ExitStack() as stack:
        writers = [
            stack.enter_context(write_merged(path, vocab, plan.layout, recorded_provenance(recipe, provenance or {})))
            for recipe, path in outputs.items()
        ]
        merge_transformer(
            recipes[0],
            *triple.tensors(Role.TRANSFORMER).values(),
            jobs=plan.workers,
            variants=recipes,
            sink=lambda i, name, block, at: writers[i].write(name, block, at),
        )
        pieces = _pieces(recipes[0].method, plan.aligned, triple, writers, plan.block)
        run_workers(pieces, plan.workers, lambda piece, space: piece(space), lambda: _Buffers(plan.slots))
        for model in (triple.pre, triple.lvlm, triple.rm):
            model.ckpt.check_unchanged()


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
