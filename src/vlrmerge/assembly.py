"""Composition of the merged vision-language reward model checkpoint.

The output keeps the LVLM's vision encoder and adapter verbatim, merges the
shared transformer per the recipe, merges the embedding matrices row-by-row,
takes the reward head verbatim from the text reward model, and drops the
language-modeling head.
"""

from __future__ import annotations

import hashlib
import mmap
from collections.abc import Iterator, Sequence
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .components import ModelTriple, Role, validate_triple
from .embeddings import AlignedVocab, align_vocab, merge_embedding_rows
from .errors import RecipeError, TripleValidationError
from .merging import MergeRecipe, merge_transformer
from .tensorstore import (
    Checkpoint,
    CheckpointWriter,
    Layout,
    Tensor,
    checkpoint_writer,
    copy_payload,
    default_vocab_path,
    read_checkpoint,
    write_checkpoint,  # noqa: F401  (the benchmark's tracer wraps it by this name)
    write_vocab,
)


_HASH_BLOCK = 1 << 20


def file_digest(path: str | Path) -> str:
    """sha256 of a file, read one block at a time so no whole copy is held.

    The block is an anonymous mapping, unmapped when the digest is done, so
    a file hashed on a helper thread leaves no block in that thread's
    malloc arena.
    """
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as handle, mmap.mmap(-1, _HASH_BLOCK) as block, memoryview(block) as view:
        while size := handle.readinto(view):
            digest.update(view[:size])
    return digest.hexdigest()


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


def _same_payload(merged: Tensor, source: Tensor) -> bool:
    """True when both tensors hold the same bytes; the same object always does.

    The bytes are compared as numpy arrays: ``==`` on memoryviews compares
    item by item in Python, about 17 times slower than on ``bytes``.
    """
    if merged is source:
        return True
    return np.array_equal(np.frombuffer(merged.data, np.uint8), np.frombuffer(source.data, np.uint8))


def check_merged_structure(merged: Checkpoint, triple: ModelTriple) -> list[str]:
    """Structural validation of an assembled checkpoint against its sources."""
    report = []
    lvlm = triple.lvlm
    rm = triple.rm
    for role in (Role.VISION_ENCODER, Role.ADAPTER):
        for name in lvlm.cmap.names(role):
            if name not in merged.tensors:
                report.append(f"missing {role.value} tensor {name}")
            elif not _same_payload(merged.tensors[name], lvlm.ckpt.tensors[name]):
                report.append(f"{role.value} tensor {name} is not byte-identical to the lvlm")
    for name in rm.cmap.names(Role.RM_HEAD):
        if name not in merged.tensors:
            report.append(f"missing reward head tensor {name}")
        elif not _same_payload(merged.tensors[name], rm.ckpt.tensors[name]):
            report.append(f"reward head tensor {name} is not byte-identical to the rm")
    for name in lvlm.cmap.names(Role.LM_HEAD):
        if name in merged.tensors and name not in rm.cmap.names(Role.RM_HEAD):
            report.append(f"language-modeling head tensor {name} must be dropped")
    for name in lvlm.cmap.names(Role.TRANSFORMER):
        if name not in merged.tensors:
            report.append(f"missing transformer tensor {name}")
    return report


def _output_layout(triple: ModelTriple, aligned: AlignedVocab) -> Layout:
    """Each output tensor's dtype and shape: every lvlm tensor but the language-modeling head, then the reward head."""
    lvlm, rm = triple.lvlm, triple.rm
    layout = {}
    for role in (Role.VISION_ENCODER, Role.ADAPTER, Role.TRANSFORMER):
        for name in lvlm.cmap.names(role):
            t = lvlm.ckpt.tensors[name]
            layout[name] = (t.dtype, t.shape)
    for name in lvlm.cmap.names(Role.EMBEDDING):
        t = lvlm.ckpt.tensors[name]
        layout[name] = (t.dtype, (len(aligned.tokens), *t.shape[1:]))
    # validate_triple keeps reward head names apart from every kept lvlm name
    for name in rm.cmap.names(Role.RM_HEAD):
        t = rm.ckpt.tensors[name]
        layout[name] = (t.dtype, t.shape)
    return layout


def assemble_vlrm(
    recipes: Sequence[MergeRecipe],
    triple: ModelTriple,
    paths: Sequence[str | Path],
    provenance: dict[str, str] | None = None,
    jobs: int | None = None,
) -> list[Checkpoint]:
    """Merge the triple once per recipe and write each result to its path.

    Validates the triple, aligns its vocabularies and builds the output
    layout once. Then, for each group of recipes that share method and seed
    (so differ only in lambda and density), in the order first seen: one
    ``merge_transformer`` call covers every recipe of the group, reading
    each input tensor once, and writes each output tensor at its offset as
    soon as it is done; each embedding is merged once and written to every
    output; the vision, adapter and reward head tensors are copied from
    their files a block at a time into every output. A TIES or DARE sweep
    over lambda and density is one group. The language-modeling heads are
    never read, and memory holds the workers' workspaces or one embedding's
    inputs and output, never a whole model. Each output is written as
    ``write_merged`` writes and records ``provenance`` and its recipe. When
    a group is done, every input file is checked to be as it was opened
    (InputChangedError if not) and the group's files are moved onto their
    paths, so a failure keeps the earlier groups' outputs and none of its
    own group's. Returns each written checkpoint opened header-only; no
    recipes write nothing. Raises TripleValidationError when the triple is
    not mergeable and RecipeError unless there is one distinct path per
    recipe.
    """
    report = validate_triple(triple)
    if report:
        raise TripleValidationError(report)
    if len(paths) != len(recipes):
        raise RecipeError(f"{len(recipes)} recipes need as many output paths, got {len(paths)}")
    groups: dict[tuple, list[tuple[MergeRecipe, str | Path]]] = {}
    owners: dict[Path, int] = {}
    for i, (recipe, path) in enumerate(zip(recipes, paths)):
        owner = owners.setdefault(Path(path).resolve(), i)
        if owner != i:
            raise RecipeError(f"recipes {recipes[owner].slug()} and {recipe.slug()} share the output path {path}")
        groups.setdefault((recipe.method, recipe.seed), []).append((recipe, path))
    if not groups:
        return []

    models = (triple.pre, triple.lvlm, triple.rm)
    lvlm, rm = triple.lvlm, triple.rm
    aligned = align_vocab(*(model.ckpt.vocab for model in models))
    vocab, layout = aligned.output_vocab(), _output_layout(triple, aligned)
    trans_names = lvlm.cmap.names(Role.TRANSFORMER)
    for group in groups.values():
        first = group[0][0]
        with ExitStack() as stack:
            writers = [
                stack.enter_context(write_merged(path, vocab, layout, recorded_provenance(recipe, provenance or {})))
                for recipe, path in group
            ]
            merge_transformer(
                first,
                *({n: model.ckpt.tensors[n] for n in trans_names} for model in models),
                jobs=jobs,
                variants=[recipe for recipe, _ in group],
                sink=lambda i, tensor: writers[i].write(tensor.name, tensor.data),
            )
            for name in lvlm.cmap.names(Role.EMBEDDING):
                rows = merge_embedding_rows(aligned, *(m.ckpt.tensors[name].load() for m in models), first.method)
                for writer in writers:
                    writer.write(name, rows)
                del rows
            for role, model in ((Role.VISION_ENCODER, lvlm), (Role.ADAPTER, lvlm), (Role.RM_HEAD, rm)):
                for name in model.cmap.names(role):
                    copy_payload(model.ckpt.tensors[name], writers)
            for model in models:
                model.ckpt.check_unchanged()
    return [read_checkpoint(path) for path in paths]


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
