"""Composition of the merged vision-language reward model checkpoint.

The output keeps the LVLM's vision encoder and adapter verbatim, merges the
shared transformer per the recipe, merges the embedding matrices row-by-row,
takes the reward head verbatim from the text reward model, and drops the
language-modeling head: the make-up that ``components.MAKEUP`` states.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .components import MAKEUP, ModelTriple, Role, validate_triple
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
    write_checkpoint,  # noqa: F401  (the benchmark's tracer wraps it by this name)
    write_vocab,
)



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
    """Structural validation of an assembled checkpoint against its sources and ``MAKEUP``."""
    report = []
    kept = set()
    for role, kind, is_merged in MAKEUP:
        for name, source in triple.tensors(role)[kind].items():
            kept.add(name)
            if name not in merged.tensors:
                report.append(f"missing {role.value} tensor {name}")
            elif not is_merged and not _same_payload(merged.tensors[name], source):
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


def assemble_vlrm(
    recipes: Sequence[MergeRecipe],
    triple: ModelTriple,
    paths: Sequence[str | Path],
    provenance: dict[str, str] | None = None,
    jobs: int | None = None,
) -> None:
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
    never read, and memory holds the workers' buffers or one embedding's
    inputs and output, never a whole model. Each output is written as
    ``write_merged`` writes and records ``provenance`` and its recipe. When
    a group is done, every input file is checked to be as it was opened
    (InputChangedError if not) and the group's files are moved onto their
    paths, so a failure keeps the earlier groups' outputs and none of its
    own group's. No recipes write nothing. Raises TripleValidationError when the triple is
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
        return

    models = (triple.pre, triple.lvlm, triple.rm)
    aligned = align_vocab(*(model.ckpt.vocab for model in models))
    vocab, layout = aligned.output_vocab(), _output_layout(triple, aligned)
    trans, emb = triple.tensors(Role.TRANSFORMER), triple.tensors(Role.EMBEDDING)
    for group in groups.values():
        first = group[0][0]
        with ExitStack() as stack:
            writers = [
                stack.enter_context(write_merged(path, vocab, layout, recorded_provenance(recipe, provenance or {})))
                for recipe, path in group
            ]
            merge_transformer(
                first,
                *trans.values(),
                jobs=jobs,
                variants=[recipe for recipe, _ in group],
                sink=lambda i, tensor: writers[i].write(tensor.name, tensor.data),
            )
            for name in emb["lvlm"]:
                rows = merge_embedding_rows(aligned, *(ts[name].load() for ts in emb.values()), first.method)
                for writer in writers:
                    writer.write(name, rows)
                del rows
            for role, kind, is_merged in MAKEUP:
                if not is_merged:
                    for source in triple.tensors(role)[kind].values():
                        copy_payload(source, writers)
            for model in models:
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
