"""Composition of the merged vision-language reward model checkpoint.

The output keeps the LVLM's vision encoder and adapter verbatim, merges the
shared transformer per the recipe, merges the embedding matrices row-by-row,
takes the reward head verbatim from the text reward model, and drops the
language-modeling head.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .components import ModelTriple, Role, validate_triple
from .embeddings import align_vocab, merge_embedding_rows
from .errors import RecipeError, TripleValidationError
from .merging import MergeRecipe, merge_transformer
from .tensorstore import Checkpoint, Tensor, write_checkpoint, write_vocab, default_vocab_path


_HASH_BLOCK = 1 << 20


def file_digest(path: str | Path) -> str:
    """sha256 of a file, read one block at a time so no whole copy is held."""
    digest = hashlib.sha256()
    block = bytearray(_HASH_BLOCK)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(block):
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


def assemble_vlrm(
    recipes: Sequence[MergeRecipe],
    triple: ModelTriple,
    provenance: dict[str, str] | None = None,
    jobs: int | None = None,
) -> list[Checkpoint]:
    """Produce one merged checkpoint per recipe, each recording ``provenance``.

    The triple is validated and merged once for all the recipes: one
    ``merge_transformer`` call for every lambda, then one embedding merge,
    each handed zero-copy storage views of the three models and returning
    their storage dtype, so float32 exists only inside the merge kernels.
    Each checkpoint holds its own merged transformer, so memory grows with
    the number of recipes; the merged embeddings are shared, and vision,
    adapter and reward head tensors are the inputs' own objects.
    Raises TripleValidationError when the triple is not mergeable and
    RecipeError on no recipes or on recipes that differ in more than lambda
    (each recipe checked its own hyperparameters when it was made).
    """
    report = validate_triple(triple)
    if report:
        raise TripleValidationError(report)
    if not recipes:
        raise RecipeError("an assembly needs at least one recipe")
    first = recipes[0]
    for recipe in recipes:
        if replace(recipe, lam=first.lam) != first:
            raise RecipeError(
                f"recipes {first.slug()} and {recipe.slug()} differ in more than lambda"
            )

    pre, lvlm, rm = triple.pre, triple.lvlm, triple.rm
    shared: dict[str, Tensor] = {}
    for role in (Role.VISION_ENCODER, Role.ADAPTER):
        for name in lvlm.cmap.names(role):
            shared[name] = lvlm.ckpt.tensors[name]

    trans_names = lvlm.cmap.names(Role.TRANSFORMER)
    merged_trans = merge_transformer(
        first,
        *({n: model.ckpt.tensors[n].array() for n in trans_names} for model in (pre, lvlm, rm)),
        jobs=jobs,
        lams=[recipe.lam for recipe in recipes],
    )

    aligned = align_vocab(pre.ckpt.vocab, lvlm.ckpt.vocab, rm.ckpt.vocab)
    for name in lvlm.cmap.names(Role.EMBEDDING):
        rows = merge_embedding_rows(
            aligned, *(model.ckpt.tensors[name].array() for model in (pre, lvlm, rm)), first.method
        )
        payload = memoryview(rows.reshape(-1).view(np.uint8)).toreadonly()
        shared[name] = Tensor(name, lvlm.ckpt.tensors[name].dtype, rows.shape, payload)
    # validate_triple keeps reward head names apart from every kept lvlm name
    for name in rm.cmap.names(Role.RM_HEAD):
        shared[name] = rm.ckpt.tensors[name]

    vocab = aligned.output_vocab()
    return [
        Checkpoint(
            tensors={**shared, **trans},
            vocab=vocab,
            metadata=recorded_provenance(recipe, provenance or {}),
        )
        for recipe, trans in zip(recipes, merged_trans)
    ]


def write_merged(merged: Checkpoint, path: str | Path) -> Path:
    """Write the merged vocabulary sidecar, then the checkpoint.

    Each file is replaced atomically and the checkpoint comes last, so an
    existing checkpoint at ``path`` means the whole variant was written.
    """
    path = Path(path)
    write_vocab(merged.vocab, default_vocab_path(path))
    write_checkpoint(merged, path)
    return path
