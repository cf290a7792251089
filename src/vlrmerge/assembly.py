"""Composition of the merged vision-language reward model checkpoint.

The output keeps the LVLM's vision encoder and adapter verbatim, merges the
shared transformer per the recipe, merges the embedding matrices row-by-row,
takes the reward head verbatim from the text reward model, and drops the
language-modeling head.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .components import ModelTriple, Role, validate_triple
from .embeddings import align_vocab, merge_embedding_rows
from .errors import RecipeError, TripleValidationError, VlrmergeError
from .merging import MergeRecipe, merge_transformer
from .tensorstore import Checkpoint, Tensor, write_checkpoint, write_vocab, default_vocab_path


@dataclass
class AssemblyPlan:
    """Recipes that differ only in lambda, assembled from one triple."""

    recipes: tuple[MergeRecipe, ...]
    triple: ModelTriple
    provenance: dict[str, str] = field(default_factory=dict)


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


def assemble_vlrm(plan: AssemblyPlan, jobs: int | None = None) -> list[Checkpoint]:
    """Produce one merged checkpoint per recipe of a validated triple's plan.

    The triple is validated and merged once for the whole plan: one
    ``merge_transformer`` call for every lambda, handed zero-copy storage
    views of the three transformers, so no float32 copy of a model is made
    outside its workers' workspaces; then the embeddings, widened to float32
    whole. Each checkpoint holds its own narrowed transformer, so memory grows
    with the number of recipes; vision, adapter and reward head tensors are
    the inputs' own objects.
    Raises TripleValidationError when the triple is not mergeable and
    RecipeError on an empty plan or on recipes that differ in more than
    lambda (each recipe checked its own hyperparameters when it was made).
    """
    report = validate_triple(plan.triple)
    if report:
        raise TripleValidationError(report)
    if not plan.recipes:
        raise RecipeError("an assembly plan needs at least one recipe")
    first = plan.recipes[0]
    for recipe in plan.recipes:
        if replace(recipe, lam=first.lam) != first:
            raise RecipeError(
                f"recipes {first.slug()} and {recipe.slug()} differ in more than lambda"
            )

    pre, lvlm, rm = plan.triple.pre, plan.triple.lvlm, plan.triple.rm
    shared: dict[str, Tensor] = {}

    for role in (Role.VISION_ENCODER, Role.ADAPTER):
        for name in lvlm.cmap.names(role):
            shared[name] = lvlm.ckpt.tensors[name]

    trans_names = lvlm.cmap.names(Role.TRANSFORMER)
    merged_trans = merge_transformer(
        first,
        *({n: model.ckpt.tensors[n].array() for n in trans_names} for model in (pre, lvlm, rm)),
        jobs=jobs,
        lams=[recipe.lam for recipe in plan.recipes],
        dtypes={n: lvlm.ckpt.tensors[n].dtype for n in trans_names},
    )

    aligned = align_vocab(pre.ckpt.vocab, lvlm.ckpt.vocab, rm.ckpt.vocab)
    tail: dict[str, Tensor] = {}
    for name in lvlm.cmap.names(Role.EMBEDDING):
        rows = merge_embedding_rows(
            aligned,
            pre.ckpt.tensors[name].to_f32(),
            lvlm.ckpt.tensors[name].to_f32(),
            rm.ckpt.tensors[name].to_f32(),
            first.method,
        )
        tail[name] = Tensor.from_f32(name, rows, lvlm.ckpt.tensors[name].dtype)

    for name in rm.cmap.names(Role.RM_HEAD):
        if name in shared or name in trans_names or name in tail:
            raise VlrmergeError(f"reward head name {name} collides with an lvlm tensor")
        tail[name] = rm.ckpt.tensors[name]

    vocab = aligned.output_vocab()
    checkpoints = []
    for recipe, trans in zip(plan.recipes, merged_trans):
        merged = Checkpoint(
            tensors={**shared, **trans, **tail},
            vocab=vocab,
            metadata=recorded_provenance(recipe, plan.provenance),
        )
        structure = check_merged_structure(merged, plan.triple)
        if structure:
            raise VlrmergeError(
                "assembled checkpoint failed structural checks:\n  " + "\n  ".join(structure)
            )
        checkpoints.append(merged)
    return checkpoints


def write_merged(merged: Checkpoint, path: str | Path) -> Path:
    """Write the merged vocabulary sidecar, then the checkpoint.

    Each file is replaced atomically and the checkpoint comes last, so an
    existing checkpoint at ``path`` means the whole variant was written.
    """
    path = Path(path)
    write_vocab(merged.vocab, default_vocab_path(path))
    write_checkpoint(merged, path)
    return path
