"""Builders for synthetic model triples used across the tests."""

import itertools
import json
from pathlib import Path

import numpy as np

from vlrmerge import (
    Checkpoint,
    ComponentMap,
    Dtype,
    MergeMethod,
    MergeRecipe,
    ModelTriple,
    Role,
    Tensor,
    assemble_vlrm,
    assembly,
    classify_triple,
    generate_grid,
    load_manifest_config,
    merge_transformer,
    merging,
    read_checkpoint,
    run_sweep,
    write_checkpoint,
    write_vocab,
)
from vlrmerge.components import ClassifiedModel
from vlrmerge.tensorstore import as_tensor, default_vocab_path


_outputs = itertools.count()

# JSON texts that Python's parser rejects past its grammar: an integer past the 4,300-digit limit on int
# conversion (a ValueError that is no JSONDecodeError) and an array nested too deep (a RecursionError)
JSON_PAST_THE_PARSER = {
    "long-integer": '{"id": 1' + "0" * 4400 + "}",
    "deep-array": "[" * 100_000 + "]" * 100_000,
}


def assemble(recipes, triple, paths, provenance=None, jobs=None) -> None:
    """``assemble_vlrm`` of each recipe into its path, on the plan of ``recipes`` on ``triple`` (``plan_merge``)."""
    assemble_vlrm(assembly.plan_merge(recipes, triple, jobs), dict(zip(recipes, paths, strict=True)), provenance)


def sweep_on(config, triple, dataset, scorer_factory, out_dir, provenance, jobs=None):
    """``run_sweep`` on the plan of ``config``'s grid on ``triple`` (``plan_merge``)."""
    plan = assembly.plan_merge(generate_grid(config), triple, jobs)
    return run_sweep(config, plan, dataset, scorer_factory, out_dir, provenance)


def assemble_in(directory: Path, recipes, triple, provenance=None, jobs=None) -> list[Checkpoint]:
    """``assemble`` into fresh files under ``directory``; the written checkpoints, opened."""
    paths = [directory / f"merged-{next(_outputs)}.safetensors" for _ in recipes]
    assemble(recipes, triple, paths, provenance, jobs)
    return [read_checkpoint(path) for path in paths]


def footprint(recipes, pre_trans) -> int:
    """The bytes a ``merge_transformer`` worker maps for ``recipes`` on tensors of ``pre_trans``'s sizes."""
    return merging._Buffers.layout(merging._kernel_slots(*merging._buffer_sizes(recipes, pre_trans)))[1]


def make_tensor(name: str, values, dtype: Dtype = Dtype.F32) -> Tensor:
    return Tensor.from_f32(name, np.asarray(values, dtype=np.float32), dtype)


def merge_one(recipe: MergeRecipe, name: str, pre, lvlm, rm) -> np.ndarray:
    """One tensor merged at the recipe's lambda by ``merge_transformer``, as a storage view."""
    [merged] = merge_transformer(recipe, {name: pre}, {name: lvlm}, {name: rm}, jobs=1)
    return merged[name].array()


class CollectingWriter:
    """Stands for a ``CheckpointWriter`` of one payload of ``nbytes`` bytes, which it collects in memory."""

    def __init__(self, nbytes: int):
        self.payload = bytearray(nbytes)

    def write(self, name: str, piece, at: int = 0) -> None:
        view = memoryview(piece).cast("B")
        self.payload[at : at + len(view)] = view


EMBEDDING = "model.embed_tokens.weight"


def merge_embedding(aligned, pre, lvlm, rm, method: MergeMethod, jobs: int = 2) -> np.ndarray:
    """The embedding matrices ``pre``, ``lvlm`` and ``rm`` merged under ``aligned`` as ``assemble_vlrm`` merges them.

    Each matrix, a storage view or a ``Tensor``, is the one embedding of its
    model in an embedding-only triple, a view as the in-memory tensor of its
    bytes. The triple's pieces (``assembly._pieces``: the output blocks,
    then the checks of the input rows no block reads) run on ``jobs``
    workers (``merging.run_workers``) into a ``CollectingWriter``. Each
    worker's block holds ``merging._BLOCK`` elements, or one row when that
    is wider, as in an assembly whose largest transformer tensor is at
    least that large. Returns the merged matrix as a storage view.
    """
    sources = [as_tensor(EMBEDDING, source) for source in (pre, lvlm, rm)]
    models = [ClassifiedModel(Checkpoint({EMBEDDING: t}), ComponentMap({EMBEDDING: Role.EMBEDDING})) for t in sources]
    (n, width), dtype = (len(aligned.tokens), sources[1].shape[1]), sources[1].dtype
    writer = CollectingWriter(n * width * dtype.itemsize)
    block = max(merging._BLOCK, width)
    slots = merging._kernel_slots(0, block, False)
    pieces = assembly._pieces(method, aligned, ModelTriple(*models), [writer], block)
    merging.run_workers(pieces, jobs, lambda piece, space: piece(space), lambda: merging._Buffers(slots))
    return np.frombuffer(writer.payload, dtype.array_dtype).reshape(n, width)


def trim_step(values, density: float) -> np.ndarray:
    """The magnitude trim of one task vector, seen through ``merge_one``.

    ties with lam 1 and a zero base and zero rm: the lvlm task vector is the
    values themselves, and sign election and the disjoint mean pass every
    survivor of the trim through unchanged.
    """
    values = np.asarray(values, dtype=np.float32)
    zeros = np.zeros_like(values)
    recipe = MergeRecipe(MergeMethod.TIES, lam=1.0, density=density)
    return merge_one(recipe, "t", zeros, values, zeros)


def drop_step(values, density: float, seed: int, origin: str = "lvlm", name: str = "t") -> np.ndarray:
    """The DARE drop-and-rescale of one task vector, seen through ``merge_one``.

    dare-task-arithmetic with lam 1, a zero base and the other model zero: the
    values sit on the model whose ``origin`` stream draws the drop mask.
    """
    values = np.asarray(values, dtype=np.float32)
    zeros = np.zeros_like(values)
    lvlm, rm = (values, zeros) if origin == "lvlm" else (zeros, values)
    recipe = MergeRecipe(MergeMethod.DARE_TASK_ARITHMETIC, lam=1.0, density=density, seed=seed)
    return merge_one(recipe, name, zeros, lvlm, rm)


def toy_triple(
    rng: np.random.Generator,
    hidden: int = 8,
    layers: int = 2,
    lvlm_vocab: int = 24,
    shared_vocab: int = 20,
    rm_extra: int = 4,
    pre_vocab: int = 16,
    trans_dtype: Dtype = Dtype.F32,
    emb_dtype: Dtype = Dtype.F32,
    tied_output_embedding: bool = False,
):
    """Build (pre, lvlm, rm) checkpoints that pass triple validation.

    The RM shares the first ``shared_vocab`` LVLM tokens and adds ``rm_extra``
    of its own; the base model knows the first ``pre_vocab`` tokens.
    """

    def values(*shape):
        return rng.uniform(-2.0, 2.0, size=shape).astype(np.float32)

    trans_names = []
    for i in range(layers):
        trans_names += [f"model.layers.{i}.self_attn.weight", f"model.layers.{i}.mlp.weight"]
    trans_names.append("model.norm.weight")

    base_trans = {
        name: values(hidden) if name.endswith("norm.weight") else values(hidden, hidden)
        for name in trans_names
    }

    def trans_tensors(offset_scale: float):
        return {
            name: make_tensor(name, base + offset_scale * values(*base.shape), trans_dtype)
            for name, base in base_trans.items()
        }

    lvlm_tokens = [f"t{i}" for i in range(lvlm_vocab)]
    rm_tokens = [f"t{i}" for i in range(shared_vocab)] + [f"r{j}" for j in range(rm_extra)]
    pre_tokens = [f"t{i}" for i in range(pre_vocab)]

    def emb_tensors(tokens: list[str], tied: bool):
        tensors = {"model.embed_tokens.weight": make_tensor(
            "model.embed_tokens.weight", values(len(tokens), hidden), emb_dtype)}
        if tied:
            tensors["model.embed_tokens.tied_out"] = make_tensor(
                "model.embed_tokens.tied_out", values(len(tokens), hidden), emb_dtype)
        return tensors

    pre = Checkpoint(
        tensors={
            **emb_tensors(pre_tokens, tied_output_embedding),
            **trans_tensors(0.0),
            "lm_head.weight": make_tensor("lm_head.weight", values(pre_vocab, hidden)),
        },
        vocab={t: i for i, t in enumerate(pre_tokens)},
    )
    lvlm = Checkpoint(
        tensors={
            "vision_model.encoder.weight": make_tensor(
                "vision_model.encoder.weight", values(hidden, hidden), Dtype.F16),
            "vision_model.patch.weight": make_tensor(
                "vision_model.patch.weight", values(hidden, hidden), Dtype.F16),
            "multi_modal_projector.weight": make_tensor(
                "multi_modal_projector.weight", values(hidden, hidden)),
            **{
                f"model.layers.{i}.cross_attn.weight": make_tensor(
                    f"model.layers.{i}.cross_attn.weight", values(hidden, hidden))
                for i in range(layers)
            },
            **emb_tensors(lvlm_tokens, tied_output_embedding),
            **trans_tensors(0.15),
            "lm_head.weight": make_tensor("lm_head.weight", values(lvlm_vocab, hidden)),
        },
        vocab={t: i for i, t in enumerate(lvlm_tokens)},
    )
    rm = Checkpoint(
        tensors={
            **emb_tensors(rm_tokens, tied_output_embedding),
            **trans_tensors(0.1),
            "score.weight": make_tensor("score.weight", values(1, hidden)),
        },
        vocab={t: i for i, t in enumerate(rm_tokens)},
    )

    # embedding tensors must agree name-by-name in dtype/width; pre was built
    # from pre_tokens above, so lvlm/rm only differ in row count, as intended
    return pre, lvlm, rm


def classified_toy_triple(rng: np.random.Generator, **kwargs):
    pre, lvlm, rm = toy_triple(rng, **kwargs)
    return classify_triple(pre, lvlm, rm, load_manifest_config())


def write_triple(tmp_path: Path, pre: Checkpoint, lvlm: Checkpoint, rm: Checkpoint) -> dict:
    paths = {}
    for label, ckpt in (("pre", pre), ("lvlm", lvlm), ("rm", rm)):
        path = tmp_path / f"{label}.safetensors"
        write_checkpoint(ckpt, path)
        write_vocab(ckpt.vocab, default_vocab_path(path))
        paths[label] = path
    return paths


def inspected_and_source_roles(paths: dict, out: Path) -> tuple[dict, dict]:
    """Each tensor of the merged checkpoint ``out`` and its role: by ``inspect --json``, and by its source.

    The source role is the one the built-in rules of the model that holds
    the name give it: the lvlm, or else the rm. ``paths`` are the inputs.
    """
    from click.testing import CliRunner

    from vlrmerge.cli import main

    result = CliRunner().invoke(main, ["inspect", str(out), "--json"])
    assert result.exit_code == 0, result.output
    inspected = {row["name"]: row["role"] for row in json.loads(result.stdout)["tensors"]}
    triple = classify_triple(*(read_checkpoint(paths[kind]) for kind in ("pre", "lvlm", "rm")), load_manifest_config())
    lvlm, rm = triple.lvlm.cmap.assignments, triple.rm.cmap.assignments
    return inspected, {name: (lvlm[name] if name in lvlm else rm[name]).value for name in inspected}


def write_pairwise_dataset(path: Path, n: int, domains=("general", "hallucination", "reasoning")):
    """Synthetic pairwise preference file with distinct response texts."""
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            record = {
                "id": f"pair{i}",
                "domain": domains[i % len(domains)],
                "instruction": f"describe scene {i}",
                "chosen_text": f"a good answer number {i}",
                "rejected_text": f"a bad answer number {i}",
                "image_path": f"images/{i}.jpg",
            }
            f.write(json.dumps(record) + "\n")
    return path


def write_bon_dataset(path: Path, n: int, candidates: int = 8):
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            record = {
                "id": f"q{i}",
                "instruction": f"question {i}",
                "candidates": [
                    {"text": f"candidate {i}-{j}", "correct": j == (i % candidates)}
                    for j in range(candidates)
                ],
                "image_path": f"images/{i}.jpg",
            }
            f.write(json.dumps(record) + "\n")
    return path
