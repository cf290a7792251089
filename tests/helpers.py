"""Builders for synthetic model triples used across the tests."""

import json
from pathlib import Path

import numpy as np

from vlrmerge import (
    Checkpoint,
    Dtype,
    MergeMethod,
    MergeRecipe,
    Tensor,
    classify_triple,
    load_manifest_config,
    merge_tensor,
    write_checkpoint,
    write_vocab,
)
from vlrmerge.tensorstore import default_vocab_path


def make_tensor(name: str, values, dtype: Dtype = Dtype.F32) -> Tensor:
    return Tensor.from_f32(name, np.asarray(values, dtype=np.float32), dtype)


def trim_step(values, density: float) -> np.ndarray:
    """The magnitude trim of one task vector, seen through ``merge_tensor``.

    ties with lam 1 and a zero base and zero rm: the lvlm task vector is the
    values themselves, and sign election and the disjoint mean pass every
    survivor of the trim through unchanged.
    """
    values = np.asarray(values, dtype=np.float32)
    zeros = np.zeros_like(values)
    recipe = MergeRecipe(MergeMethod.TIES, lam=1.0, density=density)
    return merge_tensor(recipe, "t", zeros, values, zeros)


def drop_step(values, density: float, seed: int, origin: str = "lvlm", name: str = "t") -> np.ndarray:
    """The DARE drop-and-rescale of one task vector, seen through ``merge_tensor``.

    dare-task-arithmetic with lam 1, a zero base and the other model zero: the
    values sit on the model whose ``origin`` stream draws the drop mask.
    """
    values = np.asarray(values, dtype=np.float32)
    zeros = np.zeros_like(values)
    lvlm, rm = (values, zeros) if origin == "lvlm" else (zeros, values)
    recipe = MergeRecipe(MergeMethod.DARE_TASK_ARITHMETIC, lam=1.0, density=density, seed=seed)
    return merge_tensor(recipe, name, zeros, lvlm, rm)


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
