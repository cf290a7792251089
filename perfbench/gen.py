"""Deterministic synthetic inputs for the vlrmerge benchmark.

A triple is three checkpoint files (pre-trained base, vision-language model,
text reward model) with Llama-3.2-Vision / Tulu tensor names, stored in bf16,
plus their vocabulary sidecars. Fine-tuned weights are the base weights plus
small noise, rounded to bf16, so task vectors are quantised and magnitude ties
at the TIES cut occur naturally. Every value is a pure function of the seed
and the tensor name, and the files are written one tensor at a time, so memory
stays at the size of the largest tensor.

Also writes the 2000-pair, 4-domain pairwise validation file.

    python3 perfbench/gen.py --scale merge-sparse --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIB = 1 << 20
DOMAINS = ("general", "hallucination", "reasoning", "safety")
# std of base weights (Llama init) and of the fine-tuning noise on top of them
BASE_STD = 0.02
NOISE_STD = 0.002
NORM_NOISE_STD = 0.01


@dataclass(frozen=True)
class Scale:
    """Shapes of one synthetic triple."""

    hidden: int
    heads: int
    kv_heads: int
    intermediate: int
    layers: int
    cross_layers: tuple[int, ...]
    base_vocab: int  # tokens known to all three models
    vision_hidden: int
    vision_layers: int
    extra_tokens: int = 8  # size of each of the pre-only, lvlm-only, rm-only and shared sets


SCALES = {
    # transformer-dominated: the merge kernel does most of the work
    "merge-sparse": Scale(hidden=512, heads=8, kv_heads=2, intermediate=1408, layers=4,
                          cross_layers=(1, 3), base_vocab=2048, vision_hidden=256, vision_layers=1),
    # same transformer; embedding rows >= transformer params and a vision tower
    # about the size of the transformer, so I/O and the embedding merge dominate
    "merge-dense": Scale(hidden=512, heads=8, kv_heads=2, intermediate=1408, layers=4,
                         cross_layers=(1, 3), base_vocab=22528, vision_hidden=512, vision_layers=4,
                         extra_tokens=64),
    "sweep-ties": Scale(hidden=384, heads=6, kv_heads=2, intermediate=1024, layers=2,
                        cross_layers=(1,), base_vocab=1024, vision_hidden=256, vision_layers=1),
}


def bf16_bits(values: np.ndarray) -> np.ndarray:
    """Round float32 to bf16 (nearest-even) and return the uint16 patterns; no NaNs expected."""
    bits = np.ascontiguousarray(values, dtype="<f4").view(np.uint32)
    return ((bits + ((bits >> np.uint32(16)) & np.uint32(1)) + np.uint32(0x7FFF))
            >> np.uint32(16)).astype("<u2")


def bf16_round(values: np.ndarray) -> np.ndarray:
    """float32 values after a round trip through bf16."""
    return (bf16_bits(values).astype(np.uint32) << np.uint32(16)).view(np.float32)


def _rng(seed: int, *labels: str) -> np.random.Generator:
    digest = hashlib.sha256("\x00".join(labels).encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])


def _noise(seed: int, shape, std: float, *labels: str) -> np.ndarray:
    """Zero-mean uniform values with standard deviation ``std`` (uniform draws are cheap)."""
    u = _rng(seed, *labels).random(shape, dtype=np.float32)
    return (u - np.float32(0.5)) * np.float32(std * 12 ** 0.5)


# ---------------------------------------------------------------------------
# tensor layout


def vocabularies(scale: Scale) -> dict[str, list[str]]:
    """Token lists in row order; the four embedding rules each get their own tokens.

    base-known: in pre (and in both fine-tuned models); lvlm-only; rm-only;
    shared: in both fine-tuned models but not in pre. Pre-only tokens are
    dropped from the merged vocabulary.
    """
    n = scale.extra_tokens
    base = [f"t{i}" for i in range(scale.base_vocab)]
    pre_only = [f"<|reserved_{j}|>" for j in range(n)]
    lvlm_only = [f"<|image_{j}|>" for j in range(n)]
    rm_only = [f"<|rm_{j}|>" for j in range(n)]
    shared = [f"<|shared_{j}|>" for j in range(n)]
    return {
        "pre": base + pre_only,
        "lvlm": base + shared + lvlm_only,
        "rm": base + rm_only + shared,
    }


def transformer_shapes(scale: Scale) -> dict[str, tuple[int, ...]]:
    h, head_dim = scale.hidden, scale.hidden // scale.heads
    kv = scale.kv_heads * head_dim
    shapes: dict[str, tuple[int, ...]] = {"model.norm.weight": (h,)}
    for i in range(scale.layers):
        p = f"model.layers.{i}"
        shapes.update({
            f"{p}.self_attn.q_proj.weight": (h, h),
            f"{p}.self_attn.k_proj.weight": (kv, h),
            f"{p}.self_attn.v_proj.weight": (kv, h),
            f"{p}.self_attn.o_proj.weight": (h, h),
            f"{p}.mlp.gate_proj.weight": (scale.intermediate, h),
            f"{p}.mlp.up_proj.weight": (scale.intermediate, h),
            f"{p}.mlp.down_proj.weight": (h, scale.intermediate),
            f"{p}.input_layernorm.weight": (h,),
            f"{p}.post_attention_layernorm.weight": (h,),
        })
    return shapes


def lvlm_only_shapes(scale: Scale) -> dict[str, tuple[int, ...]]:
    """Cross-attention adapters, projector and vision tower, copied verbatim by a merge."""
    h, head_dim = scale.hidden, scale.hidden // scale.heads
    kv = scale.kv_heads * head_dim
    vh = scale.vision_hidden
    shapes: dict[str, tuple[int, ...]] = {}
    for i in scale.cross_layers:
        p = f"model.layers.{i}"
        shapes.update({
            f"{p}.cross_attn.q_proj.weight": (h, h),
            f"{p}.cross_attn.k_proj.weight": (kv, h),
            f"{p}.cross_attn.v_proj.weight": (kv, h),
            f"{p}.cross_attn.o_proj.weight": (h, h),
            f"{p}.cross_attn.q_norm.weight": (head_dim,),
            f"{p}.cross_attn.k_norm.weight": (head_dim,),
            f"{p}.cross_attn_attn_gate": (1,),
            f"{p}.cross_attn_mlp_gate": (1,),
        })
    shapes["multi_modal_projector.weight"] = (h, vh)
    shapes["multi_modal_projector.bias"] = (h,)
    shapes["vision_model.patch_embedding.weight"] = (vh, 3, 14, 14)
    shapes["vision_model.layernorm_pre.weight"] = (vh,)
    for i in range(scale.vision_layers):
        p = f"vision_model.transformer.layers.{i}"
        for proj in ("q_proj", "k_proj", "v_proj", "o_proj"):
            shapes[f"{p}.self_attn.{proj}.weight"] = (vh, vh)
        shapes[f"{p}.mlp.fc1.weight"] = (4 * vh, vh)
        shapes[f"{p}.mlp.fc2.weight"] = (vh, 4 * vh)
        shapes[f"{p}.input_layernorm.weight"] = (vh,)
        shapes[f"{p}.post_attention_layernorm.weight"] = (vh,)
    return shapes


def model_shapes(scale: Scale) -> dict[str, dict[str, tuple[int, ...]]]:
    vocab = {kind: len(tokens) for kind, tokens in vocabularies(scale).items()}
    trans = transformer_shapes(scale)
    h = scale.hidden
    return {
        "pre": {**trans, "model.embed_tokens.weight": (vocab["pre"], h),
                "lm_head.weight": (vocab["pre"], h)},
        "lvlm": {**trans, **lvlm_only_shapes(scale),
                 "model.embed_tokens.weight": (vocab["lvlm"], h),
                 "lm_head.weight": (vocab["lvlm"], h)},
        "rm": {**trans, "model.embed_tokens.weight": (vocab["rm"], h), "score.weight": (1, h)},
    }


def sizes(scale: Scale) -> dict[str, float]:
    """Input size figures quoted in the benchmark's description."""
    shapes = model_shapes(scale)
    numel = {kind: {n: int(np.prod(s)) for n, s in m.items()} for kind, m in shapes.items()}
    return {
        "input_mib": round(sum(sum(m.values()) for m in numel.values()) * 2 / MIB, 1),
        "transformer_params": sum(int(np.prod(s)) for s in transformer_shapes(scale).values()),
        "vocab_rows": shapes["lvlm"]["model.embed_tokens.weight"][0],
        "vision_params": sum(v for n, v in numel["lvlm"].items() if n.startswith("vision_model.")),
    }


# ---------------------------------------------------------------------------
# values


def _embedding_values(scale: Scale, seed: int) -> dict[str, np.ndarray]:
    vocabs = vocabularies(scale)
    h = scale.hidden
    name = "model.embed_tokens.weight"
    pre_rows = {tok: i for i, tok in enumerate(vocabs["pre"])}
    base = bf16_round(_noise(seed, (len(vocabs["pre"]), h), BASE_STD, name, "pre"))
    out = {"pre": base}
    for kind in ("lvlm", "rm"):
        tokens = vocabs[kind]
        fresh = _noise(seed, (len(tokens), h), BASE_STD, name, kind, "fresh")
        noise = _noise(seed, (len(tokens), h), NOISE_STD, name, kind, "noise")
        known = np.array([tok in pre_rows for tok in tokens])
        rows = np.array([pre_rows.get(tok, 0) for tok in tokens])
        values = np.where(known[:, None], base[rows] + noise, fresh)
        out[kind] = bf16_round(values)
    return out


def _shared_values(name: str, shape, seed: int) -> dict[str, np.ndarray]:
    """Base weights and the two fine-tuned copies of one transformer tensor."""
    if len(shape) == 1:
        base = bf16_round(1.0 + _noise(seed, shape, 0.05, name, "pre"))
        std = NORM_NOISE_STD
    else:
        base = bf16_round(_noise(seed, shape, BASE_STD, name, "pre"))
        std = NOISE_STD
    return {
        "pre": base,
        "lvlm": bf16_round(base + _noise(seed, shape, std, name, "lvlm")),
        "rm": bf16_round(base + _noise(seed, shape, std, name, "rm")),
    }


def _own_values(kind: str, name: str, shape, seed: int) -> np.ndarray:
    if len(shape) == 1:
        return bf16_round(1.0 + _noise(seed, shape, 0.05, name, kind))
    return bf16_round(_noise(seed, shape, BASE_STD, name, kind))


def _header(shapes: dict[str, tuple[int, ...]]) -> bytes:
    header, offset = {}, 0
    for name in sorted(shapes):
        nbytes = int(np.prod(shapes[name])) * 2
        header[name] = {"dtype": "BF16", "shape": list(shapes[name]),
                        "data_offsets": [offset, offset + nbytes]}
        offset += nbytes
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack("<Q", len(blob)) + blob


def write_triple(out_dir: Path, scale: Scale, seed: int) -> dict[str, Path]:
    """Write pre/lvlm/rm checkpoints and `.vocab` sidecars; returns the checkpoint paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    shapes = model_shapes(scale)
    paths = {kind: out_dir / f"{kind}.safetensors" for kind in shapes}
    names = sorted(set().union(*shapes.values()))
    files = {kind: open(path, "wb") for kind, path in paths.items()}
    try:
        for kind, f in files.items():
            f.write(_header(shapes[kind]))
        # walking the union in sorted order appends each file's tensors in its own sorted order
        for name in names:
            holders = [kind for kind in shapes if name in shapes[kind]]
            if name == "model.embed_tokens.weight":
                values = _embedding_values(scale, seed)
            elif len(holders) == 3:
                values = _shared_values(name, shapes["pre"][name], seed)
            else:
                values = {kind: _own_values(kind, name, shapes[kind][name], seed) for kind in holders}
            for kind in holders:
                files[kind].write(bf16_bits(values[kind]).tobytes())
    finally:
        for f in files.values():
            f.close()
    for kind, tokens in vocabularies(scale).items():
        Path(str(paths[kind]) + ".vocab").write_text("".join(t + "\n" for t in tokens), encoding="utf-8")
    return paths


def write_pairwise(path: Path, seed: int, n: int = 2000) -> Path:
    """Pairwise preference records over four domains, each with an image reference."""
    rng = _rng(seed, "pairwise")
    subjects = ("a red bus", "two cats", "a chart", "a receipt", "a street sign", "a kitchen")
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            subject = subjects[int(rng.integers(len(subjects)))]
            record = {
                "id": f"pair{i}",
                "domain": DOMAINS[i % len(DOMAINS)],
                "instruction": f"What is shown in image {i}?",
                "chosen_text": f"The image shows {subject} (answer {i}).",
                "rejected_text": f"The image shows nothing of note (answer {i}, v{int(rng.integers(1000))}).",
                "image_path": f"images/{i:05d}.jpg",
            }
            f.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_triple(args.out, SCALES[args.scale], args.seed)
    write_pairwise(args.out / "pairwise.jsonl", args.seed)
    print(json.dumps(sizes(SCALES[args.scale])))


if __name__ == "__main__":
    main()
