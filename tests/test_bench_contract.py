"""The names and call forms the benchmark in ``perfbench/`` relies on.

The benchmark's tracer wraps functions by the names their callers look them
up by, and its checker and replay planner import parts of the package. A
rename that breaks them would otherwise show only when the benchmark runs.
"""

import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import check  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import replay  # noqa: E402,F401
import spans  # noqa: E402

from vlrmerge import (  # noqa: E402
    MergeMethod,
    MergeRecipe,
    Role,
    align_vocab,
    assemble_vlrm,
    assembly,
    classify_triple,
    load_manifest_config,
    merging,
    read_checkpoint,
)

from helpers import toy_triple, write_triple  # noqa: E402

# a gen.py triple small enough for a unit test, in the benchmark's layout and dtype
TINY = gen.Scale(hidden=16, heads=2, kv_heads=1, intermediate=24, layers=2, cross_layers=(1,),
                 base_vocab=24, vision_hidden=8, vision_layers=1, extra_tokens=3)


def test_tracer_wraps_and_restores_every_name():
    tracer = spans.Tracer("t")
    tracer.install()
    originals = list(tracer._originals)
    try:
        assert originals
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr


def test_class_probe_call_form():
    rng = np.random.default_rng(0)
    names = ("model.layers.0.self_attn.q_proj.weight", "model.norm.weight")
    shapes = ((4, 4), (4,))
    pre, lvlm, rm = (
        {name: rng.standard_normal(shape).astype(np.float32) for name, shape in zip(names, shapes)}
        for _ in range(3)
    )
    recipe = MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4)
    [merged] = merging.merge_transformer(recipe, pre, lvlm, rm, jobs=1)
    assert set(merged) == set(names)
    assert child.shape_class(names[0], shapes[0]) == "attention"


def test_traced_assembly_hands_merge_transformer_sized_values(monkeypatch, tmp_path):
    # the tracer's merge_call annotator sums ``.size`` over the second argument's
    # values, and its rows annotator reads ``shape[0]`` of the embedding merge's result
    seen = {}
    real = assembly.merge_transformer

    def spy(recipe, pre, *args, **kwargs):
        seen.update({name: value.size for name, value in pre.items()})
        return real(recipe, pre, *args, **kwargs)

    monkeypatch.setattr(assembly, "merge_transformer", spy)
    paths = write_triple(tmp_path, *toy_triple(np.random.default_rng(0)))
    triple = classify_triple(*(read_checkpoint(paths[k]) for k in ("pre", "lvlm", "rm")), load_manifest_config())
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        with tracer.span("cli.main"):
            recipe = MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4)
            assemble_vlrm([recipe], triple, [tmp_path / "merged.safetensors"], jobs=2)
    finally:
        tracer.uninstall()
    numel = {name: triple.pre.ckpt.tensors[name].numel for name in triple.pre.cmap.names(Role.TRANSFORMER)}
    assert seen == numel
    [call] = [s for s in tracer.spans if s["name"] == "merging.merge_transformer"]
    assert "error" not in call
    assert call["method"] == "ties" and call["numel"] == sum(numel.values())
    [rows] = [s for s in tracer.spans if s["name"] == "embeddings.merge_embedding_rows"]
    vocabs = (model.ckpt.vocab for model in (triple.pre, triple.lvlm, triple.rm))
    assert "error" not in rows and rows["rows"] == len(align_vocab(*vocabs).tokens)


def test_streamed_output_passes_the_benchmark_checks(tmp_path):
    # check.py re-reads a merged file with read_checkpoint and slices ``.data``;
    # child.class_probes calls ``Tensor.to_f32()`` on the tensors read_checkpoint
    # returns and hands float32 maps to merge_transformer with jobs=1
    paths = gen.write_triple(tmp_path / "in", TINY, 0)
    inputs = check.Inputs(paths)
    out = tmp_path / "merged.safetensors"
    recipe = MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4)
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        assemble_vlrm([recipe], inputs.triple, [out], jobs=2)
    finally:
        tracer.uninstall()
    assert check.check_merged(inputs, out, "ties", 0.7, 0.4, None) == []
    merged = read_checkpoint(out)
    name = "model.embed_tokens.weight"
    tensor = merged.tensors[name]
    width = tensor.shape[1]
    assert bytes(tensor.data[width * 2 : width * 4]) == tensor.array()[1].tobytes()
    assert tensor.to_f32().shape == tensor.shape
    probes = child.class_probes(tracer.merge_calls, {kind: str(path) for kind, path in paths.items()})
    assert set(probes["ties"]) == {"attention", "mlp", "norm"}
