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

import check  # noqa: E402,F401
import child  # noqa: E402
import replay  # noqa: E402,F401
import spans  # noqa: E402

from vlrmerge import (  # noqa: E402
    MergeMethod,
    MergeRecipe,
    Role,
    align_vocab,
    assemble_vlrm,
    assembly,
    merging,
)

from helpers import classified_toy_triple  # noqa: E402


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


def test_traced_assembly_hands_merge_transformer_sized_values(monkeypatch):
    # the tracer's merge_call annotator sums ``.size`` over the second argument's
    # values, and its rows annotator reads ``shape[0]`` of the embedding merge's result
    seen = {}
    real = assembly.merge_transformer

    def spy(recipe, pre, *args, **kwargs):
        seen.update({name: value.size for name, value in pre.items()})
        return real(recipe, pre, *args, **kwargs)

    monkeypatch.setattr(assembly, "merge_transformer", spy)
    triple = classified_toy_triple(np.random.default_rng(0))
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        with tracer.span("cli.main"):
            assemble_vlrm([MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4)], triple, jobs=2)
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
