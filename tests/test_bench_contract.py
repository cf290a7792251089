"""The names and call forms the benchmark in ``perfbench/`` relies on.

The benchmark's tracer wraps functions by the names their callers look them
up by, and its checker and replay planner import parts of the package. A
rename that breaks them would otherwise show only when the benchmark runs.
"""

import ast
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from click.testing import CliRunner

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import check  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import vlrmerge  # noqa: E402
from vlrmerge import (  # noqa: E402
    MergeMethod,
    MergeRecipe,
    Role,
    align_vocab,
    assembly,
    classify_triple,
    load_manifest_config,
    merging,
    read_checkpoint,
)
from vlrmerge.cli import main  # noqa: E402
from vlrmerge.sweep import SweepConfig, generate_grid  # noqa: E402

from helpers import assemble, inspected_and_source_roles, toy_triple, write_triple  # noqa: E402

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


def test_every_import_kept_for_the_tracer_is_one_it_wraps():
    # an import kept only so the tracer can wrap it by that name goes once no wrap names it
    marker = "the benchmark's tracer wraps it by this name"
    kept = []
    for source in sorted(Path(vlrmerge.__file__).parent.glob("*.py")):
        lines = source.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom):
                kept += [(source.stem, alias.asname or alias.name) for alias in node.names
                         if marker in lines[alias.lineno - 1]]
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        wrapped = {(owner.__name__.rpartition(".")[2], attr) for owner, attr, _ in tracer._originals}
    finally:
        tracer.uninstall()
    assert kept
    for module, name in kept:
        assert (module, name) in wrapped, f"vlrmerge.{module} imports {name} for a wrap the tracer no longer makes"


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
            assemble([recipe], triple, [tmp_path / "merged.safetensors"], jobs=2)
    finally:
        tracer.uninstall()
    numel = {name: triple.pre.ckpt.tensors[name].numel for name in triple.pre.cmap.names(Role.TRANSFORMER)}
    assert seen == numel
    [call] = [s for s in tracer.spans if s["name"] == "merging.merge_transformer"]
    assert "error" not in call
    assert call["method"] == "ties" and call["numel"] == sum(numel.values())
    # the embedding is merged a block of rows at a time: the blocks' rows add up to the output vocabulary
    blocks = [s for s in tracer.spans if s["name"] == "embeddings.merge_embedding_rows"]
    vocabs = (model.ckpt.vocab for model in (triple.pre, triple.lvlm, triple.rm))
    assert all("error" not in s for s in blocks) and sum(s["rows"] for s in blocks) == len(align_vocab(*vocabs).tokens)


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
        assemble([recipe], inputs.triple, [out], jobs=2)
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


def test_inspect_gives_each_merged_tensor_its_source_role(tmp_path):
    # merge-dense's third command inspects a merged output with the built-in rules
    paths = gen.write_triple(tmp_path / "in", TINY, 0)
    out = tmp_path / "merged.safetensors"
    result = CliRunner().invoke(main, ["merge", *(arg for kind in ("pre", "lvlm", "rm") for arg in (f"--{kind}", str(paths[kind]))),
                                       "--method", "linear", "--lambda", "0.7", "--out", str(out), "--jobs", "2"])
    assert result.exit_code == 0, result.output
    inspected, source = inspected_and_source_roles(paths, out)
    assert inspected == source
    assert set(inspected.values()) == {"vision_encoder", "adapter", "embedding", "transformer", "rm_head"}


def test_traced_grid_sweep_is_one_merge_span_that_class_probes_rerun(monkeypatch, tmp_path):
    # the default 3 lambda x 4 density TIES grid is one merge_transformer call, and the
    # shape-class probes run on the recipe its span recorded
    paths = gen.write_triple(tmp_path / "in", TINY, 0)
    inputs = check.Inputs(paths)
    recipes = generate_grid(SweepConfig(MergeMethod.TIES))
    assert len(recipes) == 12
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        with tracer.span("cli.main"):
            assemble(recipes, inputs.triple, [tmp_path / f"{r.slug()}.safetensors" for r in recipes], jobs=2)
    finally:
        tracer.uninstall()
    [call] = [s for s in tracer.spans if s["name"] == "merging.merge_transformer"]
    assert "error" not in call and call["method"] == "ties"
    recorded, _ = tracer.merge_calls["ties"]
    assert recorded == recipes[0]
    probed = []
    real = merging.merge_transformer

    def spy(recipe, *args, **kwargs):
        probed.append(recipe)
        return real(recipe, *args, **kwargs)

    monkeypatch.setattr(merging, "merge_transformer", spy)
    probes = child.class_probes(tracer.merge_calls, {kind: str(path) for kind, path in paths.items()})
    assert set(probes["ties"]) == {"attention", "mlp", "norm"}
    assert probed == [recorded] * 3


def test_commands_write_only_what_the_benchmark_checks_beside_their_outputs(tmp_path):
    # every entry of a sweep's --out-dir is an output whose sha256 golden.json
    # pins, so an extra file there fails every sweep and a directory there
    # stops the run; the digest memos live beside the inputs instead
    inputs = tmp_path / "in"
    paths = gen.write_triple(inputs, TINY, 0)
    gen.write_pairwise(inputs / "pairwise.jsonl", 0)
    (inputs / "sweep.json").write_text(json.dumps({"method": "ties", "sampling_seed": 0}), encoding="utf-8")
    replay.record_sweep_transcripts(inputs / "sweep.json", inputs / "pairwise.jsonl", inputs / "replay", 0)
    triple_args = [arg for kind in ("pre", "lvlm", "rm") for arg in (f"--{kind}", str(paths[kind]))]
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    sweep_dir = tmp_path / "sweep"
    for phase in ("cold", "warm"):
        result = CliRunner().invoke(main, [
            "sweep", *triple_args, "--config", str(inputs / "sweep.json"), "--data", str(inputs / "pairwise.jsonl"),
            "--replay-dir", str(inputs / "replay"), "--out-dir", str(sweep_dir), "--jobs", "2",
        ])
        assert result.exit_code == 0, (phase, result.output)
        names = sorted(p.name for p in sweep_dir.iterdir())
        variants = [name for name in names if name.endswith(".safetensors")]
        assert len(variants) == 12, phase
        assert names == sorted([*variants, *(f"{v}.vocab" for v in variants), "sweep-manifest.jsonl"]), phase
        outputs = run.sweep_step(phase).outputs(SimpleNamespace(sweep_dir=sweep_dir))
        assert set(outputs) == set(golden["sweep-ties"]), phase

    out = tmp_path / "merge" / "linear.safetensors"
    out.parent.mkdir()
    result = CliRunner().invoke(main, ["merge", *triple_args, "--method", "linear", "--lambda", "0.7",
                                       "--out", str(out), "--jobs", "2"])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in out.parent.iterdir()) == ["linear.safetensors", "linear.safetensors.vocab"]
    assert sorted(p.name for p in inputs.glob("*.sha256.json")) == [
        f"{kind}.safetensors.sha256.json" for kind in ("lvlm", "pre", "rm")
    ]
