"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import struct
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

import reference as ref
from vlrmerge import (
    Checkpoint,
    CheckpointFormatError,
    Dtype,
    MergeMethod,
    MergeRecipe,
    Tensor,
    align_vocab,
    merge_embedding_rows,
    merge_tensor,
    merge_transformer,
    read_checkpoint,
    score_pairwise_bench,
    write_checkpoint,
)
from vlrmerge.cli import main
from vlrmerge.evaluation import PreferencePair
from vlrmerge.merging import retained_count
from vlrmerge.tensorstore import default_vocab_path

from helpers import (
    drop_step,
    toy_triple,
    trim_step,
    write_bon_dataset,
    write_pairwise_dataset,
    write_triple,
)
from test_sweep import (
    DENSITY_TABLES,
    LAMBDA_TABLES,
    density_entries,
    lam_entries,
    run_selection,
)

STUB_CMD = f"{sys.executable} -m vlrmerge stub-scorer"
DTYPES = [Dtype.F32, Dtype.F16, Dtype.BF16]


def report(number: int, label: str, started: float, budget: float | None = None) -> None:
    elapsed = time.monotonic() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.1f}s]")


def quantized(rng, n: int, dtype: Dtype) -> np.ndarray:
    raw = rng.uniform(-2.0, 2.0, n).astype(np.float32)
    return Tensor.from_f32("q", raw, dtype).to_f32()


def test_criterion_1_merge_kernel_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    for method in MergeMethod:
        for trial in range(200):
            n = int(rng.integers(1, 257))
            dtype = DTYPES[int(rng.integers(3))]
            pre = quantized(rng, n, dtype)
            lvlm = quantized(rng, n, dtype)
            rm = quantized(rng, n, dtype)
            lam = float(rng.uniform(0.0, 1.0 if method is MergeMethod.LINEAR else 1.5))
            density = float(rng.uniform(0.05, 1.0)) if method.needs_density else None
            seed = trial if method.needs_seed else None
            recipe = MergeRecipe(method, lam=lam, density=density, seed=seed)
            out = merge_transformer(recipe, {"w": pre}, {"w": lvlm}, {"w": rm}, jobs=1)[0]
            expected = ref.merge_reference(
                method.value, pre, lvlm, rm, lam, density, seed, name="w"
            )
            ref.assert_close(out["w"].to_f32(), expected, rtol=1e-6)
    report(1, "merge-kernel oracle suite", started, budget=30.0)


def test_criterion_2_identity_ladder(rng, tmp_path):
    started = time.monotonic()
    from vlrmerge import AssemblyPlan, Role, assemble_vlrm
    from helpers import classified_toy_triple

    triple = classified_toy_triple(rng, trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
    trans_names = triple.lvlm.cmap.names(Role.TRANSFORMER)

    def merged_bytes(recipe):
        [merged] = assemble_vlrm(AssemblyPlan(recipes=(recipe,), triple=triple), jobs=1)
        return {name: merged.tensors[name].data for name in trans_names}

    lvlm_bytes = {n: triple.lvlm.ckpt.tensors[n].data for n in trans_names}
    rm_bytes = {n: triple.rm.ckpt.tensors[n].data for n in trans_names}
    pre_bytes = {n: triple.pre.ckpt.tensors[n].data for n in trans_names}

    assert merged_bytes(MergeRecipe(MergeMethod.LINEAR, lam=1.0)) == lvlm_bytes
    assert merged_bytes(MergeRecipe(MergeMethod.LINEAR, lam=0.0)) == rm_bytes
    assert merged_bytes(MergeRecipe(MergeMethod.TASK_ARITHMETIC, lam=0.0)) == pre_bytes
    assert merged_bytes(
        MergeRecipe(MergeMethod.DARE_TASK_ARITHMETIC, lam=0.8, density=1.0, seed=3)
    ) == merged_bytes(MergeRecipe(MergeMethod.TASK_ARITHMETIC, lam=0.8))
    assert merged_bytes(
        MergeRecipe(MergeMethod.DARE_TIES, lam=0.8, density=1.0, seed=3)
    ) == merged_bytes(MergeRecipe(MergeMethod.TIES, lam=0.8, density=1.0))
    report(2, "identity ladder", started, budget=5.0)


def test_criterion_3_ties_structure(rng):
    started = time.monotonic()
    for density in (0.2, 0.4, 0.6, 0.8):
        for n in (1, 7, 100, 256, 1000):
            values = rng.uniform(0.25, 3.0, n).astype(np.float32) * rng.choice([-1.0, 1.0], n)
            out = trim_step(values, density)
            assert np.count_nonzero(out) == retained_count(density, n)

    # hand-worked four-element pipeline fixture; a zero base makes the task
    # vectors the fine-tuned weights themselves
    pre = np.zeros(4, dtype=np.float32)
    tau_l = np.array([0.3, -0.1, 0.5, 0.0], dtype=np.float32)
    tau_r = np.array([-0.4, 0.2, 0.1, 0.0], dtype=np.float32)
    assert trim_step(tau_l, 0.5).tolist() == pytest.approx([0.3, 0.0, 0.5, 0.0])
    assert trim_step(tau_r, 0.5).tolist() == pytest.approx([-0.4, 0.2, 0.0, 0.0])
    out = merge_tensor(MergeRecipe(MergeMethod.TIES, lam=1.0, density=0.5), "t", pre, tau_l, tau_r)
    assert out.tolist() == pytest.approx([-0.4, 0.2, 0.5, 0.0])
    report(3, "ties trim/elect/mean structure", started)


def test_criterion_4_dare_statistics():
    started = time.monotonic()
    n, d = 100_000, 0.4
    out = drop_step(np.ones(n, dtype=np.float32), d, seed=2024, origin="lvlm", name="w")
    kept = int(np.count_nonzero(out))
    assert abs(kept - n * d) <= 4 * math.sqrt(n * d * (1 - d))
    assert np.all(out[out != 0] == np.float32(1.0 / d))
    assert abs(float(out.mean()) - 1.0) <= 3 * math.sqrt((1 - d) / d / n)

    rng = np.random.default_rng(5)
    pre = {"w": rng.standard_normal(n).astype(np.float32)}
    lvlm = {"w": rng.standard_normal(n).astype(np.float32)}
    rm = {"w": rng.standard_normal(n).astype(np.float32)}
    recipe = MergeRecipe(MergeMethod.DARE_TASK_ARITHMETIC, lam=0.7, density=d, seed=2024)
    single = merge_transformer(recipe, pre, lvlm, rm, jobs=1)[0]
    for workers in (2, 8):
        multi = merge_transformer(recipe, pre, lvlm, rm, jobs=workers)[0]
        assert multi["w"].data == single["w"].data
    report(4, "dare drop statistics and determinism", started, budget=10.0)


def test_criterion_5_embedding_rules():
    started = time.monotonic()
    pre_vocab = {"base": 0}
    lvlm_vocab = {"base": 0, "shared": 1, "vision-only": 2}
    rm_vocab = {"base": 0, "shared": 1, "reward-only": 2}
    pre = np.array([[9.0, 9.0]], dtype=np.float32)
    lvlm = np.array([[1.0, 1.0], [1.0, 3.0], [5.0, 5.0]], dtype=np.float32)
    rm = np.array([[2.0, 2.0], [3.0, 1.0], [7.0, 7.0]], dtype=np.float32)
    aligned = align_vocab(pre_vocab, lvlm_vocab, rm_vocab)
    assert aligned.tokens == ["base", "shared", "vision-only", "reward-only"]
    assert aligned.pre_rows.tolist() == [0, -1, -1, -1]
    assert aligned.lvlm_rows.tolist() == [0, 1, 2, -1]
    assert aligned.rm_rows.tolist() == [0, 1, -1, 2]

    merged = merge_embedding_rows(aligned, pre, lvlm, rm, MergeMethod.TASK_ARITHMETIC)
    assert merged[0].tolist() == [9.0, 9.0]  # rule 1: base-model row wins
    assert merged[1].tolist() == [2.0, 2.0]  # rule 3: mean of the two rows
    assert merged[2].tolist() == [5.0, 5.0]  # rule 2: single-model row verbatim
    assert merged[3].tolist() == [7.0, 7.0]

    linear = merge_embedding_rows(aligned, pre, lvlm, rm, MergeMethod.LINEAR)
    assert linear[0].tolist() == [1.5, 1.5]  # rule 1 skipped for the linear method
    assert linear[1].tolist() == [2.0, 2.0]
    report(5, "embedding merge rules", started)


def test_criterion_6_selection_tables():
    started = time.monotonic()
    for name, method, accuracies, winner_lam, tied in LAMBDA_TABLES:
        entries = lam_entries(method, accuracies)
        starred = {e.recipe.slug() for e in entries if e.recipe.lam == winner_lam}
        best, calls = run_selection(entries, starred)
        assert best.recipe.lam == winner_lam, name
        assert (calls == []) if tied is None else ({r.lam for r in calls} == tied), name
    for name, method, table, winner, tied in DENSITY_TABLES:
        entries = density_entries(method, table)
        starred = {e.recipe.slug() for e in entries if (e.recipe.lam, e.recipe.density) == winner}
        best, calls = run_selection(entries, starred)
        assert (best.recipe.lam, best.recipe.density) == winner, name
        assert (calls == []) if tied is None else ({(r.lam, r.density) for r in calls} == tied), name
    report(6, "sweep selection fixtures (10 tables)", started, budget=1.0)


def test_criterion_7_aggregation_fixture(rng):
    started = time.monotonic()
    pairs = []
    for domain, correct, total in (
        ("general", 123, 250),
        ("hallucination", 617, 1000),
        ("reasoning", 61, 100),
    ):
        for i in range(total):
            good = i < correct
            pairs.append(
                PreferencePair(
                    id=f"{domain}-{i}",
                    domain=domain,
                    chosen_reward=1.0 if good else 0.0,
                    rejected_reward=0.5,
                )
            )
    bench = score_pairwise_bench(pairs)
    assert abs(100.0 * bench.macro_average - 57.3) <= 0.05
    assert bench.per_domain_accuracy["general"] == pytest.approx(0.492)
    assert bench.per_domain_accuracy["hallucination"] == pytest.approx(0.617)
    assert bench.per_domain_accuracy["reasoning"] == pytest.approx(0.610)

    for _ in range(10):
        per_domain = int(rng.integers(1, 40))
        equal = []
        for domain in ("a", "b", "c"):
            for i in range(per_domain):
                good = bool(rng.integers(2))
                equal.append(
                    PreferencePair(
                        id=f"{domain}{i}", domain=domain,
                        chosen_reward=1.0 if good else 0.0, rejected_reward=0.5,
                    )
                )
        balanced = score_pairwise_bench(equal)
        assert balanced.macro_average == balanced.overall_accuracy
    report(7, "aggregation fixture", started)


def run_toy_pipeline(run_dir, triple_paths):
    """merge x5, inspect, sweep over the 12-point grid, then eval in both modes."""
    runner = CliRunner()
    base = [
        "--pre", str(triple_paths["pre"]),
        "--lvlm", str(triple_paths["lvlm"]),
        "--rm", str(triple_paths["rm"]),
    ]
    recipes = [
        ["--method", "linear", "--lambda", "0.6"],
        ["--method", "task-arithmetic", "--lambda", "0.9"],
        ["--method", "ties", "--lambda", "0.7", "--density", "0.4"],
        ["--method", "dare-task-arithmetic", "--lambda", "1.0", "--density", "0.6", "--seed", "11"],
        ["--method", "dare-ties", "--lambda", "0.7", "--density", "0.4", "--seed", "11"],
    ]
    artifacts = []
    for i, recipe in enumerate(recipes):
        out = run_dir / f"merged-{i}.safetensors"
        result = runner.invoke(main, ["merge", *base, *recipe, "--out", str(out)])
        assert result.exit_code == 0, result.output
        artifacts += [out, default_vocab_path(out)]

    inspected = runner.invoke(main, ["inspect", str(run_dir / "merged-0.safetensors"), "--json"])
    assert inspected.exit_code == 0, inspected.output
    payload = json.loads(inspected.stdout)
    assert payload["role_counts"]["rm_head"] == 1
    assert payload["role_counts"]["lm_head"] == 0

    merged = read_checkpoint(run_dir / "merged-0.safetensors")
    lvlm = read_checkpoint(triple_paths["lvlm"])
    for name, tensor in lvlm.tensors.items():
        if name.startswith(("vision_model.", "multi_modal_projector.")) or "cross_attn" in name:
            assert merged.tensors[name].data == tensor.data

    config = run_dir / "sweep.json"
    config.write_text(json.dumps({"method": "ties", "sampling_seed": 3}), encoding="utf-8")
    data = write_pairwise_dataset(run_dir / "valid.jsonl", 500)
    sweep_dir = run_dir / "sweep-out"
    swept = runner.invoke(main, [
        "sweep", *base, "--config", str(config), "--data", str(data),
        "--scorer", STUB_CMD, "--out-dir", str(sweep_dir),
    ])
    assert swept.exit_code == 0, swept.output
    manifest = sweep_dir / "sweep-manifest.jsonl"
    entries = [json.loads(l) for l in manifest.read_text().splitlines()]
    assert len([e for e in entries if e["record"] == "entry"]) == 12
    artifacts.append(manifest)
    artifacts += sorted(sweep_dir.glob("variant-*.safetensors"))

    pairwise_report = run_dir / "pairwise.txt"
    evaluated = runner.invoke(main, [
        "eval", "--mode", "pairwise", "--data", str(data),
        "--scorer", STUB_CMD, "--out", str(pairwise_report),
    ])
    assert evaluated.exit_code == 0, evaluated.output
    bon_data = write_bon_dataset(run_dir / "bon.jsonl", 20, candidates=8)
    bon_report = run_dir / "bon.txt"
    evaluated = runner.invoke(main, [
        "eval", "--mode", "bon", "--data", str(bon_data),
        "--scorer", STUB_CMD, "--out", str(bon_report),
    ])
    assert evaluated.exit_code == 0, evaluated.output
    artifacts += [pairwise_report, bon_report]
    return artifacts


def test_criterion_8_end_to_end_toy_pipeline(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(88)
    pre, lvlm, rm = toy_triple(
        rng,
        hidden=48,
        layers=3,
        lvlm_vocab=700,
        shared_vocab=650,
        rm_extra=30,
        pre_vocab=600,
        trans_dtype=Dtype.BF16,
        emb_dtype=Dtype.BF16,
    )
    params = sum(t.numel for t in lvlm.tensors.values())
    assert params > 50_000, f"toy LVLM has only {params} parameters"
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    triple_paths = write_triple(inputs, pre, lvlm, rm)

    artifact_bytes = []
    for run in ("runA", "runB"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        artifacts = run_toy_pipeline(run_dir, triple_paths)
        artifact_bytes.append([(p.name, p.read_bytes()) for p in artifacts])
    assert artifact_bytes[0] == artifact_bytes[1], "pipeline is not byte-reproducible"
    report(8, "end-to-end toy pipeline", started, budget=120.0)


def test_criterion_9_checkpoint_io(rng, tmp_path):
    started = time.monotonic()
    tensors = {}
    for i in range(1000):
        name = f"t.{i}"
        dtype = DTYPES[int(rng.integers(3))]
        shape = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(0, 3))))
        values = rng.uniform(-8.0, 8.0, shape).astype(np.float32)
        tensors[name] = Tensor.from_f32(name, values, dtype)
    ckpt = Checkpoint(tensors=tensors, metadata={"suite": "acceptance"})
    first = tmp_path / "first.safetensors"
    write_checkpoint(ckpt, first)
    loaded = read_checkpoint(first)
    assert loaded.tensors == ckpt.tensors
    second = tmp_path / "second.safetensors"
    write_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()

    def file_with(header: dict | bytes, data: bytes) -> bytes:
        blob = header if isinstance(header, bytes) else json.dumps(header).encode()
        return struct.pack("<Q", len(blob)) + blob + data

    malformed = [
        ("truncated header", b"\x07"),
        ("header past eof", struct.pack("<Q", 999) + b"{}"),
        ("not json", file_with(b"garbage!!", b"")),
        ("not an object", file_with(b"[1]", b"")),
        ("unknown dtype", file_with({"w": {"dtype": "I4", "shape": [1], "data_offsets": [0, 1]}}, b"\x00")),
        ("negative shape", file_with({"w": {"dtype": "F32", "shape": [-1], "data_offsets": [0, 4]}}, b"\x00" * 4)),
        ("out of bounds", file_with({"w": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}}, b"\x00" * 8)),
        ("overlap", file_with({
            "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            "b": {"dtype": "F32", "shape": [1], "data_offsets": [2, 6]},
        }, b"\x00" * 6)),
        ("length mismatch", file_with({"w": {"dtype": "F16", "shape": [3], "data_offsets": [0, 4]}}, b"\x00" * 4)),
        ("duplicate name", file_with(
            b'{"w": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},'
            b' "w": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]}}',
            b"\x00" * 8,
        )),
    ]
    for label, blob in malformed:
        path = tmp_path / "bad.safetensors"
        path.write_bytes(blob)
        with pytest.raises(CheckpointFormatError):
            read_checkpoint(path)
    report(9, "checkpoint round trip and malformed corpus", started)
