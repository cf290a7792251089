import hashlib
import json
import shlex
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from vlrmerge import Checkpoint, Dtype, Tensor, assembly, cli, merging, read_checkpoint, tensorstore, write_checkpoint
from vlrmerge.cli import main
from vlrmerge.components import DEFAULT_MANIFEST

from helpers import toy_triple, write_triple, write_pairwise_dataset, write_bon_dataset

STUB_CMD = f"{sys.executable} -m vlrmerge stub-scorer"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def triple_files(rng, tmp_path):
    pre, lvlm, rm = toy_triple(rng, trans_dtype=Dtype.BF16)
    return write_triple(tmp_path, pre, lvlm, rm)


def triple_args(paths):
    return ["--pre", str(paths["pre"]), "--lvlm", str(paths["lvlm"]), "--rm", str(paths["rm"])]


class TestMergeCommand:
    def test_linear_identity_writes_lvlm_transformer(self, runner, triple_files, tmp_path):
        out = tmp_path / "merged.safetensors"
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files),
            "--method", "linear", "--lambda", "1.0", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "sha256" in result.output
        merged = read_checkpoint(out)
        lvlm = read_checkpoint(triple_files["lvlm"])
        name = "model.layers.0.self_attn.weight"
        assert merged.tensors[name].data == lvlm.tensors[name].data

    def test_dare_ties_merge_matches_library_assembly(self, runner, triple_files, tmp_path):
        out = tmp_path / "merged.safetensors"
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files),
            "--method", "dare-ties", "--lambda", "0.7", "--density", "0.4", "--seed", "7",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        merged = read_checkpoint(out)
        assert merged.metadata["recipe.seed"] == "7"
        assert merged.vocab is not None

        from vlrmerge import MergeMethod, MergeRecipe, assemble_vlrm, classify_triple, load_manifest_config

        triple = classify_triple(
            read_checkpoint(triple_files["pre"]),
            read_checkpoint(triple_files["lvlm"]),
            read_checkpoint(triple_files["rm"]),
            load_manifest_config(),
        )
        recipe = MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.4, seed=7)
        [expected] = assemble_vlrm([recipe], triple, [tmp_path / "library.safetensors"], jobs=1)
        assert merged.tensors == expected.tensors

    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_checkpoints_are_hashed_on_up_to_jobs_threads(self, runner, triple_files, tmp_path, monkeypatch, jobs):
        threads = min(jobs, 3)
        # the first ``threads`` checkpoint digests wait for each other, so fewer threads would time out
        meet = threading.Barrier(threads, timeout=10)
        checkpoints = {str(path) for path in triple_files.values()}
        hashed, lock = {}, threading.Lock()
        real = cli.file_digest

        def recording(path):
            if str(path) in checkpoints:
                with lock:
                    hashed[str(path)] = threading.get_ident()
                    first = len(hashed) <= threads
                if first:
                    meet.wait()
            return real(path)

        monkeypatch.setattr(cli, "file_digest", recording)
        out = tmp_path / "merged.safetensors"
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files), "--method", "linear", "--lambda", "0.5",
            "--out", str(out), "--jobs", str(jobs),
        ])
        assert result.exit_code == 0, result.output
        assert set(hashed) == checkpoints
        assert len(set(hashed.values())) == threads and threading.get_ident() in hashed.values()
        assert not [t for t in threading.enumerate() if t.name.startswith("vlrmerge")]
        metadata = read_checkpoint(out).metadata
        for label, path in triple_files.items():
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            assert f"{label} sha256: {digest}" in result.output.splitlines()
            assert metadata[f"input.{label}.sha256"] == digest
            assert metadata[f"input.{label}_vocab.sha256"] == hashlib.sha256(
                Path(f"{path}.vocab").read_bytes()).hexdigest()

    def test_missing_density_is_usage_error(self, runner, triple_files, tmp_path):
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files),
            "--method", "ties", "--lambda", "0.7", "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2
        assert "--density is required" in result.output

    def test_non_finite_lambda_is_usage_error(self, runner, triple_files, tmp_path):
        out = tmp_path / "merged.safetensors"
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files),
            "--method", "task-arithmetic", "--lambda", "nan", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "lambda must be a finite number >= 0, got nan" in result.output
        assert not out.exists()

    def test_jobs_below_one_is_usage_error(self, runner, triple_files, tmp_path):
        out = tmp_path / "merged.safetensors"
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files),
            "--method", "linear", "--lambda", "0.5", "--out", str(out), "--jobs", "-3",
        ])
        assert result.exit_code == 2
        assert "--jobs" in result.output
        assert not out.exists()

    def test_explicit_vocab_is_the_one_hashed(self, runner, triple_files, tmp_path):
        # the same tokens without the final newline: a valid sidecar with other bytes
        other = tmp_path / "other.vocab"
        other.write_bytes(Path(f"{triple_files['lvlm']}.vocab").read_bytes().rstrip(b"\n"))
        out = tmp_path / "merged.safetensors"
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files), "--lvlm-vocab", str(other),
            "--method", "linear", "--lambda", "0.5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        metadata = read_checkpoint(out).metadata
        assert metadata["input.lvlm_vocab.sha256"] == hashlib.sha256(other.read_bytes()).hexdigest()
        pre_sidecar = Path(f"{triple_files['pre']}.vocab").read_bytes()
        assert metadata["input.pre_vocab.sha256"] == hashlib.sha256(pre_sidecar).hexdigest()

    def test_recorded_digests_are_of_the_whole_files(self, runner, triple_files, tmp_path):
        out = tmp_path / "merged.safetensors"
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files), "--method", "linear", "--lambda", "0.5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        metadata = read_checkpoint(out).metadata
        for label, path in triple_files.items():
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            assert metadata[f"input.{label}.sha256"] == digest
            assert f"{label} sha256: {digest}" in result.output

    @pytest.mark.parametrize("when", ["opened", "hashed"])
    @pytest.mark.parametrize("change", ["replaced", "grown"])
    def test_input_changed_during_the_merge_is_a_named_error(
        self, runner, triple_files, tmp_path, monkeypatch, when, change
    ):
        # the lvlm file changes right after it is opened, or right after it is hashed
        lvlm = Path(triple_files["lvlm"])

        def rewrite():
            if change == "replaced":  # another file moved onto the path, as write_checkpoint does
                ckpt = read_checkpoint(lvlm)
                write_checkpoint(Checkpoint(ckpt.tensors, metadata={"rewritten": "yes"}), lvlm)
            else:  # appended to in place
                with open(lvlm, "ab") as f:
                    f.write(b"\x00")

        def changing(real):
            def call(path, *args):
                result = real(path, *args)
                if Path(path) == lvlm:
                    rewrite()
                return result
            return call

        name = "read_checkpoint" if when == "opened" else "file_digest"
        monkeypatch.setattr(cli, name, changing(getattr(cli, name)))
        out = tmp_path / "out" / "merged.safetensors"
        out.parent.mkdir()
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files), "--method", "ties", "--lambda", "0.7", "--density", "0.4",
            "--out", str(out), "--jobs", "2",
        ])
        assert_named_error(result, f"{lvlm}: the file changed while it was being read")
        # no checkpoint and no temporary file; only the sidecar, written first, is left
        assert sorted(p.name for p in out.parent.iterdir()) == ["merged.safetensors.vocab"]

    def test_worker_failing_mid_write_leaves_no_output(self, runner, triple_files, tmp_path, monkeypatch):
        real, merged = merging._merge_per_lam, []

        def failing(variants, name, *args):
            if len(merged) == 3:  # three tensors are already written
                raise MemoryError("worker ran out of memory")
            merged.append(name)
            yield from real(variants, name, *args)

        monkeypatch.setattr(merging, "_merge_per_lam", failing)
        out = tmp_path / "out" / "merged.safetensors"
        out.parent.mkdir()
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files), "--method", "linear", "--lambda", "0.5",
            "--out", str(out), "--jobs", "1",
        ])
        assert result.exit_code == 1 and isinstance(result.exception, MemoryError)
        assert len(merged) == 3
        assert sorted(p.name for p in out.parent.iterdir()) == ["merged.safetensors.vocab"]

    def test_vocab_that_is_not_utf8_is_a_named_error(self, runner, triple_files, tmp_path):
        bad = tmp_path / "bad.vocab"
        bad.write_bytes(b"\xff" + Path(f"{triple_files['lvlm']}.vocab").read_bytes())
        out = tmp_path / "merged.safetensors"
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files), "--lvlm-vocab", str(bad),
            "--method", "linear", "--lambda", "0.5", "--out", str(out),
        ])
        assert_named_error(result, "bad.vocab: not UTF-8 text: invalid start byte")
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_manifest_file_is_recorded(self, runner, triple_files, tmp_path):
        # a manifest need name only the kinds the command classifies: merge never asks for "merged"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({k: DEFAULT_MANIFEST[k] for k in ("pre", "lvlm", "rm")}), encoding="utf-8")
        args = ["merge", *triple_args(triple_files), "--method", "linear", "--lambda", "0.5"]
        builtin, from_file = tmp_path / "builtin.safetensors", tmp_path / "file.safetensors"
        assert runner.invoke(main, [*args, "--out", str(builtin)]).exit_code == 0
        result = runner.invoke(main, [*args, "--out", str(from_file), "--manifest", str(manifest)])
        assert result.exit_code == 0, result.output
        assert "input.manifest.sha256" not in read_checkpoint(builtin).metadata
        digest = hashlib.sha256(manifest.read_bytes()).hexdigest()
        assert read_checkpoint(from_file).metadata["input.manifest.sha256"] == digest

    def test_validation_failure_exits_nonzero_with_report(self, runner, triple_files, tmp_path, rng):
        # corrupt the rm checkpoint: drop one transformer tensor
        rm = read_checkpoint(triple_files["rm"])
        del rm.tensors["model.norm.weight"]
        from vlrmerge import write_checkpoint

        write_checkpoint(rm, triple_files["rm"])
        result = runner.invoke(main, [
            "merge", *triple_args(triple_files),
            "--method", "linear", "--lambda", "0.5", "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code != 0
        assert "name-set mismatch" in result.output


def linear_args(command, tmp_path):
    """The arguments after the triple's for a one-lambda linear ``merge`` or ``sweep``."""
    if command == "merge":
        return ["--method", "linear", "--lambda", "0.5", "--out", str(tmp_path / "x")]
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"method": "linear", "lambda_grid": [0.5], "primary_size": 8,
                                  "tiebreak_size": 4}), encoding="utf-8")
    data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
    return ["--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["merge", "sweep"])
def test_triple_violations_are_reported(runner, triple_files, tmp_path, command):
    rm = read_checkpoint(triple_files["rm"])
    del rm.tensors["model.norm.weight"]  # a transformer tensor the other two models have
    write_checkpoint(rm, triple_files["rm"])
    result = runner.invoke(main, [command, *triple_args(triple_files), *linear_args(command, tmp_path)])
    assert result.exit_code != 0
    violations = [line for line in result.output.splitlines() if line.startswith("validation: ")]
    assert any("name-set mismatch" in line for line in violations), result.output
    assert f"triple validation failed with {len(violations)} violation(s)" in result.output


@pytest.mark.parametrize("command", ["merge", "sweep"])
def test_reward_head_named_like_a_kept_lvlm_tensor_stops_before_any_merge(
    runner, triple_files, tmp_path, monkeypatch, command
):
    # the lvlm gains a score.weight that the manifest keeps as an adapter tensor
    lvlm = read_checkpoint(triple_files["lvlm"])
    projector = lvlm.tensors["multi_modal_projector.weight"]
    lvlm.tensors["score.weight"] = Tensor("score.weight", projector.dtype, projector.shape, projector.data)
    write_checkpoint(lvlm, triple_files["lvlm"])
    manifest = tmp_path / "manifest.json"
    rules = {**DEFAULT_MANIFEST, "lvlm": [{"pattern": "score.*", "role": "adapter"}, *DEFAULT_MANIFEST["lvlm"]]}
    manifest.write_text(json.dumps(rules), encoding="utf-8")
    merges = []
    monkeypatch.setattr(assembly, "merge_transformer", lambda *args, **kwargs: merges.append(args))
    result = runner.invoke(main, [
        command, *triple_args(triple_files), "--manifest", str(manifest), *linear_args(command, tmp_path),
    ])
    assert result.exit_code == 1, result.output
    assert "validation: rm: head tensor score.weight has the name of an lvlm adapter tensor" in result.output
    assert "triple validation failed with 1 violation(s)" in result.output
    assert merges == []


@pytest.mark.parametrize("run", ["merge", "cold-sweep", "warm-sweep", "resumed-sweep"])
def test_each_command_validates_the_triple_once(runner, triple_files, tmp_path, monkeypatch, run):
    if run == "merge":
        args = ["merge", *triple_args(triple_files), *linear_args("merge", tmp_path)]
    else:
        config = tmp_path / "sweep.json"  # two densities: two merges
        config.write_text(json.dumps({"method": "ties", "lambda_grid": [0.5, 1.0], "density_grid": [0.4, 0.2],
                                      "primary_size": 8, "tiebreak_size": 4}), encoding="utf-8")
        out = tmp_path / "out"
        args = ["sweep", *triple_args(triple_files), "--config", str(config),
                "--data", str(write_pairwise_dataset(tmp_path / "valid.jsonl", 12)),
                "--scorer", STUB_CMD, "--out-dir", str(out)]
        if run != "cold-sweep":
            assert runner.invoke(main, args).exit_code == 0
        if run == "resumed-sweep":
            next(out.glob("variant-ties-l1-d0.2-*.safetensors")).unlink()
    calls, real = [], assembly.validate_triple

    def counting(triple):
        calls.append(triple)
        return real(triple)

    for module in (cli, assembly):  # every name the triple could be validated by
        monkeypatch.setattr(module, "validate_triple", counting)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("timeout", ["inf", "nan", "-5", "0"])
def test_scorer_timeout_must_be_finite_and_positive(runner, triple_files, tmp_path, monkeypatch, command, timeout):
    monkeypatch.setattr(cli, "read_checkpoint", lambda *args: pytest.fail("a checkpoint was read"))
    monkeypatch.setattr(cli, "load_pairwise_dataset", lambda *args: pytest.fail("the data was read"))
    if command == "eval":
        data = write_pairwise_dataset(tmp_path / "pairs.jsonl", 3)
        args = ["eval", "--mode", "pairwise", "--data", str(data), "--scorer", STUB_CMD]
    else:
        args = ["sweep", *triple_args(triple_files), *linear_args("sweep", tmp_path)]
    result = runner.invoke(main, [*args, "--scorer-timeout", timeout])
    assert result.exit_code == 2, result.output
    assert f"must be a finite number > 0, got {float(timeout)}" in result.output


def assert_named_error(result, message):
    """Exit status 1 with ``message``, and no exception escaped the command."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert message in result.output


class TestMalformedJsonInputs:
    def test_sweep_config_not_json(self, runner, triple_files, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text('{"method": "ties",', encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files), "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(tmp_path / "out"),
        ])
        assert_named_error(result, "sweep.json: sweep config is not valid JSON")

    @pytest.mark.parametrize("command", ["merge", "sweep", "inspect"])
    @pytest.mark.parametrize("text,message", [
        ("{broken", "manifest.json: manifest config is not valid JSON"),
        ('{"pre": 5}', "manifest config: rules for 'pre' must be a list, got 5"),
        (json.dumps({k: v for k, v in DEFAULT_MANIFEST.items() if k != "pre"}),
         "manifest config: no rules for 'pre'"),
    ])
    def test_manifest(self, runner, triple_files, tmp_path, command, text, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text, encoding="utf-8")
        if command == "inspect":
            args = ["inspect", str(triple_files["pre"]), "--kind", "pre"]
        else:
            args = [command, *triple_args(triple_files), *linear_args(command, tmp_path)]
        result = runner.invoke(main, [*args, "--manifest", str(manifest)])
        assert_named_error(result, message)


@pytest.mark.parametrize("command", ["merge", "sweep", "eval", "inspect"])
def test_echoed_config_names_every_option(runner, triple_files, tmp_path, command):
    if command in ("merge", "sweep"):
        args = [*triple_args(triple_files), *linear_args(command, tmp_path)]
    elif command == "eval":
        args = ["--mode", "pairwise", "--data", str(write_pairwise_dataset(tmp_path / "p.jsonl", 3)),
                "--scorer", STUB_CMD]
    else:
        args = [str(triple_files["rm"]), "--kind", "rm"]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 0, result.output
    line = next(l for l in result.stderr.splitlines() if l.startswith(f"{command} config: "))
    echoed = json.loads(line[len(f"{command} config: "):])
    assert {param.name for param in main.commands[command].params} <= set(echoed)
    if command in ("sweep", "eval"):
        assert echoed["scorer_argv"] == shlex.split(STUB_CMD)


class TestInspectCommand:
    def test_merged_checkpoint_table(self, runner, triple_files, tmp_path):
        out = tmp_path / "merged.safetensors"
        runner.invoke(main, [
            "merge", *triple_args(triple_files),
            "--method", "task-arithmetic", "--lambda", "0.9", "--out", str(out),
        ], catch_exceptions=False)
        result = runner.invoke(main, ["inspect", str(out)])
        assert result.exit_code == 0, result.output
        assert "rm_head=1" in result.output
        assert "lm_head" not in result.output.split("roles:")[1]
        assert "score.weight" in result.output

    def test_json_output(self, runner, triple_files, tmp_path):
        out = tmp_path / "merged.safetensors"
        runner.invoke(main, [
            "merge", *triple_args(triple_files),
            "--method", "linear", "--lambda", "0.5", "--out", str(out),
        ], catch_exceptions=False)
        result = runner.invoke(main, ["inspect", str(out), "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["role_counts"]["rm_head"] == 1
        assert payload["role_counts"]["lm_head"] == 0
        assert payload["metadata"]["recipe.method"] == "linear"

    def test_reads_the_header_only(self, runner, triple_files, monkeypatch):
        ckpt = read_checkpoint(triple_files["lvlm"])
        monkeypatch.setattr(tensorstore.CheckpointFile, "read_into", lambda *args: pytest.fail("a payload was read"))
        result = runner.invoke(main, ["inspect", str(triple_files["lvlm"]), "--kind", "lvlm", "--json"])
        assert result.exit_code == 0, result.output
        rows = {row["name"]: row["bytes"] for row in json.loads(result.stdout)["tensors"]}
        assert rows == {name: t.numel * t.dtype.itemsize for name, t in ckpt.tensors.items()}

    @pytest.mark.parametrize("change,message", [
        ("cut", "out-of-bounds data offsets"),
        ("grown", "1 trailing bytes not covered by any tensor"),
    ])
    def test_file_of_another_size_is_a_named_error(self, runner, triple_files, change, message):
        path = Path(triple_files["rm"])
        if change == "cut":
            tensorstore.os.truncate(path, path.stat().st_size - 1)
        else:
            with open(path, "ab") as f:
                f.write(b"\x00")
        result = runner.invoke(main, ["inspect", str(path), "--kind", "rm"])
        assert_named_error(result, message)

    def test_unmatched_tensor_listed(self, runner, triple_files, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"lvlm": [{"pattern": "model.*", "role": "transformer"}]}),
            encoding="utf-8",
        )
        result = runner.invoke(main, [
            "inspect", str(triple_files["lvlm"]), "--manifest", str(manifest), "--kind", "lvlm",
        ])
        assert result.exit_code != 0
        assert "vision_model.encoder.weight" in result.output

    def test_input_model_classification(self, runner, triple_files):
        result = runner.invoke(main, ["inspect", str(triple_files["rm"]), "--kind", "rm"])
        assert result.exit_code == 0
        assert "rm_head=1" in result.output


class TestEvalCommand:
    def test_pairwise_with_stub_scorer(self, runner, tmp_path):
        data = write_pairwise_dataset(tmp_path / "pairs.jsonl", 9)
        result = runner.invoke(main, [
            "eval", "--mode", "pairwise", "--data", str(data), "--scorer", STUB_CMD,
        ])
        assert result.exit_code == 0, result.output
        assert "Overall" in result.output and "Macro Avg." in result.output
        for domain in ("General", "Hallucination", "Reasoning"):
            assert domain in result.output

    def test_bon_single_accuracy_line(self, runner, tmp_path):
        data = write_bon_dataset(tmp_path / "bon.jsonl", 5, candidates=8)
        result = runner.invoke(main, [
            "eval", "--mode", "bon", "--data", str(data), "--scorer", STUB_CMD,
        ])
        assert result.exit_code == 0, result.output
        assert result.stdout.strip().startswith("accuracy:")

    def test_record_then_replay_matches(self, runner, tmp_path):
        data = write_pairwise_dataset(tmp_path / "pairs.jsonl", 6)
        transcript = tmp_path / "transcript.jsonl"
        out1 = tmp_path / "report1.txt"
        out2 = tmp_path / "report2.txt"
        live = runner.invoke(main, [
            "eval", "--mode", "pairwise", "--data", str(data),
            "--scorer", STUB_CMD, "--record", str(transcript), "--out", str(out1),
        ])
        assert live.exit_code == 0, live.output
        replayed = runner.invoke(main, [
            "eval", "--mode", "pairwise", "--data", str(data),
            "--replay", str(transcript), "--out", str(out2),
        ])
        assert replayed.exit_code == 0, replayed.output
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_record_cites_line_number(self, runner, tmp_path):
        data = tmp_path / "pairs.jsonl"
        rows = [
            json.dumps({
                "id": f"p{i}", "domain": "d", "instruction": "i",
                "chosen_text": "c", "rejected_text": "r",
            })
            for i in range(16)
        ]
        rows.append("{oops")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        result = runner.invoke(main, [
            "eval", "--mode", "pairwise", "--data", str(data), "--scorer", STUB_CMD,
        ])
        assert result.exit_code != 0
        assert "pairs.jsonl:17" in result.output

    def test_malformed_transcript_is_a_named_error(self, runner, tmp_path):
        data = write_pairwise_dataset(tmp_path / "pairs.jsonl", 3)
        transcript = tmp_path / "transcript.jsonl"
        transcript.write_text('{"request": {}}\n', encoding="utf-8")
        result = runner.invoke(main, [
            "eval", "--mode", "pairwise", "--data", str(data), "--replay", str(transcript),
        ])
        assert_named_error(result, "transcript.jsonl:1: malformed transcript record")

    def test_data_that_is_not_utf8_is_a_named_error(self, runner, tmp_path):
        data = tmp_path / "pairs.jsonl"
        data.write_bytes(b"\xff" + write_pairwise_dataset(tmp_path / "good.jsonl", 3).read_bytes())
        result = runner.invoke(main, [
            "eval", "--mode", "pairwise", "--data", str(data), "--scorer", STUB_CMD,
        ])
        assert_named_error(result, "pairs.jsonl: not UTF-8 text")

    @pytest.mark.parametrize("command", ["", "   "])
    def test_empty_scorer_command_is_a_named_error(self, runner, tmp_path, monkeypatch, command):
        data = write_pairwise_dataset(tmp_path / "pairs.jsonl", 3)
        monkeypatch.setattr(cli, "load_pairwise_dataset", lambda path: pytest.fail("the data was read"))
        result = runner.invoke(main, [
            "eval", "--mode", "pairwise", "--data", str(data), "--scorer", command,
        ])
        assert_named_error(result, f"scorer command {command!r} names no program")

    def test_scorer_command_that_does_not_parse_is_a_named_error(self, runner, tmp_path):
        data = write_pairwise_dataset(tmp_path / "pairs.jsonl", 3)
        result = runner.invoke(main, [
            "eval", "--mode", "pairwise", "--data", str(data), "--scorer", 'a "b',
        ])
        assert_named_error(result, "cannot parse scorer command 'a \"b': No closing quotation")

    @pytest.mark.parametrize("replay_and_record", [False, True], ids=["neither", "replay-and-record"])
    def test_scorer_and_replay_are_exclusive(self, runner, tmp_path, replay_and_record):
        data = write_pairwise_dataset(tmp_path / "pairs.jsonl", 3)
        sources = []
        if replay_and_record:
            (tmp_path / "transcript.jsonl").write_text("", encoding="utf-8")
            sources = ["--replay", str(tmp_path / "transcript.jsonl"), "--record", str(tmp_path / "record.jsonl")]
        result = runner.invoke(main, ["eval", "--mode", "pairwise", "--data", str(data), *sources])
        assert result.exit_code == 2
        assert "exactly one of" in result.output
        assert "--record needs --scorer" in result.output
        assert not (tmp_path / "record.jsonl").exists()

    def test_json_flag(self, runner, tmp_path):
        data = write_pairwise_dataset(tmp_path / "pairs.jsonl", 6)
        result = runner.invoke(main, [
            "eval", "--mode", "pairwise", "--data", str(data), "--scorer", STUB_CMD, "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert set(payload) >= {"overall_accuracy", "macro_average", "per_domain_accuracy"}


class TestSweepCommand:
    def test_small_grid_with_stub_scorer(self, runner, triple_files, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "method": "ties",
            "lambda_grid": [0.5, 1.0],
            "density_grid": [0.4],
            "primary_size": 6,
            "tiebreak_size": 3,
        }), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        out_dir = tmp_path / "sweep-out"
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files),
            "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        assert "winner:" in result.output
        manifest = (out_dir / "sweep-manifest.jsonl").read_text().splitlines()
        assert len([l for l in manifest if '"record": "entry"' in l]) == 2

    def test_empty_grid_config_is_an_error(self, runner, triple_files, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"method": "linear", "lambda_grid": []}), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files),
            "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(tmp_path / "out"),
        ])
        assert result.exit_code != 0
        assert "lambda grid is empty" in result.output

    def test_malformed_grid_config_is_an_error(self, runner, triple_files, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"method": "linear", "lambda_grid": 0.5}), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files),
            "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        assert "lambda grid must be a list of numbers" in result.output

    def test_record_then_replay_gives_identical_manifest(self, runner, triple_files, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "method": "dare-task-arithmetic",
            "lambda_grid": [0.7, 1.0],
            "density_grid": [0.4],
            "primary_size": 6,
            "tiebreak_size": 3,
        }), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        transcripts = tmp_path / "transcripts"
        live = runner.invoke(main, [
            "sweep", *triple_args(triple_files),
            "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--record-dir", str(transcripts),
            "--out-dir", str(tmp_path / "run1"),
        ])
        assert live.exit_code == 0, live.output
        replayed = runner.invoke(main, [
            "sweep", *triple_args(triple_files),
            "--config", str(config), "--data", str(data),
            "--replay-dir", str(transcripts),
            "--out-dir", str(tmp_path / "run2"),
        ])
        assert replayed.exit_code == 0, replayed.output
        first = (tmp_path / "run1" / "sweep-manifest.jsonl").read_bytes()
        second = (tmp_path / "run2" / "sweep-manifest.jsonl").read_bytes()
        assert first == second
        assert "winner:" in replayed.output

    def test_jobs_below_one_is_usage_error(self, runner, triple_files, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"method": "linear"}), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files),
            "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(tmp_path / "out"), "--jobs", "0",
        ])
        assert result.exit_code == 2
        assert "--jobs" in result.output
        assert not (tmp_path / "out").exists()

    def test_echoed_config_names_jobs_and_manifest(self, runner, triple_files, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "method": "linear", "lambda_grid": [0.5], "primary_size": 6, "tiebreak_size": 3,
            "tie_rounding_decimals": 2,
        }), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files),
            "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(tmp_path / "out"), "--jobs", "3",
        ])
        assert result.exit_code == 0, result.output
        line = next(l for l in result.stderr.splitlines() if l.startswith("sweep config: "))
        echoed = json.loads(line[len("sweep config: "):])
        assert echoed["jobs"] == 3
        assert echoed["manifest"] == "<builtin>"
        assert echoed["tie_rounding_decimals"] == 2

    @pytest.mark.parametrize("command", ["", " \t"])
    def test_empty_scorer_command_fails_before_any_read(self, runner, triple_files, tmp_path, monkeypatch, command):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"method": "linear", "lambda_grid": [0.5]}), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        monkeypatch.setattr(cli, "read_checkpoint", lambda *args: pytest.fail("a checkpoint was read"))
        out_dir = tmp_path / "out"
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files), "--config", str(config), "--data", str(data),
            "--scorer", command, "--out-dir", str(out_dir),
        ])
        assert_named_error(result, f"scorer command {command!r} names no program")
        assert not out_dir.exists()

    def test_scorer_command_that_does_not_parse_fails_before_merging(self, runner, triple_files, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"method": "linear", "lambda_grid": [0.5]}), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        out_dir = tmp_path / "out"
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files), "--config", str(config), "--data", str(data),
            "--scorer", 'a "b {checkpoint}', "--out-dir", str(out_dir),
        ])
        assert_named_error(result, "cannot parse scorer command")
        assert not out_dir.exists()

    def test_grid_values_that_name_one_variant_fail_before_any_read(self, runner, triple_files, tmp_path, monkeypatch):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"method": "linear", "lambda_grid": [0.5, 0.5000001]}), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        monkeypatch.setattr(cli, "read_checkpoint", lambda *args: pytest.fail("a checkpoint was read"))
        out_dir = tmp_path / "out"
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files), "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(out_dir),
        ])
        assert_named_error(result, "lambda grid values 0.5 and 0.5000001 name one variant (0.5)")
        assert not out_dir.exists()

    def test_rerun_with_other_vocab_rebuilds_variants(self, runner, triple_files, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "method": "ties", "lambda_grid": [0.5], "density_grid": [0.4],
            "primary_size": 6, "tiebreak_size": 3,
        }), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        out_dir = tmp_path / "sweep-out"
        args = [
            "sweep", *triple_args(triple_files), "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(out_dir),
        ]
        assert runner.invoke(main, args).exit_code == 0
        # the same tokens with the first two swapped
        tokens = Path(f"{triple_files['lvlm']}.vocab").read_text(encoding="utf-8").splitlines()
        tokens[0], tokens[1] = tokens[1], tokens[0]
        other = tmp_path / "other.vocab"
        other.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        result = runner.invoke(main, [*args, "--lvlm-vocab", str(other)])
        assert result.exit_code == 0, result.output
        [variant] = out_dir.glob("variant-*.safetensors")
        metadata = read_checkpoint(variant).metadata
        assert metadata["input.lvlm_vocab.sha256"] == hashlib.sha256(other.read_bytes()).hexdigest()
        sidecar = Path(f"{variant}.vocab").read_text(encoding="utf-8").splitlines()
        assert sidecar[0] == tokens[0]

    def test_rerun_with_other_manifest_rebuilds_variants(self, runner, triple_files, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "method": "ties", "lambda_grid": [0.5], "density_grid": [0.4],
            "primary_size": 6, "tiebreak_size": 3,
        }), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        out_dir = tmp_path / "sweep-out"
        args = [
            "sweep", *triple_args(triple_files), "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(out_dir),
        ]
        first = tmp_path / "first.json"
        first.write_text(json.dumps(DEFAULT_MANIFEST), encoding="utf-8")
        assert runner.invoke(main, [*args, "--manifest", str(first)]).exit_code == 0
        [variant] = out_dir.glob("variant-*.safetensors")
        assert "vision_model.patch.weight" in read_checkpoint(variant).tensors
        # the same rules, but the lvlm's patch weights count as its lm_head and are dropped
        rules = {**DEFAULT_MANIFEST, "lvlm": [
            {"pattern": "vision_model.patch*", "role": "lm_head"}, *DEFAULT_MANIFEST["lvlm"],
        ]}
        second = tmp_path / "second.json"
        second.write_text(json.dumps(rules), encoding="utf-8")
        result = runner.invoke(main, [*args, "--manifest", str(second)])
        assert result.exit_code == 0, result.output
        [rebuilt] = out_dir.glob("variant-*.safetensors")
        merged = read_checkpoint(rebuilt)
        assert "vision_model.patch.weight" not in merged.tensors
        digest = hashlib.sha256(second.read_bytes()).hexdigest()
        assert merged.metadata["input.manifest.sha256"] == digest

    @pytest.mark.parametrize("replay_and_record", [False, True], ids=["neither", "replay-and-record"])
    def test_scorer_or_replay_required(self, runner, triple_files, tmp_path, monkeypatch, replay_and_record):
        reads = []
        monkeypatch.setattr(cli, "read_checkpoint", lambda *args: reads.append(args))
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"method": "linear"}), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        sources = []
        if replay_and_record:
            (tmp_path / "replay").mkdir()
            sources = ["--replay-dir", str(tmp_path / "replay"), "--record-dir", str(tmp_path / "record")]
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files),
            "--config", str(config), "--data", str(data), "--out-dir", str(tmp_path / "out"), *sources,
        ])
        assert result.exit_code == 2
        assert "exactly one of" in result.output
        assert "--record-dir needs --scorer" in result.output
        assert reads == []
        assert not (tmp_path / "record").exists() and not (tmp_path / "out").exists()

    def test_checkpoint_path_with_space_and_quote_is_one_argument(self, runner, triple_files, tmp_path):
        # a scorer that fails unless its one argument names an existing file
        script = tmp_path / "score.py"
        script.write_text(
            "import os, sys\n"
            "if len(sys.argv) != 2 or not os.path.isfile(sys.argv[1]):\n"
            "    sys.exit(f'not one existing file: {sys.argv[1:]}')\n"
            "from vlrmerge.scoring import stub_scorer_loop\n"
            "stub_scorer_loop(sys.stdin, sys.stdout)\n",
            encoding="utf-8",
        )
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "method": "ties", "lambda_grid": [0.5, 1.0], "density_grid": [0.4],
            "primary_size": 6, "tiebreak_size": 3,
        }), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        out_dir = tmp_path / "sweep out's"
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files), "--config", str(config), "--data", str(data),
            "--scorer", f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{checkpoint}}",
            "--out-dir", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in (out_dir / "sweep-manifest.jsonl").read_text().splitlines()]
        entries = [r for r in records if r["record"] == "entry"]
        assert len(entries) == 2
        assert all(r["status"] == "ok" for r in entries), entries
