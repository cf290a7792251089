import hashlib
import json
import os
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from vlrmerge import (
    Checkpoint,
    Dtype,
    InsufficientMemoryError,
    MergeMethod,
    MergeRecipe,
    SweepConfig,
    Tensor,
    assembly,
    classify_triple,
    cli,
    generate_grid,
    load_manifest_config,
    merging,
    read_checkpoint,
    read_vocab,
    tensorstore,
    write_checkpoint,
)
from vlrmerge.cli import main
from vlrmerge.components import DEFAULT_MANIFEST

from helpers import (
    assemble,
    inspected_and_source_roles,
    make_tensor,
    toy_triple,
    write_bon_dataset,
    write_pairwise_dataset,
    write_triple,
)

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

    def test_counts_are_printed_from_what_was_written_without_reading_it_back(
        self, runner, triple_files, tmp_path, monkeypatch
    ):
        out, opened, real = tmp_path / "merged.safetensors", [], cli.read_checkpoint

        def recording(path, *args):
            opened.append(Path(path))
            return real(path, *args)

        monkeypatch.setattr(cli, "read_checkpoint", recording)
        result = runner.invoke(main, [*merge_args(triple_files, "linear"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert opened == [Path(triple_files[kind]) for kind in ("pre", "lvlm", "rm")]
        merged = read_checkpoint(out)
        lines = result.output.splitlines()
        assert f"validation: ok ({len(merged.tensors)} tensors)" in lines
        assert f"wrote {out} (+ vocabulary sidecar, {len(merged.vocab)} tokens)" in lines

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

        from vlrmerge import MergeMethod, MergeRecipe, classify_triple, load_manifest_config

        triple = classify_triple(
            read_checkpoint(triple_files["pre"]),
            read_checkpoint(triple_files["lvlm"]),
            read_checkpoint(triple_files["rm"]),
            load_manifest_config(),
        )
        recipe = MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.4, seed=7)
        assemble([recipe], triple, [tmp_path / "library.safetensors"], jobs=1)
        assert merged.tensors == read_checkpoint(tmp_path / "library.safetensors").tensors

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

    def test_hashing_stops_at_the_first_failure(self, runner, triple_files, tmp_path, monkeypatch):
        # two workers take the pre and the lvlm; the pre fails while the lvlm is being hashed,
        # and the lvlm's hash ends only once the pre's has failed, so no worker may take the rm
        pre, lvlm = str(triple_files["pre"]), str(triple_files["lvlm"])
        lvlm_started, pre_failed = threading.Event(), threading.Event()
        hashed, real = [], cli.file_digest

        def failing(path):
            hashed.append(Path(path))
            if str(path) == pre:
                assert lvlm_started.wait(10)
                pre_failed.set()
                raise OSError(5, "Input/output error", pre)
            if str(path) == lvlm:
                lvlm_started.set()
                assert pre_failed.wait(10)
            return real(path)

        monkeypatch.setattr(cli, "file_digest", failing)
        out = tmp_path / "merged.safetensors"
        result = runner.invoke(main, [*merge_args(triple_files, "linear"), "--out", str(out)])
        assert_named_error(result, f"[Errno 5] Input/output error: '{pre}'")
        assert sorted(hashed) == sorted(map(Path, (pre, lvlm)))
        assert not [t for t in threading.enumerate() if t.name.startswith("vlrmerge")]
        assert not out.exists()

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

    @pytest.mark.parametrize("reader,key", [
        ("read_checkpoint", "input.lvlm_vocab.sha256"),
        ("load_manifest_config", "input.manifest.sha256"),
    ])
    def test_recorded_digests_are_of_the_bytes_parsed(self, runner, triple_files, tmp_path, monkeypatch, reader, key):
        # the lvlm sidecar, or the manifest, is rewritten right after it is parsed
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(DEFAULT_MANIFEST), encoding="utf-8")
        sidecar = Path(f"{triple_files['lvlm']}.vocab")
        tokens = sidecar.read_text(encoding="utf-8").split("\n")[:2]
        target = sidecar if reader == "read_checkpoint" else manifest
        parsed = target.read_bytes()
        real = getattr(cli, reader)

        def rewriting(path, *args):
            result = real(path, *args)
            if reader == "load_manifest_config" or Path(path) == triple_files["lvlm"]:
                if target is sidecar:  # the first two rows swap places
                    first, second, rest = parsed.split(b"\n", 2)
                    target.write_bytes(b"\n".join([second, first, rest]))
                else:
                    target.write_text(json.dumps(DEFAULT_MANIFEST, indent=1), encoding="utf-8")
            return result

        monkeypatch.setattr(cli, reader, rewriting)
        out = tmp_path / "merged.safetensors"
        result = runner.invoke(main, [
            *merge_args(triple_files, "linear"), "--manifest", str(manifest), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert target.read_bytes() != parsed
        assert read_checkpoint(out).metadata[key] == hashlib.sha256(parsed).hexdigest()
        # the merged vocabulary follows the lvlm sidecar as it was parsed
        assert [read_checkpoint(out).vocab[token] for token in tokens] == [0, 1]

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
    @pytest.mark.parametrize("change", ["replaced", "grown", "rewritten-same-size"])
    def test_input_changed_during_the_merge_is_a_named_error(
        self, runner, triple_files, tmp_path, monkeypatch, when, change
    ):
        # the lvlm file changes right after it is opened, or right after it is hashed
        lvlm = Path(triple_files["lvlm"])
        settle([lvlm])  # so the change moves the file's ctime

        def rewrite():
            if change == "replaced":  # another file moved onto the path, as write_checkpoint does
                ckpt = read_checkpoint(lvlm)
                write_checkpoint(Checkpoint(ckpt.tensors, metadata={"rewritten": "yes"}), lvlm)
            elif change == "grown":  # appended to in place
                with open(lvlm, "ab") as f:
                    f.write(b"\x00")
            else:
                flip_last_byte(lvlm)

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
        if change == "replaced":  # still a checkpoint, so a later merge runs and records the new file
            monkeypatch.undo()
            again = tmp_path / "again.safetensors"
            result = runner.invoke(main, [*merge_args(triple_files, "linear"), "--out", str(again)])
            assert result.exit_code == 0, result.output
            digest = hashlib.sha256(lvlm.read_bytes()).hexdigest()
            assert read_checkpoint(again).metadata["input.lvlm.sha256"] == digest

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

    def test_non_finite_weight_is_a_named_error_and_leaves_no_output(self, runner, rng, tmp_path):
        pre, lvlm, rm = toy_triple(rng, trans_dtype=Dtype.BF16)
        name = "model.layers.1.mlp.weight"
        values = lvlm.tensors[name].to_f32()
        values.flat[13] = np.nan
        lvlm.tensors[name] = make_tensor(name, values, Dtype.BF16)
        paths = write_triple(tmp_path, pre, lvlm, rm)
        out = tmp_path / "out" / "merged.safetensors"
        out.parent.mkdir()
        result = runner.invoke(main, [*merge_args(paths, "task-arithmetic"), "--out", str(out)])
        message = f"lvlm tensor '{name}' holds a non-finite weight at flat index 13"
        assert_named_error(result, message)
        assert result.output.count("non-finite") == 1
        # no checkpoint and no temporary file; only the sidecar, written first, is left
        assert sorted(p.name for p in out.parent.iterdir()) == ["merged.safetensors.vocab"]

    def test_finite_weights_that_merge_to_infinity_are_a_named_error_and_leave_no_output(self, runner, rng, tmp_path):
        pre, lvlm, rm = toy_triple(rng, trans_dtype=Dtype.BF16)
        name = "model.layers.1.mlp.weight"
        for ckpt, value in ((pre, -3e38), (lvlm, 3e38), (rm, 3e38)):
            values = ckpt.tensors[name].to_f32()
            values.flat[13] = value  # each task vector is 6e38, above the float32 maximum
            ckpt.tensors[name] = make_tensor(name, values, Dtype.BF16)
        paths = write_triple(tmp_path, pre, lvlm, rm)
        out = tmp_path / "out" / "merged.safetensors"
        out.parent.mkdir()
        result = runner.invoke(main, [*merge_args(paths, "task-arithmetic"), "--out", str(out)])
        message = f"task-arithmetic-l0.5 tensor '{name}' merges to a non-finite weight at flat index 13"
        assert_named_error(result, message)
        assert "Warning" not in result.output
        # no checkpoint and no temporary file; only the sidecar, written first, is left
        assert sorted(p.name for p in out.parent.iterdir()) == ["merged.safetensors.vocab"]

    @pytest.mark.parametrize("command", ["merge", "sweep"])
    def test_merge_that_does_not_fit_in_memory_is_a_named_error_and_reads_and_writes_nothing(
        self, runner, triple_files, tmp_path, monkeypatch, command
    ):
        monkeypatch.setattr(assembly, "available_memory", lambda: 1 << 10)
        hashed = spy_on_hashing(monkeypatch)
        monkeypatch.setattr(tensorstore.CheckpointFile, "read_into", lambda *args: pytest.fail("a payload was read"))
        result = runner.invoke(main, [command, *triple_args(triple_files), *linear_args(command, tmp_path)])
        assert_named_error(result, "transformer tensor), but this process may use only 0.0 MiB")
        # merge writes to x and its sidecar, sweep into out
        assert hashed == [] and not list(tmp_path.glob("x*")) and not (tmp_path / "out").exists()

    def test_a_merge_that_fits_fewer_workers_runs_on_them_and_warns_once(
        self, runner, triple_files, tmp_path, monkeypatch, caplog
    ):
        need = counted_per_worker(triple_files, [MergeRecipe(MergeMethod.LINEAR, lam=0.5)])
        monkeypatch.setattr(assembly, "available_memory", lambda: 2 * need - 1)
        result = runner.invoke(main, [*merge_args(triple_files, "linear"), "--jobs", "2", "--out", str(tmp_path / "m")])
        assert result.exit_code == 0, result.output
        mib = 1 << 20
        assert [r.getMessage() for r in caplog.records if r.name == "vlrmerge.assembly"] == [
            f"running 1 of 2 workers: each needs about {need / mib:.1f} MiB and this process may use "
            f"{(2 * need - 1) / mib:.1f} MiB"]

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


# run in a fresh interpreter: the growth of its peak resident set over the command, in KiB. The peak is
# VmHWM, this image's own: ru_maxrss after an exec starts at the resident set of the process that forked it
PEAK_GROWTH = """
import sys
from vlrmerge import cli

def peak_kib():
    with open("/proc/self/status", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

before = peak_kib()
cli.main(sys.argv[1:], standalone_mode=False)
print(peak_kib() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak resident set from /proc")
def test_ties_merge_workers_hold_blocks_and_the_key_not_payloads(rng, tmp_path):
    # two 2**21-element bf16 transformer tensors, one per worker. Each worker maps TIES's 8 MiB
    # ranking key and about 5 MiB of block slots: the command grows the peak by about 27 MiB.
    # A worker that also held the three 4 MiB input payloads and the 4 MiB output would grow it by 58.
    pre, lvlm, rm = toy_triple(rng, layers=1, trans_dtype=Dtype.BF16)
    for ckpt in (pre, lvlm, rm):
        for name in ("model.layers.0.self_attn.weight", "model.layers.0.mlp.weight"):
            ckpt.tensors[name] = make_tensor(name, rng.standard_normal((1024, 2048)) * 0.02, Dtype.BF16)
    paths = write_triple(tmp_path, pre, lvlm, rm)
    out = tmp_path / "merged.safetensors"
    argv = [*merge_args(paths, "ties"), "--density", "0.4", "--out", str(out)]
    child = subprocess.run([sys.executable, "-c", PEAK_GROWTH, *argv], capture_output=True, text=True, timeout=120)
    assert child.returncode == 0 and out.exists(), child.stderr
    growth_mib = int(child.stdout.splitlines()[-1]) / 1024
    assert growth_mib < 40, f"the merge grew the peak resident set by {growth_mib:.1f} MiB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak resident set from /proc")
def test_inspect_counts_a_paper_size_sidecar_without_holding_its_tokens(rng, tmp_path):
    # 128,000 tokens, 1.2 MB, as many as a paper-scale vocabulary: counting them grows the peak by about
    # the file's size. A token map of them would grow it by about 20 MiB.
    paths = write_triple(tmp_path, *toy_triple(rng, trans_dtype=Dtype.BF16))
    sidecar = tensorstore.default_vocab_path(paths["rm"])
    sidecar.write_text("".join(f"tok{i}\n" for i in range(128_000)), encoding="utf-8")
    argv = ["inspect", str(paths["rm"]), "--kind", "rm", "--json"]
    child = subprocess.run([sys.executable, "-c", PEAK_GROWTH, *argv], capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    *report, growth = child.stdout.splitlines()
    assert json.loads("\n".join(report))["vocab_size"] == 128_000
    growth_mib = int(growth) / 1024
    assert growth_mib < 8, f"inspect grew the peak resident set by {growth_mib:.1f} MiB"


def counted_per_worker(paths, recipes) -> int:
    """The bytes per worker ``plan_merge`` counts for ``recipes`` on the triple at ``paths``, from the headers."""
    triple = classify_triple(*(read_checkpoint(paths[k]) for k in ("pre", "lvlm", "rm")), load_manifest_config())
    with pytest.MonkeyPatch.context() as patch, pytest.raises(InsufficientMemoryError) as raised:
        patch.setattr(assembly, "available_memory", lambda: 0)
        assembly.plan_merge(recipes, triple, 2)
    return raised.value.needed


def merge_args(paths, method):
    return ["merge", *triple_args(paths), "--method", method, "--lambda", "0.5", "--jobs", "2"]


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def settle(paths):
    """Wait until the file system's clock has passed each file's last change.

    A digest memo written in the same clock tick as its file changed is not
    trusted, so a test that expects a memo hit lets the clock move on first.
    """
    newest = max(os.stat(path).st_ctime_ns for path in paths)
    probe = Path(paths[0]).with_name("clock-probe")
    for _ in range(1000):
        probe.write_bytes(b"")  # a new file each time, stamped by the file system's clock
        written = probe.stat().st_mtime_ns
        probe.unlink()
        if written > newest:
            return
        time.sleep(0.001)
    pytest.fail("the file system's clock did not move on within a second")


def flip_last_byte(path):
    """Rewrite a file's last byte in place and put its old times back: only its ctime tells."""
    before = os.stat(path)
    with open(path, "r+b") as f:
        f.seek(-1, os.SEEK_END)
        last = f.read(1)
        f.seek(-1, os.SEEK_END)
        f.write(bytes([last[0] ^ 0xFF]))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (before.st_size, before.st_mtime_ns)


def recorded_digests(paths, jobs):
    """The digest ``merge`` records for each checkpoint file: opened, then recalled from its memo or hashed.

    The files are opened without reading their headers, so one appended to is still opened.
    """
    ckpts = {label: Checkpoint({}, file=tensorstore.CheckpointFile(Path(path)))
             for label, path in zip(("pre", "lvlm", "rm"), paths)}
    provenance = cli._hash_inputs(ckpts, jobs)
    return [provenance[f"input.{label}.sha256"] for label in ckpts]


def spy_on_hashing(monkeypatch) -> list[Path]:
    """Record every path ``cli.file_digest`` is asked to hash."""
    hashed, real = [], cli.file_digest

    def recording(path):
        hashed.append(Path(path))
        return real(path)

    monkeypatch.setattr(cli, "file_digest", recording)
    return hashed


class TestDigestMemo:
    def test_second_merge_of_an_unchanged_triple_hashes_no_checkpoint(
        self, runner, triple_files, tmp_path, monkeypatch
    ):
        checkpoints = list(triple_files.values())
        settle(checkpoints)
        first, second = tmp_path / "first.safetensors", tmp_path / "second.safetensors"
        result = runner.invoke(main, [*merge_args(triple_files, "ties"), "--density", "0.4", "--out", str(first)])
        assert result.exit_code == 0, result.output
        hashed = spy_on_hashing(monkeypatch)
        result = runner.invoke(main, [*merge_args(triple_files, "ties"), "--density", "0.4", "--out", str(second)])
        assert result.exit_code == 0, result.output
        assert hashed == []  # each sidecar's digest is of the bytes parsed, not of a second read
        assert read_checkpoint(second).metadata == read_checkpoint(first).metadata
        assert second.read_bytes() == first.read_bytes()
        for label, path in triple_files.items():
            assert f"{label} sha256: {sha256_of(path)}" in result.output.splitlines()
            memo = json.loads(Path(f"{path}.sha256.json").read_text(encoding="utf-8"))
            assert memo["sha256"] == sha256_of(path)

    @pytest.mark.parametrize("change", ["appended", "rewritten-same-size", "replaced", "racy-memo"])
    def test_a_changed_file_is_hashed_again(self, triple_files, monkeypatch, change):
        paths = [str(path) for path in triple_files.values()]
        lvlm = Path(paths[1])
        settle(paths)
        assert recorded_digests(paths, 2) == [sha256_of(path) for path in paths]
        before = os.stat(lvlm)
        if change == "appended":
            with open(lvlm, "ab") as f:
                f.write(b"\x00")
        elif change == "rewritten-same-size":
            flip_last_byte(lvlm)
        elif change == "replaced":
            other = lvlm.with_name("other")
            other.write_bytes(lvlm.read_bytes()[:-1] + b"\x01")
            os.replace(other, lvlm)
        else:  # a memo written in the clock tick of the file's last change
            memo = Path(f"{lvlm}.sha256.json")
            os.utime(memo, ns=(before.st_atime_ns, before.st_ctime_ns))
        hashed = spy_on_hashing(monkeypatch)
        assert recorded_digests(paths, 2) == [sha256_of(path) for path in paths]
        assert hashed == [lvlm]

    def test_a_change_just_before_the_memo_is_written_is_caught_by_ctime(self, triple_files, monkeypatch):
        # the lvlm changes after its stamp is taken and before its memo is written,
        # which is then newer than the change: only the recorded ctime differs
        paths = [str(path) for path in triple_files.values()]
        lvlm = Path(paths[1])
        real = tensorstore._replace_when_done

        def changing_first(path, *args, **kwargs):
            if path == Path(f"{lvlm}.sha256.json"):
                flip_last_byte(lvlm)
                settle([lvlm])
            return real(path, *args, **kwargs)

        settle(paths)
        with monkeypatch.context() as patch:
            patch.setattr(tensorstore, "_replace_when_done", changing_first)
            recorded_digests(paths, 1)
        hashed = spy_on_hashing(monkeypatch)
        assert recorded_digests(paths, 1) == [sha256_of(path) for path in paths]
        assert hashed == [lvlm]

    @pytest.mark.parametrize(
        "content",
        [b"{not json", b"\xff\xfe", b"[" * 100_000, b"[1, 2]", b'{"sha256": 5}', "foreign"],
        ids=["not-json", "not-utf8", "too-deep", "a-list", "no-digest", "foreign"],
    )
    def test_a_corrupt_or_foreign_memo_is_hashed_and_rewritten(self, triple_files, monkeypatch, content):
        paths = [str(path) for path in triple_files.values()]
        lvlm, rm = paths[1], paths[2]
        settle(paths)
        recorded_digests(paths, 1)
        memo = Path(f"{lvlm}.sha256.json")
        # "foreign": the rm's memo, whole and valid, beside the lvlm
        memo.write_bytes(Path(f"{rm}.sha256.json").read_bytes() if content == "foreign" else content)
        hashed = spy_on_hashing(monkeypatch)
        assert recorded_digests(paths, 1) == [sha256_of(path) for path in paths]
        assert hashed == [Path(lvlm)]
        rewritten = json.loads(memo.read_text(encoding="utf-8"))
        assert rewritten == {"sha256": sha256_of(lvlm), "stamp": tensorstore.FileStamp.of(os.stat(lvlm))._asdict()}

    def test_a_memo_that_cannot_be_written_is_skipped(self, runner, triple_files, tmp_path, monkeypatch):
        real = tensorstore._replace_when_done

        def unwritable(path, *args, **kwargs):
            if path.name.endswith(".sha256.json"):
                raise PermissionError(13, "Permission denied", str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(tensorstore, "_replace_when_done", unwritable)
        out = tmp_path / "out" / "merged.safetensors"
        out.parent.mkdir()
        result = runner.invoke(main, [*merge_args(triple_files, "linear"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        metadata = read_checkpoint(out).metadata
        for label, path in triple_files.items():
            assert metadata[f"input.{label}.sha256"] == sha256_of(path)
            assert not Path(f"{path}.sha256.json").exists()

    def test_a_file_that_changes_while_it_is_hashed_gets_no_memo(self, triple_files, monkeypatch):
        paths = [str(path) for path in triple_files.values()]
        real = cli.file_digest

        def appending(path):
            digest = real(path)
            with open(path, "ab") as f:
                f.write(b"\x00")
            return digest

        monkeypatch.setattr(cli, "file_digest", appending)
        recorded_digests(paths, 2)
        assert not [path for path in paths if Path(f"{path}.sha256.json").exists()]


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


def command_args(runner, run, paths, tmp_path, out_name="out"):
    """The arguments of a ``merge``, or of a cold, warm or resumed ``sweep`` into ``out_name``, made ready.

    The sweep's grid is two lambdas by two densities of TIES. A warm sweep
    finds every variant built, and a resumed one all but one.
    """
    if run == "merge":
        return ["merge", *triple_args(paths), *linear_args("merge", tmp_path)]
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"method": "ties", "lambda_grid": [0.5, 1.0], "density_grid": [0.4, 0.2],
                                  "primary_size": 8, "tiebreak_size": 4}), encoding="utf-8")
    out = tmp_path / out_name
    args = ["sweep", *triple_args(paths), "--config", str(config),
            "--data", str(write_pairwise_dataset(tmp_path / "valid.jsonl", 12)),
            "--scorer", STUB_CMD, "--out-dir", str(out)]
    if run != "cold-sweep":
        assert runner.invoke(main, args).exit_code == 0
    if run == "resumed-sweep":
        next(out.glob("variant-ties-l1-d0.2-*.safetensors")).unlink()
    return args


RUNS = ["merge", "cold-sweep", "warm-sweep", "resumed-sweep"]


@pytest.mark.parametrize("run", RUNS)
def test_each_command_validates_the_triple_once(runner, triple_files, tmp_path, monkeypatch, run):
    args = command_args(runner, run, triple_files, tmp_path)
    calls, real = [], assembly.validate_triple

    def counting(triple):
        calls.append(triple)
        return real(triple)

    for module in (cli, assembly):  # every name the triple could be validated by
        monkeypatch.setattr(module, "validate_triple", counting)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


@pytest.mark.parametrize("run", RUNS)
def test_each_command_runs_one_preflight(runner, triple_files, tmp_path, monkeypatch, run):
    args = command_args(runner, run, triple_files, tmp_path)
    calls, real = [], assembly.available_memory

    def counting():
        calls.append(None)
        return real()

    monkeypatch.setattr(assembly, "available_memory", counting)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_a_triple_that_fails_validation_is_reported_before_any_input_is_hashed(
    runner, triple_files, tmp_path, monkeypatch
):
    warm = command_args(runner, "warm-sweep", triple_files, tmp_path)
    built = {p.name: p.stat().st_mtime_ns for p in (tmp_path / "out").glob("variant-*")}
    for memo in tmp_path.glob("*.sha256.json"):
        memo.unlink()
    rm = read_checkpoint(triple_files["rm"])
    del rm.tensors["model.norm.weight"]
    write_checkpoint(rm, triple_files["rm"])
    hashed = spy_on_hashing(monkeypatch)
    runs = {
        "merge": command_args(runner, "merge", triple_files, tmp_path),
        "cold-sweep": command_args(runner, "cold-sweep", triple_files, tmp_path, out_name="cold"),
        "warm-sweep": warm,
    }
    reports = {}
    for run, args in runs.items():
        result = runner.invoke(main, args)
        assert_named_error(result, "triple validation failed with")
        reports[run] = [line for line in result.output.splitlines() if line.startswith("validation: ")]
    assert any("name-set mismatch" in line for line in reports["merge"]), reports
    assert reports["cold-sweep"] == reports["warm-sweep"] == reports["merge"]
    assert hashed == [] and not list(tmp_path.glob("*.sha256.json"))
    assert not list(tmp_path.glob("x*")) and not (tmp_path / "cold").exists()
    assert {p.name: p.stat().st_mtime_ns for p in (tmp_path / "out").glob("variant-*")} == built


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


def not_executable(directory):
    """A scorer script that no one may execute."""
    command = directory / "noexec.sh"
    command.write_text("#!/bin/sh\n", encoding="utf-8")
    command.chmod(0o644)
    return command


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

    def test_merged_roles_are_the_source_models_roles(self, runner, triple_files, tmp_path):
        out = tmp_path / "merged.safetensors"
        result = runner.invoke(main, [*merge_args(triple_files, "linear"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        inspected, source = inspected_and_source_roles(triple_files, out)
        assert inspected == source
        assert set(inspected.values()) == {"vision_encoder", "adapter", "embedding", "transformer", "rm_head"}

    def test_merged_rules_come_from_the_lvlm_and_rm_rules(self, runner, triple_files, tmp_path):
        out = tmp_path / "merged.safetensors"
        assert runner.invoke(main, [*merge_args(triple_files, "linear"), "--out", str(out)]).exit_code == 0
        builtin = runner.invoke(main, ["inspect", str(out), "--json"])
        assert builtin.exit_code == 0, builtin.output
        # a manifest names input kinds only; this one counts the lvlm's projector in its vision encoder
        manifest = tmp_path / "manifest.json"
        rules = {
            "lvlm": [{"pattern": "multi_modal_projector.*", "role": "vision_encoder"}, *DEFAULT_MANIFEST["lvlm"]],
            "rm": DEFAULT_MANIFEST["rm"],
        }
        manifest.write_text(json.dumps(rules), encoding="utf-8")
        result = runner.invoke(main, ["inspect", str(out), "--json", "--manifest", str(manifest)])
        assert result.exit_code == 0, result.output

        def roles(result):
            return {row["name"]: row["role"] for row in json.loads(result.stdout)["tensors"]}

        assert roles(result) == {**roles(builtin), "multi_modal_projector.weight": "vision_encoder"}

    def test_manifest_naming_merged_rules_is_a_named_error(self, runner, triple_files, tmp_path):
        manifest = tmp_path / "manifest.json"
        rules = {**DEFAULT_MANIFEST, "merged": [{"pattern": "*", "role": "transformer"}]}
        manifest.write_text(json.dumps(rules), encoding="utf-8")
        result = runner.invoke(main, ["inspect", str(triple_files["lvlm"]), "--manifest", str(manifest)])
        message = "manifest config: unknown model kind 'merged' (the merged rules come from the lvlm and rm rules)"
        assert_named_error(result, message)

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

    def test_vocabulary_size_is_the_sidecars_token_count(self, runner, triple_files, tmp_path):
        out = tmp_path / "merged.safetensors"
        assert runner.invoke(main, [*merge_args(triple_files, "linear"), "--out", str(out)]).exit_code == 0
        sidecar = tensorstore.default_vocab_path(out)
        tokens = len(read_vocab(sidecar))
        text, as_json = (runner.invoke(main, ["inspect", str(out), *flag]) for flag in ([], ["--json"]))
        assert f"vocabulary: {tokens} tokens" in text.stdout.splitlines()
        assert json.loads(as_json.stdout)["vocab_size"] == tokens
        sidecar.unlink()
        text, as_json = (runner.invoke(main, ["inspect", str(out), *flag]) for flag in ([], ["--json"]))
        assert text.exit_code == 0 and not [line for line in text.stdout.splitlines() if "vocabulary" in line]
        assert json.loads(as_json.stdout)["vocab_size"] is None

    def test_counts_the_sidecar_without_parsing_it(self, runner, triple_files, tmp_path, monkeypatch):
        out = tmp_path / "merged.safetensors"
        assert runner.invoke(main, [*merge_args(triple_files, "linear"), "--out", str(out)]).exit_code == 0
        monkeypatch.setattr(tensorstore, "_parse_vocab", lambda *args: pytest.fail("the sidecar was parsed"))
        for flag in ([], ["--json"]):
            result = runner.invoke(main, ["inspect", str(out), *flag])
            assert result.exit_code == 0, result.output

    def test_a_sidecar_merge_rejects_is_counted(self, runner, triple_files, tmp_path):
        tensorstore.default_vocab_path(triple_files["rm"]).write_bytes(b"a\na\n\xff\n")  # a duplicate, bad UTF-8
        result = runner.invoke(main, ["inspect", str(triple_files["rm"]), "--kind", "rm", "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["vocab_size"] == 3
        result = runner.invoke(main, [*merge_args(triple_files, "linear"), "--out", str(tmp_path / "out")])
        assert_named_error(result, "rm.safetensors.vocab: not UTF-8 text: invalid start byte")

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

    def test_scorer_command_that_cannot_start_is_a_named_error(self, runner, tmp_path):
        data = write_pairwise_dataset(tmp_path / "pairs.jsonl", 3)
        command = not_executable(tmp_path)
        result = runner.invoke(main, ["eval", "--mode", "pairwise", "--data", str(data), "--scorer", str(command)])
        assert_named_error(result, f"scorer command cannot start: {command}: Permission denied")

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

    def test_a_grid_that_does_not_fit_fails_before_any_input_is_hashed(self, runner, triple_files, tmp_path, monkeypatch):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"method": "ties", "lambda_grid": [0.5, 1.0], "density_grid": [0.4, 0.2],
                                      "primary_size": 6, "tiebreak_size": 3}), encoding="utf-8")
        grid = generate_grid(SweepConfig.from_json(config))
        # one variant fits; the grid's two densities need two more block slots a worker
        need = counted_per_worker(triple_files, grid)
        assert counted_per_worker(triple_files, grid[:1]) < need
        monkeypatch.setattr(assembly, "available_memory", lambda: need - 1)
        hashed = spy_on_hashing(monkeypatch)
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files), "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(tmp_path / "out"),
        ])
        assert_named_error(result, "but this process may use only")
        assert hashed == [] and not list(tmp_path.glob("*.sha256.json")) and not (tmp_path / "out").exists()

    def test_a_malformed_dataset_fails_before_any_input_is_hashed(self, runner, triple_files, tmp_path, monkeypatch):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"method": "linear", "lambda_grid": [0.5]}), encoding="utf-8")
        data = tmp_path / "valid.jsonl"
        data.write_text("{oops\n", encoding="utf-8")
        hashed = spy_on_hashing(monkeypatch)
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files), "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(tmp_path / "out"),
        ])
        assert_named_error(result, "valid.jsonl:1")
        assert hashed == [] and not list(tmp_path.glob("*.sha256.json")) and not (tmp_path / "out").exists()

    def test_a_dataset_too_small_for_the_split_fails_before_any_input_is_hashed(
        self, runner, triple_files, tmp_path, monkeypatch
    ):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"method": "linear", "lambda_grid": [0.5]}), encoding="utf-8")  # 400 + 100
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        hashed = spy_on_hashing(monkeypatch)
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files), "--config", str(config), "--data", str(data),
            "--scorer", STUB_CMD, "--out-dir", str(tmp_path / "out"),
        ])
        assert_named_error(result, "validation set has 12 examples; need 400 + 100")
        assert hashed == [] and not list(tmp_path.glob("*.sha256.json")) and not (tmp_path / "out").exists()

    def test_a_scorer_that_cannot_start_fails_every_recipe_and_is_recorded(self, runner, triple_files, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"method": "linear", "lambda_grid": [0.5, 1.0], "primary_size": 6,
                                      "tiebreak_size": 3}), encoding="utf-8")
        data = write_pairwise_dataset(tmp_path / "valid.jsonl", 12)
        command, out_dir = not_executable(tmp_path), tmp_path / "sweep-out"
        result = runner.invoke(main, [
            "sweep", *triple_args(triple_files), "--config", str(config), "--data", str(data),
            "--scorer", str(command), "--out-dir", str(out_dir),
        ])
        assert result.exit_code == 1, result.output
        assert result.output.rstrip().endswith("Error: all recipes failed")
        entries = [json.loads(line) for line in (out_dir / "sweep-manifest.jsonl").read_text().splitlines()]
        message = f"scorer command cannot start: {command}: Permission denied"
        assert [(e["status"], e["error"]) for e in entries] == [("failed", message)] * 2

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
