import hashlib
import sys
import time
import tracemalloc

import numpy as np
import pytest

import reference as ref
from vlrmerge import (
    CheckpointFormatError,
    Dtype,
    RecipeError,
    Role,
    TripleValidationError,
    assemble_vlrm,
    assembly,
    classify_triple,
    load_manifest_config,
    merging,
    read_checkpoint,
    write_checkpoint,
)
from vlrmerge.assembly import _HASH_BLOCK, check_merged_structure, file_digest
from vlrmerge.merging import MergeMethod, MergeRecipe
from vlrmerge.tensorstore import Tensor, default_vocab_path, read_vocab

from helpers import assemble_in, classified_toy_triple, toy_triple, write_triple


class TestComposition:
    def test_linear_identity_lambda_copies_lvlm(self, rng, tmp_path):
        triple = classified_toy_triple(rng, trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
        [merged] = assemble_in(tmp_path, [MergeRecipe(MergeMethod.LINEAR, lam=1.0)], triple, jobs=1)
        lvlm = triple.lvlm
        for name in lvlm.cmap.names(Role.TRANSFORMER):
            assert merged.tensors[name].data == lvlm.ckpt.tensors[name].data
        for role in (Role.VISION_ENCODER, Role.ADAPTER):
            for name in lvlm.cmap.names(role):
                assert merged.tensors[name].data == lvlm.ckpt.tensors[name].data
        for name in triple.rm.cmap.names(Role.RM_HEAD):
            assert merged.tensors[name].data == triple.rm.ckpt.tensors[name].data

    def test_task_arithmetic_zero_lambda_copies_pre_transformer(self, rng, tmp_path):
        triple = classified_toy_triple(rng, trans_dtype=Dtype.BF16)
        [merged] = assemble_in(tmp_path, [MergeRecipe(MergeMethod.TASK_ARITHMETIC, lam=0.0)], triple, jobs=1)
        for name in triple.pre.cmap.names(Role.TRANSFORMER):
            assert merged.tensors[name].data == triple.pre.ckpt.tensors[name].data

    def test_lm_head_is_dropped(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        [merged] = assemble_in(tmp_path, [MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, jobs=1)
        assert "lm_head.weight" not in merged.tensors
        assert "score.weight" in merged.tensors

    def test_tensor_count(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        [merged] = assemble_in(tmp_path, [MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, jobs=1)
        lvlm = triple.lvlm.cmap
        expected = (
            len(lvlm.names(Role.VISION_ENCODER))
            + len(lvlm.names(Role.ADAPTER))
            + len(lvlm.names(Role.TRANSFORMER))
            + 1  # embedding
            + len(triple.rm.cmap.names(Role.RM_HEAD))
        )
        assert len(merged.tensors) == expected

    def test_tied_output_embedding_adds_one_tensor(self, rng, tmp_path):
        triple = classified_toy_triple(rng, tied_output_embedding=True)
        [merged] = assemble_in(tmp_path, [MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4)], triple, jobs=1)
        assert "model.embed_tokens.weight" in merged.tensors
        assert "model.embed_tokens.tied_out" in merged.tensors

    def test_merged_vocab_is_lvlm_order_then_rm_only(self, rng, tmp_path):
        triple = classified_toy_triple(rng, lvlm_vocab=6, shared_vocab=4, rm_extra=2, pre_vocab=3)
        [merged] = assemble_in(tmp_path, [MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, jobs=1)
        tokens = sorted(merged.vocab, key=merged.vocab.get)
        assert tokens == ["t0", "t1", "t2", "t3", "t4", "t5", "r0", "r1"]
        emb = merged.tensors["model.embed_tokens.weight"]
        assert emb.shape[0] == len(tokens)

    def test_dare_ties_end_to_end_matches_reference(self, rng, tmp_path):
        triple = classified_toy_triple(rng, hidden=6, layers=3)
        recipe = MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.4, seed=7)
        [merged] = assemble_in(tmp_path, [recipe], triple, jobs=1)
        for name in triple.pre.cmap.names(Role.TRANSFORMER):
            pre = triple.pre.ckpt.tensors[name].to_f32().ravel()
            lvlm = triple.lvlm.ckpt.tensors[name].to_f32().ravel()
            rm = triple.rm.ckpt.tensors[name].to_f32().ravel()
            expected = ref.merge_reference(
                "dare-ties", pre, lvlm, rm, 0.7, 0.4, 7, name=name
            )
            ref.assert_close(merged.tensors[name].to_f32().ravel(), expected)
        assert merged.metadata["recipe.lambda"] == "0.7"
        assert merged.metadata["recipe.density"] == "0.4"
        assert merged.metadata["recipe.seed"] == "7"

    def test_output_dtypes_follow_lvlm(self, rng, tmp_path):
        triple = classified_toy_triple(rng, trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
        [merged] = assemble_in(tmp_path, [MergeRecipe(MergeMethod.TASK_ARITHMETIC, lam=0.3)], triple, jobs=1)
        for name in triple.lvlm.cmap.names(Role.TRANSFORMER):
            assert merged.tensors[name].dtype is Dtype.BF16
        assert merged.tensors["vision_model.encoder.weight"].dtype is Dtype.F16


class TestDeterminism:
    def test_identical_plan_gives_byte_identical_file(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        recipe = MergeRecipe(MergeMethod.DARE_TASK_ARITHMETIC, lam=0.7, density=0.4, seed=7)
        provenance = {"input.pre.sha256": "x" * 64}
        paths = []
        for i in range(2):
            path = tmp_path / f"out{i}.safetensors"
            assemble_vlrm([recipe], triple, [path], dict(provenance), jobs=1)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert default_vocab_path(paths[0]).read_bytes() == default_vocab_path(paths[1]).read_bytes()

    def test_worker_count_does_not_change_output(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        recipe = MergeRecipe(MergeMethod.DARE_TIES, lam=1.0, density=0.2, seed=99)
        [a] = assemble_in(tmp_path, [recipe], triple, jobs=1)
        [b] = assemble_in(tmp_path, [recipe], triple, jobs=4)
        assert a.tensors == b.tensors


class TestErrors:
    def test_invalid_triple_raises_with_report(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        name = "model.layers.0.mlp.weight"
        del triple.rm.ckpt.tensors[name]
        del triple.rm.cmap.assignments[name]
        with pytest.raises(TripleValidationError, match="name-set mismatch"):
            assemble_in(tmp_path, [MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, jobs=1)

    def test_density_without_sparsifying_method(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        with pytest.raises(RecipeError, match="not accepted"):
            assemble_in(tmp_path, [MergeRecipe(MergeMethod.LINEAR, lam=0.5, density=0.4)], triple, jobs=1)

    def test_missing_density(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        with pytest.raises(RecipeError, match="--density is required"):
            assemble_in(tmp_path, [MergeRecipe(MergeMethod.TIES, lam=0.5)], triple, jobs=1)

    def test_missing_seed(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        with pytest.raises(RecipeError, match="--seed is required"):
            assemble_in(tmp_path, [MergeRecipe(MergeMethod.DARE_TIES, lam=0.5, density=0.4)], triple, jobs=1)


class TestLambdaGroups:
    @pytest.mark.parametrize("method,extra", [
        (MergeMethod.LINEAR, {}),
        (MergeMethod.TASK_ARITHMETIC, {}),
        (MergeMethod.TIES, {"density": 0.4}),
        (MergeMethod.DARE_TASK_ARITHMETIC, {"density": 0.6, "seed": 3}),
        (MergeMethod.DARE_TIES, {"density": 0.4, "seed": 3}),
    ])
    def test_each_checkpoint_matches_its_own_assembly(self, rng, tmp_path, method, extra):
        triple = classified_toy_triple(rng, trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
        recipes = tuple(MergeRecipe(method, lam=lam, **extra) for lam in (0.8, 0.0, 0.3))
        provenance = {"input.pre.sha256": "x" * 64}
        grouped = assemble_in(tmp_path, recipes, triple, provenance, jobs=2)
        assert len(grouped) == len(recipes)
        for recipe, merged in zip(recipes, grouped):
            [alone] = assemble_in(tmp_path, [recipe], triple, provenance, jobs=1)
            assert merged.tensors == alone.tensors
            assert merged.metadata == alone.metadata
            assert merged.metadata["recipe.lambda"] == repr(recipe.lam)
            assert merged.vocab == alone.vocab

    def test_one_call_over_shuffled_groups_matches_one_call_per_group(self, rng, tmp_path):
        triple = opened_triple(tmp_path / "in", rng, trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
        groups = [
            [MergeRecipe(MergeMethod.TIES, lam=lam, density=0.4) for lam in (0.5, 1.0)],
            [MergeRecipe(MergeMethod.TIES, lam=lam, density=0.2) for lam in (0.5, 1.0)],
            [MergeRecipe(MergeMethod.DARE_TIES, lam=lam, density=0.4, seed=3) for lam in (0.7, 0.3)],
            [MergeRecipe(MergeMethod.LINEAR, lam=0.3)],
        ]
        (tmp_path / "apart").mkdir()
        (tmp_path / "together").mkdir()
        for group in groups:
            assemble_vlrm(group, triple, [tmp_path / "apart" / r.slug() for r in group], jobs=2)
        recipes = [recipe for group in groups for recipe in group]
        rng.shuffle(recipes)
        merged = assemble_vlrm(recipes, triple, [tmp_path / "together" / r.slug() for r in recipes], jobs=2)
        assert [m.metadata["recipe.lambda"] for m in merged] == [repr(r.lam) for r in recipes]
        for recipe in recipes:
            for name in (recipe.slug(), f"{recipe.slug()}.vocab"):
                assert (tmp_path / "together" / name).read_bytes() == (tmp_path / "apart" / name).read_bytes()

    def test_failure_in_a_later_group_keeps_the_earlier_groups(self, rng, tmp_path, monkeypatch):
        triple = opened_triple(tmp_path / "in", rng)
        real, calls = assembly.merge_transformer, []

        def failing(recipe, *args, **kwargs):
            calls.append(recipe.density)
            if len(calls) == 2:
                raise RuntimeError("merge failed")
            return real(recipe, *args, **kwargs)

        monkeypatch.setattr(assembly, "merge_transformer", failing)
        out = tmp_path / "out"
        out.mkdir()
        recipes = [MergeRecipe(MergeMethod.TIES, lam=lam, density=d) for d in (0.4, 0.2) for lam in (0.5, 1.0)]
        with pytest.raises(RuntimeError, match="merge failed"):
            assemble_vlrm(recipes, triple, [out / r.slug() for r in recipes], jobs=2)
        assert calls == [0.4, 0.2]
        # the first group is in place; the second left its sidecars and no temporary file
        names = [r.slug() for r in recipes]
        assert sorted(p.name for p in out.iterdir()) == sorted([*names[:2], *(f"{n}.vocab" for n in names)])
        monkeypatch.undo()
        for recipe in recipes[:2]:
            [alone] = assemble_in(tmp_path, [recipe], triple, jobs=1)
            assert read_checkpoint(out / recipe.slug()).tensors == alone.tensors

    def test_no_recipes_write_nothing_but_validate_the_triple(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        assert assemble_vlrm([], triple, [], jobs=1) == []
        del triple.rm.ckpt.tensors["model.norm.weight"]
        del triple.rm.cmap.assignments["model.norm.weight"]
        with pytest.raises(TripleValidationError, match="name-set mismatch"):
            assemble_vlrm([], triple, [], jobs=1)
        assert list(tmp_path.iterdir()) == []

    def test_recipes_sharing_an_output_path_rejected(self, rng, tmp_path):
        recipes = [MergeRecipe(MergeMethod.LINEAR, lam=lam) for lam in (0.2, 0.4)]
        paths = [tmp_path / "x", tmp_path / "sub" / ".." / "x"]
        with pytest.raises(RecipeError, match="recipes linear-l0.2 and linear-l0.4 share the output path"):
            assemble_vlrm(recipes, classified_toy_triple(rng), paths, jobs=1)
        assert list(tmp_path.iterdir()) == []


class TestStructureCheck:
    """The copied tensors are compared by bytes, whatever buffer type holds them."""

    @pytest.fixture
    def reread(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        path = tmp_path / "merged.safetensors"
        assemble_vlrm([MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, [path], jobs=1)
        return triple, read_checkpoint(path)

    def test_reread_checkpoint_passes(self, reread):
        triple, loaded = reread
        assert isinstance(loaded.tensors["score.weight"].data, memoryview)
        assert check_merged_structure(loaded, triple) == []

    @pytest.mark.parametrize("name,message", [
        ("vision_model.patch.weight", "vision_encoder tensor vision_model.patch.weight is not byte-identical to the lvlm"),
        ("score.weight", "reward head tensor score.weight is not byte-identical to the rm"),
    ])
    def test_one_flipped_byte_is_reported(self, reread, name, message):
        triple, loaded = reread
        tensor = loaded.tensors[name]
        flipped = bytearray(tensor.data)
        flipped[-1] ^= 1
        loaded.tensors[name] = Tensor(name, tensor.dtype, tensor.shape, memoryview(flipped).toreadonly())
        assert check_merged_structure(loaded, triple) == [message]


def test_round_trip_through_disk(rng, tmp_path):
    triple = classified_toy_triple(rng)
    path = tmp_path / "merged.safetensors"
    [merged] = assemble_vlrm([MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.6)], triple, [path], jobs=1)
    loaded = read_checkpoint(path)
    assert loaded.tensors == merged.tensors
    assert loaded.metadata == merged.metadata
    assert read_vocab(default_vocab_path(path)) == merged.vocab
    # the streamed file is the one write_checkpoint writes for the same tensors
    write_checkpoint(loaded, tmp_path / "rewritten.safetensors")
    assert (tmp_path / "rewritten.safetensors").read_bytes() == path.read_bytes()


def opened_triple(directory, rng, **kwargs):
    """A toy triple written to files under ``directory`` and opened, header-only, with its default manifest."""
    directory.mkdir()
    paths = write_triple(directory, *toy_triple(rng, **kwargs))
    return open_triple(paths)


def open_triple(paths):
    return classify_triple(*(read_checkpoint(paths[k]) for k in ("pre", "lvlm", "rm")), load_manifest_config())


class TestStreamedAssembly:
    def test_output_equals_assembly_of_the_triple_in_memory(self, rng, tmp_path):
        kwargs = dict(trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16, tied_output_embedding=True)
        in_memory = classified_toy_triple(np.random.default_rng(5), **kwargs)
        opened = opened_triple(tmp_path / "in", np.random.default_rng(5), **kwargs)
        recipe = MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.4, seed=3)
        paths = [tmp_path / "a.safetensors", tmp_path / "b.safetensors"]
        assemble_vlrm([recipe], in_memory, paths[:1], jobs=1)
        assemble_vlrm([recipe], opened, paths[1:], jobs=2)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_language_modeling_heads_are_never_read(self, rng, tmp_path):
        triple = opened_triple(tmp_path / "in", rng)
        for model in (triple.pre, triple.lvlm):
            for name in model.cmap.names(Role.LM_HEAD):
                # any read of these heads would run past the end of the file
                head, file = model.ckpt.tensors[name], model.ckpt.file
                model.ckpt.tensors[name] = Tensor(name, head.dtype, head.shape, place=(file, file.stamp.size))
        assemble_vlrm([MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, [tmp_path / "out"], jobs=1)
        with pytest.raises(CheckpointFormatError, match="cut short"):
            triple.lvlm.ckpt.tensors["lm_head.weight"].load()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_traced_peak_does_not_grow_with_the_layer_count(self, tmp_path, jobs):
        # 64 x 64 float32 matrices: a worker's workspace is about eight float32 copies of one
        hidden, recipe = 64, MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4)
        workspace = 8 * 4 * hidden * hidden
        peaks = {}
        for layers in (4, 16):
            directory = tmp_path / f"l{layers}"
            directory.mkdir()
            paths = write_triple(directory, *toy_triple(np.random.default_rng(layers), hidden=hidden, layers=layers))
            out = directory / "merged.safetensors"
            assemble_vlrm([recipe], open_triple(paths), [out], jobs=jobs)  # the pool and lazy imports exist
            tracemalloc.start()
            try:  # from opening the inputs to the renamed output
                assemble_vlrm([recipe], open_triple(paths), [out], jobs=jobs)
                peaks[layers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16] - peaks[4] < jobs * workspace

    def test_more_workers_than_cores_lose_no_write(self, tmp_path):
        # eight workers, a short switch interval: a lost tensor or a lost count of
        # written bytes would fail the writer's check or change the bytes
        triple = opened_triple(tmp_path / "in", np.random.default_rng(9), hidden=8, layers=24,
                               trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
        recipes = [MergeRecipe(MergeMethod.DARE_TIES, lam=lam, density=0.5, seed=1) for lam in (0.5, 1.0)]
        one = [tmp_path / f"one-{i}" for i in range(2)]
        eight = [tmp_path / f"eight-{i}" for i in range(2)]
        assemble_vlrm(recipes, triple, one, jobs=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            for _ in range(3):
                assemble_vlrm(recipes, triple, eight, jobs=8)
                assert [p.read_bytes() for p in eight] == [p.read_bytes() for p in one]
            assert time.monotonic() - started < 60
        finally:
            sys.setswitchinterval(interval)

    def test_failure_mid_group_leaves_no_variant_and_no_temporary_file(self, rng, tmp_path, monkeypatch):
        triple = opened_triple(tmp_path / "in", rng)
        real, merged = merging._merge_per_lam, []

        def failing(recipe, lams, name, *args):
            if len(merged) == 2:
                raise RuntimeError("worker failed")
            merged.append(name)
            yield from real(recipe, lams, name, *args)

        monkeypatch.setattr(merging, "_merge_per_lam", failing)
        out = tmp_path / "out"
        out.mkdir()
        recipes = [MergeRecipe(MergeMethod.TASK_ARITHMETIC, lam=lam) for lam in (0.3, 0.6, 0.9)]
        with pytest.raises(RuntimeError, match="worker failed"):
            assemble_vlrm(recipes, triple, [out / f"v{i}.safetensors" for i in range(3)], jobs=2)
        # the sidecars are written first; no checkpoint and no temporary file remain
        assert sorted(p.name for p in out.iterdir()) == [f"v{i}.safetensors.vocab" for i in range(3)]

    def test_path_count_must_match_the_recipes(self, rng, tmp_path):
        with pytest.raises(RecipeError, match="2 recipes need as many output paths, got 1"):
            recipes = [MergeRecipe(MergeMethod.LINEAR, lam=lam) for lam in (0.2, 0.4)]
            assemble_vlrm(recipes, classified_toy_triple(rng), [tmp_path / "x"], jobs=1)


class TestFileDigest:
    @pytest.mark.parametrize("size", [0, 5, 3 * _HASH_BLOCK + 17])
    def test_matches_whole_file_sha256(self, rng, tmp_path, size):
        path = tmp_path / "blob.bin"
        path.write_bytes(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
        assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
