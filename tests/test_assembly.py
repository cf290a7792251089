import hashlib
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference as ref
from vlrmerge import (
    CheckpointFormatError,
    Dtype,
    InsufficientMemoryError,
    NonFiniteWeightError,
    RecipeError,
    Role,
    TripleValidationError,
    VlrmergeError,
    assemble_vlrm,
    assembly,
    classify_triple,
    load_manifest_config,
    merging,
    read_checkpoint,
    write_checkpoint,
)
from vlrmerge.assembly import check_merged_structure
from vlrmerge.merging import MergeMethod, MergeRecipe
from vlrmerge.sweep import DEFAULT_DENSITY_GRID
from vlrmerge.tensorstore import (
    _COPY_BLOCK,
    CheckpointFile,
    CheckpointWriter,
    Tensor,
    default_vocab_path,
    file_digest,
    narrow,
    read_vocab,
)

from helpers import assemble, assemble_in, classified_toy_triple, footprint, make_tensor, toy_triple, write_triple


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
            assemble([recipe], triple, [path], dict(provenance), jobs=1)
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

    @pytest.mark.parametrize("other", [
        MergeRecipe(MergeMethod.DARE_TIES, lam=0.5, density=0.4, seed=4),
        MergeRecipe(MergeMethod.DARE_TASK_ARITHMETIC, lam=0.5, density=0.4, seed=3),
    ], ids=["seed", "method"])
    def test_recipes_of_another_method_or_seed_rejected_before_any_write_or_read(
        self, rng, tmp_path, monkeypatch, other
    ):
        triple = opened_triple(tmp_path / "in", rng)
        reads = spy_reads(monkeypatch)
        out = tmp_path / "out"
        out.mkdir()
        recipes = [MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.4, seed=3), other]
        with pytest.raises(RecipeError, match=f"recipe {other.slug()} does not share the method and seed of"):
            assemble(recipes, triple, [out / r.slug() for r in recipes], jobs=2)
        assert reads == [] and list(out.iterdir()) == []

    def test_a_plan_needs_recipes(self, rng):
        with pytest.raises(RecipeError, match="no variant was given"):
            assembly.plan_merge([], classified_toy_triple(rng), 1)

    def test_no_outputs_write_and_merge_nothing(self, rng, tmp_path, monkeypatch):
        plan = assembly.plan_merge([MergeRecipe(MergeMethod.LINEAR, lam=0.5)], classified_toy_triple(rng), 1)
        monkeypatch.setattr(assembly, "merge_transformer", lambda *args, **kwargs: pytest.fail("a merge ran"))
        assert assemble_vlrm(plan, {}) is None
        assert list(tmp_path.iterdir()) == []

    def test_recipes_sharing_an_output_path_rejected(self, rng, tmp_path):
        first, second = MergeRecipe(MergeMethod.LINEAR, lam=0.2), MergeRecipe(MergeMethod.LINEAR, lam=0.4)
        paths = [tmp_path / "x", tmp_path / "sub" / ".." / "x"]
        with pytest.raises(RecipeError, match=f"recipes linear-l0.2 and {second.slug()} share the output path"):
            assemble([first, second], classified_toy_triple(rng), paths, jobs=1)
        assert list(tmp_path.iterdir()) == []

    def test_a_recipe_outside_the_plan_rejected_before_any_write(self, rng, tmp_path):
        planned, other = MergeRecipe(MergeMethod.LINEAR, lam=0.2), MergeRecipe(MergeMethod.LINEAR, lam=0.4)
        plan = assembly.plan_merge([planned], classified_toy_triple(rng), 1)
        with pytest.raises(RecipeError, match="^recipe linear-l0.4 is not one of the merge plan's recipes$"):
            assemble_vlrm(plan, {planned: tmp_path / "a", other: tmp_path / "b"})
        assert list(tmp_path.iterdir()) == []


class TestStructureCheck:
    """The copied tensors are compared by bytes, whatever buffer type holds them."""

    @pytest.fixture
    def reread(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        path = tmp_path / "merged.safetensors"
        assemble([MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, [path], jobs=1)
        return triple, read_checkpoint(path)

    def test_reread_checkpoint_passes(self, reread):
        triple, loaded = reread
        assert isinstance(loaded.tensors["score.weight"].data, memoryview)
        assert check_merged_structure(loaded, triple) == []

    @pytest.mark.parametrize("name,message", [
        ("vision_model.patch.weight", "vision_encoder tensor vision_model.patch.weight is not byte-identical to the lvlm"),
        ("score.weight", "rm_head tensor score.weight is not byte-identical to the rm"),
    ])
    def test_one_flipped_byte_is_reported(self, reread, name, message):
        triple, loaded = reread
        tensor = loaded.tensors[name]
        flipped = bytearray(tensor.data)
        flipped[-1] ^= 1
        loaded.tensors[name] = Tensor(name, tensor.dtype, tensor.shape, memoryview(flipped).toreadonly())
        assert check_merged_structure(loaded, triple) == [message]

    @pytest.mark.parametrize("dtype,shape", [(Dtype.BF16, (8, 8)), (Dtype.F16, (16, 4))], ids=["dtype", "shape"])
    def test_the_same_bytes_of_another_dtype_or_shape_are_reported(self, reread, dtype, shape):
        triple, loaded = reread
        name = "vision_model.patch.weight"  # f16, 8 x 8
        loaded.tensors[name] = Tensor(name, dtype, shape, loaded.tensors[name].data)
        assert check_merged_structure(loaded, triple) == [
            f"vision_encoder tensor {name} is not byte-identical to the lvlm"]

    def test_kept_language_modeling_head_is_reported(self, reread):
        triple, loaded = reread
        loaded.tensors["lm_head.weight"] = triple.lvlm.ckpt.tensors["lm_head.weight"]
        assert check_merged_structure(loaded, triple) == ["tensor lm_head.weight must be dropped"]


def test_round_trip_through_disk(rng, tmp_path):
    triple = classified_toy_triple(rng)
    path = tmp_path / "merged.safetensors"
    assemble([MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.6)], triple, [path], jobs=1)
    loaded = read_checkpoint(path)
    assert loaded.vocab == read_vocab(default_vocab_path(path))
    assert check_merged_structure(loaded, triple) == []
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
        assemble([recipe], in_memory, paths[:1], jobs=1)
        assemble([recipe], opened, paths[1:], jobs=2)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_language_modeling_heads_are_never_read(self, rng, tmp_path):
        triple = opened_triple(tmp_path / "in", rng)
        for model in (triple.pre, triple.lvlm):
            for name in model.cmap.names(Role.LM_HEAD):
                # any read of these heads would run past the end of the file
                head, file = model.ckpt.tensors[name], model.ckpt.file
                model.ckpt.tensors[name] = Tensor(name, head.dtype, head.shape, place=(file, file.stamp.size))
        assemble([MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, [tmp_path / "out"], jobs=1)
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
            assemble([recipe], open_triple(paths), [out], jobs=jobs)  # the pool and lazy imports exist
            tracemalloc.start()
            try:  # from opening the inputs to the renamed output
                assemble([recipe], open_triple(paths), [out], jobs=jobs)
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
        assemble(recipes, triple, one, jobs=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            for _ in range(3):
                assemble(recipes, triple, eight, jobs=8)
                assert [p.read_bytes() for p in eight] == [p.read_bytes() for p in one]
            assert time.monotonic() - started < 60
        finally:
            sys.setswitchinterval(interval)

    def test_failure_mid_group_leaves_no_variant_and_no_temporary_file(self, rng, tmp_path, monkeypatch):
        triple = opened_triple(tmp_path / "in", rng)
        real, merged = merging._merge_per_lam, []

        def failing(variants, name, *args):
            if len(merged) == 2:
                raise RuntimeError("worker failed")
            merged.append(name)
            yield from real(variants, name, *args)

        monkeypatch.setattr(merging, "_merge_per_lam", failing)
        out = tmp_path / "out"
        out.mkdir()
        recipes = [MergeRecipe(MergeMethod.TASK_ARITHMETIC, lam=lam) for lam in (0.3, 0.6, 0.9)]
        with pytest.raises(RuntimeError, match="worker failed"):
            assemble(recipes, triple, [out / f"v{i}.safetensors" for i in range(3)], jobs=2)
        # the sidecars are written first; no checkpoint and no temporary file remain
        assert sorted(p.name for p in out.iterdir()) == [f"v{i}.safetensors.vocab" for i in range(3)]


EMB = "model.embed_tokens.weight"
EVERY_METHOD = [
    MergeRecipe(MergeMethod.LINEAR, lam=0.3),
    MergeRecipe(MergeMethod.TASK_ARITHMETIC, lam=0.7),
    MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4),
    MergeRecipe(MergeMethod.DARE_TASK_ARITHMETIC, lam=0.7, density=0.4, seed=3),
    MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.4, seed=3),
]


def spy_reads(monkeypatch) -> list[tuple]:
    """Record (path, offset, bytes) of every ``CheckpointFile.read_into`` call from now on."""
    real, reads = CheckpointFile.read_into, []

    def spy(self, buffer, offset):
        reads.append((self.path, offset, memoryview(buffer).nbytes))
        return real(self, buffer, offset)

    monkeypatch.setattr(CheckpointFile, "read_into", spy)
    return reads


class TestEmbeddingBlocks:
    """The embedding is merged a block of output rows at a time, on the workers, from the rows each block takes."""

    @staticmethod
    def permuted_triple(directory, rng):
        """An opened bf16 toy triple whose rm embedding rows are shuffled against its vocabulary order."""
        pre, lvlm, rm = toy_triple(rng, lvlm_vocab=40, shared_vocab=30, rm_extra=9, pre_vocab=25,
                                   trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
        perm = rng.permutation(len(rm.vocab))
        rm.vocab = {token: int(perm[row]) for token, row in rm.vocab.items()}
        stored = rm.tensors[EMB].array()
        shuffled = np.empty_like(stored)
        shuffled[perm] = stored
        rm.tensors[EMB] = Tensor(EMB, Dtype.BF16, stored.shape, shuffled.tobytes())
        directory.mkdir()
        return open_triple(write_triple(directory, pre, lvlm, rm))

    @pytest.mark.parametrize("recipe", EVERY_METHOD, ids=lambda r: r.method.value)
    def test_blocks_give_the_whole_matrix_merge_for_any_block_size_and_jobs(self, tmp_path, monkeypatch, recipe):
        triple = self.permuted_triple(tmp_path / "in", np.random.default_rng(3))
        emb = triple.tensors(Role.EMBEDDING)
        vocabs = [m.ckpt.vocab for m in (triple.pre, triple.lvlm, triple.rm)]
        tokens, rows = ref.embedding_rows(recipe.method.value, *vocabs, *(ts[EMB].to_f32() for ts in emb.values()))
        whole = narrow(np.asarray(rows, np.float32), Dtype.BF16)  # widening and narrowing round-trip every row copied
        default = tmp_path / "default"
        assemble([recipe], triple, [default], jobs=2)
        real, calls = assembly.merge_embedding_rows, []

        def spy(*args):
            rows = real(*args)
            calls.append(len(rows))
            return rows

        monkeypatch.setattr(assembly, "merge_embedding_rows", spy)
        monkeypatch.setattr(merging, "_BLOCK", 24)  # three rows of width 8: blocks cut the runs of rows
        outs = [tmp_path / f"small-j{jobs}" for jobs in (1, 2)]
        for jobs, out in zip((1, 2), outs):
            assemble([recipe], triple, [out], jobs=jobs)
        # each of the two calls merges the 49 output rows in 17 blocks
        assert sum(calls) == 2 * len(tokens) and len(calls) == 2 * -(-len(tokens) // 3)
        assert read_checkpoint(default).tensors[EMB].data == whole
        assert outs[0].read_bytes() == outs[1].read_bytes() == default.read_bytes()

    @pytest.mark.parametrize("recipe", [EVERY_METHOD[0], EVERY_METHOD[2]], ids=lambda r: r.method.value)
    def test_linear_reads_no_byte_of_the_base_embedding(self, tmp_path, monkeypatch, recipe):
        triple = self.permuted_triple(tmp_path / "in", np.random.default_rng(4))
        base = triple.pre.ckpt.tensors[EMB]
        file, start = base._place
        reads = spy_reads(monkeypatch)
        assemble([recipe], triple, [tmp_path / "out"], jobs=2)
        hits = [(offset, size) for path, offset, size in reads
                if path == file.path and offset < start + base.nbytes and offset + size > start]
        if recipe.method is MergeMethod.LINEAR:
            assert hits == []
        else:  # the base rows are read, each read inside the matrix
            assert hits and all(start <= offset and offset + size <= start + base.nbytes for offset, size in hits)
        lvlm = triple.lvlm.ckpt.tensors[EMB]
        assert any(path == lvlm._place[0].path and lvlm._place[1] <= offset < lvlm._place[1] + lvlm.nbytes
                   for path, offset, _ in reads)

    @pytest.mark.parametrize("method", [MergeMethod.LINEAR, MergeMethod.TASK_ARITHMETIC])
    def test_a_non_finite_row_no_block_reads_is_still_rejected(self, tmp_path, method):
        # lvlm row 2 is a token the base knows, so only linear takes it; pre row 24 no output row takes
        pre, lvlm, rm = toy_triple(np.random.default_rng(5), lvlm_vocab=40, shared_vocab=30, rm_extra=9, pre_vocab=25)
        for ckpt, row in ((lvlm, 2), (pre, 24)):
            values = ckpt.tensors[EMB].to_f32()
            values[row, 5] = np.inf
            ckpt.tensors[EMB] = make_tensor(EMB, values)
        pre.vocab.pop("t24")
        (tmp_path / "in").mkdir()
        triple = open_triple(write_triple(tmp_path / "in", pre, lvlm, rm))
        recipe = MergeRecipe(method, lam=0.5)
        # the first piece that fails is reported: for linear the block with lvlm row 2, else the check of pre row 24
        rows = "lvlm embedding row 2" if method is MergeMethod.LINEAR else "pre embedding row 24"
        for jobs in (1, 2):
            with pytest.raises(NonFiniteWeightError, match=f"^{rows} holds a non-finite weight$"):
                assemble([recipe], triple, [tmp_path / "out"], jobs=jobs)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_worker_holds_a_whole_embedding_matrix(self, tmp_path, jobs):
        # 4,160 output rows of width 2,048: 65 blocks of 64 rows, a 16 MiB bf16 matrix per model
        width, rng = 2048, np.random.default_rng(6)
        pre, lvlm, rm = toy_triple(rng, lvlm_vocab=4096, shared_vocab=3000, rm_extra=64, pre_vocab=2048)
        for ckpt in (pre, lvlm, rm):
            bits = rng.integers(0, 0x7F00, (len(ckpt.vocab), width), dtype=np.uint16)
            ckpt.tensors[EMB] = Tensor(EMB, Dtype.BF16, bits.shape, bits.tobytes())
        (tmp_path / "in").mkdir()
        paths = write_triple(tmp_path / "in", pre, lvlm, rm)
        out, recipe = tmp_path / "merged.safetensors", MergeRecipe(MergeMethod.TASK_ARITHMETIC, lam=0.5)
        assemble([recipe], open_triple(paths), [out], jobs=jobs)  # the pool and lazy imports exist
        tracemalloc.start()
        try:
            assemble([recipe], open_triple(paths), [out], jobs=jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = read_checkpoint(out).tensors[EMB].nbytes
        assert matrix >= 32 * 2 * merging._BLOCK
        assert peak < matrix / 2, f"peak {peak} bytes beside a {matrix}-byte embedding"


def fake_system(root, cgroup="0::/", meminfo_kib=8 << 20, groups=None):
    """A /proc and a cgroup v2 tree under ``root`` for ``available_memory``; ``groups`` maps a path to its files."""
    (root / "proc/self").mkdir(parents=True)
    (root / "proc/meminfo").write_text(f"MemTotal: {2 * meminfo_kib} kB\nMemAvailable: {meminfo_kib} kB\n")
    (root / "proc/self/cgroup").write_text(f"{cgroup}\n")
    for group, files in (groups or {}).items():
        directory = root / "sys/fs/cgroup" / group
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (directory / name).write_text(text)
    return root


MIB = 1 << 20


class TestMemoryPreflight:
    def test_a_merge_that_does_not_fit_one_worker_fails_before_any_payload_read(self, rng, tmp_path, monkeypatch):
        triple = opened_triple(tmp_path / "in", rng)
        recipes = [MergeRecipe(MergeMethod.TIES, lam=lam, density=0.4) for lam in (0.5, 1.0)]
        need = footprint(recipes, triple.tensors(Role.TRANSFORMER)["pre"])
        reads = spy_reads(monkeypatch)
        monkeypatch.setattr(assembly, "available_memory", lambda: need - 1)
        paths = [tmp_path / f"v{i}" for i in range(2)]
        numbers = r"^one merge worker needs about [\d.]+ MiB \(.*\), but this process may use only [\d.]+ MiB$"
        with pytest.raises(InsufficientMemoryError, match=numbers) as raised:
            assemble(recipes, triple, paths, jobs=2)
        assert (raised.value.needed, raised.value.available) == (need, need - 1)
        assert reads == [] and list(tmp_path.iterdir()) == [tmp_path / "in"]
        monkeypatch.setattr(assembly, "available_memory", lambda: need)
        assemble(recipes, triple, paths, jobs=2)
        assert reads

    def test_the_workers_are_lowered_to_those_that_fit(self, rng, tmp_path, monkeypatch, caplog):
        triple = opened_triple(tmp_path / "in", rng)
        recipe = MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4)
        need = footprint([recipe], triple.tensors(Role.TRANSFORMER)["pre"])
        assert len(triple.tensors(Role.TRANSFORMER)["pre"]) >= 4
        for have, workers in ((None, 4), (4 * need, 4), (4 * need - 1, 3), (2 * need - 1, 1)):
            monkeypatch.setattr(assembly, "available_memory", lambda have=have: have)
            assert assembly.plan_merge([recipe], triple, 4).workers == workers
        assert "running 1 of 4 workers" in caplog.text
        assemble([recipe], triple, [tmp_path / "four"], jobs=4)
        seen, real_merge, real_run = [], assembly.merge_transformer, assembly.run_workers

        def merge(*args, jobs, **kwargs):
            seen.append(("merge", jobs))
            return real_merge(*args, jobs=jobs, **kwargs)

        def run(items, jobs, *args):
            seen.append(("run", jobs))
            return real_run(items, jobs, *args)

        monkeypatch.setattr(assembly, "merge_transformer", merge)
        monkeypatch.setattr(assembly, "run_workers", run)
        assemble([recipe], triple, [tmp_path / "one"], jobs=4)
        assert seen == [("merge", 1), ("run", 1)]
        assert (tmp_path / "one").read_bytes() == (tmp_path / "four").read_bytes()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, rng, tmp_path, jobs):
        with pytest.raises(VlrmergeError, match=f"jobs must be at least 1, got {jobs}"):
            assemble([MergeRecipe(MergeMethod.LINEAR, lam=0.5)], opened_triple(tmp_path / "in", rng),
                          [tmp_path / "out"], jobs=jobs)

    def test_the_footprint_counts_the_block_slots_and_the_ties_key(self, rng):
        pre, lvlm, rm = ({"w": rng.standard_normal((300, 500)).astype(np.float32)} for _ in range(3))
        n = 300 * 500
        slots = merging._Buffers.layout(merging._kernel_slots(0, merging._BLOCK, False))[1]
        ties = [MergeRecipe(MergeMethod.TIES, lam=lam, density=0.4) for lam in (0.3, 0.6, 0.9)]
        # no payload is staged and no output kept; ties adds a uint32 key of the largest tensor
        assert footprint(ties, pre) == slots + 4 * n
        # lambda outer, density inner, as generate_grid orders a sweep: two float32 block slots more
        grid = [replace(recipe, density=d) for recipe in ties for d in (0.8, 0.6, 0.4, 0.2)]
        assert footprint(grid, pre) == slots + 4 * n + 2 * 4 * merging._BLOCK
        linear = [MergeRecipe(MergeMethod.LINEAR, lam=0.5)]
        assert footprint(linear, pre) == slots

    @pytest.mark.parametrize("method,seed", [(MergeMethod.TIES, None), (MergeMethod.DARE_TIES, 3),
                                             (MergeMethod.DARE_TASK_ARITHMETIC, 3)])
    def test_a_sink_merge_allocates_no_output_payload_outside_the_mapping(self, rng, method, seed):
        # lambda outer, density inner, as generate_grid orders a sweep
        recipes = [MergeRecipe(method, lam=lam, density=d, seed=seed)
                   for lam in (0.5, 0.7, 1.0) for d in (0.8, 0.6, 0.4, 0.2)]
        maps = [{"w": rng.standard_normal(1 << 18).astype(np.float32)} for _ in range(3)]
        payload = maps[1]["w"].nbytes
        merging.merge_transformer(recipes[0], *maps, jobs=1, variants=recipes, sink=lambda *block: None)
        tracemalloc.start()
        try:
            merging.merge_transformer(recipes[0], *maps, jobs=1, variants=recipes, sink=lambda *block: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the worker's buffers, output blocks included, are a mapping, which tracemalloc does not see
        assert peak < 0.5 * payload

    def test_available_memory_is_read_from_the_system(self):
        have = merging.available_memory()
        assert have is None or have >= 0

    def test_available_memory_counts_each_limiting_group_with_its_file_cache(self, tmp_path):
        stat = f"anon {600 * MIB}\nfile {350 * MIB}\nactive_file {100 * MIB}\ninactive_file {200 * MIB}\n"
        root = fake_system(tmp_path, cgroup="0::/job/step", groups={
            "": {"memory.stat": "active_file 1\n"},  # the top group sets no limit
            "job": {"memory.max": f"{1000 * MIB}\n", "memory.current": f"{990 * MIB}\n", "memory.stat": stat},
            "job/step": {"memory.max": "max\n", "memory.current": f"{900 * MIB}\n"},
        })
        # 10 MiB below the limit, and 300 MiB of file cache the kernel can take back; the shmem in file is not
        assert merging.available_memory(root) == 310 * MIB
        (root / "sys/fs/cgroup/job/step/memory.max").write_text(f"{950 * MIB}\n")
        assert merging.available_memory(root) == 50 * MIB

    def test_a_group_over_its_limit_without_cache_has_nothing_free(self, tmp_path):
        root = fake_system(tmp_path, cgroup="0::/job", groups={
            "job": {"memory.max": "100\n", "memory.current": "150\n", "memory.stat": "inactive_file 20\n"},
        })
        assert merging.available_memory(root) == 0

    def test_the_top_group_counts_in_a_cgroup_namespace(self, tmp_path):
        root = fake_system(tmp_path, groups={"": {"memory.max": f"{64 * MIB}\n", "memory.current": f"{4 * MIB}\n"}})
        assert merging.available_memory(root) == 60 * MIB

    def test_without_cgroup_v2_mem_available_applies(self, tmp_path):
        root = fake_system(tmp_path, cgroup="4:memory:/job", meminfo_kib=7 << 20)
        assert merging.available_memory(root) == 7 << 30
        (root / "proc/meminfo").unlink()
        assert merging.available_memory(root) is None


class TestFileDigest:
    @pytest.mark.parametrize("size", [0, 5, 3 * _COPY_BLOCK + 17])
    def test_matches_whole_file_sha256(self, rng, tmp_path, size):
        path = tmp_path / "blob.bin"
        path.write_bytes(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
        assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def recipes_of(grid):
    """One linear recipe, or the default 3 lambda x 4 density TIES grid."""
    if grid == "linear":
        return [MergeRecipe(MergeMethod.LINEAR, lam=0.5)]
    return [MergeRecipe(MergeMethod.TIES, lam=lam, density=d) for lam in (0.5, 0.7, 1.0) for d in DEFAULT_DENSITY_GRID]


class TestOneBufferTable:
    """Every worker mapping of an assembly holds the merge kernel's one table of slots, ``_kernel_slots``."""

    @staticmethod
    def spied(monkeypatch):
        """The tables ``_kernel_slots`` makes, and the slots and bytes of each ``_Buffers`` mapped, in order."""
        tables, mappings = [], []
        kernel_slots, init = merging._kernel_slots, merging._Buffers.__init__

        def table(*args):
            tables.append(kernel_slots(*args))
            return tables[-1]

        def mapped(self, slots):
            init(self, slots)
            mappings.append((slots, len(self.mapping)))

        for module in (merging, assembly):
            monkeypatch.setattr(module, "_kernel_slots", table)
        monkeypatch.setattr(merging._Buffers, "__init__", mapped)
        return tables, mappings

    @pytest.mark.parametrize("hidden", [8, 32])
    @pytest.mark.parametrize("grid", ["linear", "ties-3x4"])
    def test_every_mapping_is_a_kernel_table(self, tmp_path, monkeypatch, grid, hidden):
        triple = opened_triple(tmp_path / "in", np.random.default_rng(8), hidden=hidden,
                               trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
        recipes = recipes_of(grid)
        tables, mappings = self.spied(monkeypatch)
        assemble(recipes, triple, [tmp_path / recipe.slug() for recipe in recipes], jobs=2)
        # two workers merge the transformer, then two merge the embedding blocks and copy the rest
        assert len(mappings) == 4
        assert all(any(slots is table for table in tables) for slots, _ in mappings)
        trans = triple.tensors(Role.TRANSFORMER)
        kernel = footprint(recipes, trans["pre"])
        assert [size for _, size in mappings[:2]] == [kernel] * 2
        block = mappings[2][0]["out"][1]  # the elements of the table's block
        largest = max(t.numel for t in trans["pre"].values())
        if largest >= block:  # the embedding blocks and copies map no more than the kernel
            assert all(size <= kernel for _, size in mappings[2:])

    @pytest.mark.parametrize("grid", ["linear", "ties-3x4"])
    @pytest.mark.parametrize("rows,width,largest", [
        (2064, 512, 1408 * 512),  # vocabulary rows, hidden width and MLP matrix of merge-sparse,
        (22656, 512, 1408 * 512),  # merge-dense,
        (1040, 384, 1024 * 384),  # sweep-ties,
        (128264, 4096, 14336 * 4096),  # and the paper's Llama-3.2-Vision vocabulary on Llama-3.1-8B
    ], ids=["merge-sparse", "merge-dense", "sweep-ties", "paper"])
    def test_benchmark_and_paper_shapes_keep_the_embedding_mapping_within_the_footprint(
        self, grid, rows, width, largest
    ):
        block = min(max(1, merging._BLOCK // width), rows) * width
        assert block <= merging._BLOCK <= largest
        embedding = merging._Buffers.layout(merging._kernel_slots(0, block, False))[1]
        trans = {"w": np.broadcast_to(np.float32(0), (largest,))}  # a size, with no payload behind it
        assert embedding <= footprint(recipes_of(grid), trans)

    @staticmethod
    def counted(monkeypatch, recipes, triple) -> int:
        """The bytes a worker maps by ``plan_merge``'s count: what it needs when no memory is left."""
        monkeypatch.setattr(assembly, "available_memory", lambda: 0)
        with pytest.raises(InsufficientMemoryError) as raised:
            assembly.plan_merge(recipes, triple, 2)
        monkeypatch.setattr(assembly, "available_memory", lambda: None)
        return raised.value.needed

    @pytest.mark.parametrize("grid", ["linear", "ties-3x4"])
    @pytest.mark.parametrize("width", [8, 100], ids=["hidden-8", "row-past-the-largest-tensor"])
    def test_no_mapping_outgrows_what_plan_merge_counts(self, tmp_path, monkeypatch, grid, width):
        # 8 x 8 transformer matrices against 28 vocabulary rows of 8, or of 100 elements
        rng = np.random.default_rng(9)
        models = toy_triple(rng, trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
        for ckpt in models:
            rows = ckpt.tensors[EMB].shape[0]
            ckpt.tensors[EMB] = make_tensor(EMB, rng.uniform(-2.0, 2.0, (rows, width)), Dtype.BF16)
        (tmp_path / "in").mkdir()
        triple = open_triple(write_triple(tmp_path / "in", *models))
        recipes = recipes_of(grid)
        per_worker = self.counted(monkeypatch, recipes, triple)
        _, mappings = self.spied(monkeypatch)
        assemble(recipes, triple, [tmp_path / recipe.slug() for recipe in recipes], jobs=2)
        assert len(mappings) == 4
        assert all(size <= per_worker for _, size in mappings)

    def test_a_small_vocabulary_copies_each_tensor_in_one_write(self, tmp_path, monkeypatch):
        # 28 vocabulary rows of 64 against 64 x 64 transformer matrices; each f16 vision tensor is 8 KiB
        triple = opened_triple(tmp_path / "in", np.random.default_rng(10), hidden=64)
        writes, real = [], CheckpointWriter.write

        def spy(self, name, piece, at=0):
            writes.append((name, memoryview(piece).nbytes))
            return real(self, name, piece, at)

        monkeypatch.setattr(CheckpointWriter, "write", spy)
        assemble([MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, [tmp_path / "out"], jobs=2)
        for name in triple.lvlm.cmap.names(Role.VISION_ENCODER):
            assert [size for written, size in writes if written == name] == [8 << 10]
