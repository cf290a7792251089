import hashlib

import numpy as np
import pytest

import reference as ref
from vlrmerge import (
    AssemblyPlan,
    Dtype,
    RecipeError,
    Role,
    TripleValidationError,
    assemble_vlrm,
    read_checkpoint,
)
from vlrmerge.assembly import _HASH_BLOCK, check_merged_structure, file_digest, write_merged
from vlrmerge.merging import MergeMethod, MergeRecipe
from vlrmerge.tensorstore import Tensor, default_vocab_path, read_vocab

from helpers import classified_toy_triple


def plan_for(triple, method, **kwargs):
    return AssemblyPlan(recipes=(MergeRecipe(method, **kwargs),), triple=triple)


class TestComposition:
    def test_linear_identity_lambda_copies_lvlm(self, rng):
        triple = classified_toy_triple(rng, trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
        [merged] = assemble_vlrm(plan_for(triple, MergeMethod.LINEAR, lam=1.0), jobs=1)
        lvlm = triple.lvlm
        for name in lvlm.cmap.names(Role.TRANSFORMER):
            assert merged.tensors[name].data == lvlm.ckpt.tensors[name].data
        for role in (Role.VISION_ENCODER, Role.ADAPTER):
            for name in lvlm.cmap.names(role):
                assert merged.tensors[name].data == lvlm.ckpt.tensors[name].data
        for name in triple.rm.cmap.names(Role.RM_HEAD):
            assert merged.tensors[name].data == triple.rm.ckpt.tensors[name].data

    def test_task_arithmetic_zero_lambda_copies_pre_transformer(self, rng):
        triple = classified_toy_triple(rng, trans_dtype=Dtype.BF16)
        [merged] = assemble_vlrm(plan_for(triple, MergeMethod.TASK_ARITHMETIC, lam=0.0), jobs=1)
        for name in triple.pre.cmap.names(Role.TRANSFORMER):
            assert merged.tensors[name].data == triple.pre.ckpt.tensors[name].data

    def test_lm_head_is_dropped(self, rng):
        triple = classified_toy_triple(rng)
        [merged] = assemble_vlrm(plan_for(triple, MergeMethod.LINEAR, lam=0.5), jobs=1)
        assert "lm_head.weight" not in merged.tensors
        assert "score.weight" in merged.tensors

    def test_tensor_count(self, rng):
        triple = classified_toy_triple(rng)
        [merged] = assemble_vlrm(plan_for(triple, MergeMethod.LINEAR, lam=0.5), jobs=1)
        lvlm = triple.lvlm.cmap
        expected = (
            len(lvlm.names(Role.VISION_ENCODER))
            + len(lvlm.names(Role.ADAPTER))
            + len(lvlm.names(Role.TRANSFORMER))
            + 1  # embedding
            + len(triple.rm.cmap.names(Role.RM_HEAD))
        )
        assert len(merged.tensors) == expected

    def test_tied_output_embedding_adds_one_tensor(self, rng):
        triple = classified_toy_triple(rng, tied_output_embedding=True)
        [merged] = assemble_vlrm(plan_for(triple, MergeMethod.TIES, lam=0.7, density=0.4), jobs=1)
        assert "model.embed_tokens.weight" in merged.tensors
        assert "model.embed_tokens.tied_out" in merged.tensors

    def test_merged_vocab_is_lvlm_order_then_rm_only(self, rng):
        triple = classified_toy_triple(rng, lvlm_vocab=6, shared_vocab=4, rm_extra=2, pre_vocab=3)
        [merged] = assemble_vlrm(plan_for(triple, MergeMethod.LINEAR, lam=0.5), jobs=1)
        tokens = sorted(merged.vocab, key=merged.vocab.get)
        assert tokens == ["t0", "t1", "t2", "t3", "t4", "t5", "r0", "r1"]
        emb = merged.tensors["model.embed_tokens.weight"]
        assert emb.shape[0] == len(tokens)

    def test_dare_ties_end_to_end_matches_reference(self, rng):
        triple = classified_toy_triple(rng, hidden=6, layers=3)
        recipe = MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.4, seed=7)
        [merged] = assemble_vlrm(AssemblyPlan(recipes=(recipe,), triple=triple), jobs=1)
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

    def test_output_dtypes_follow_lvlm(self, rng):
        triple = classified_toy_triple(rng, trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
        [merged] = assemble_vlrm(plan_for(triple, MergeMethod.TASK_ARITHMETIC, lam=0.3), jobs=1)
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
            plan = AssemblyPlan(recipes=(recipe,), triple=triple, provenance=dict(provenance))
            path = tmp_path / f"out{i}.safetensors"
            write_merged(assemble_vlrm(plan, jobs=1)[0], path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert default_vocab_path(paths[0]).read_bytes() == default_vocab_path(paths[1]).read_bytes()

    def test_worker_count_does_not_change_output(self, rng):
        triple = classified_toy_triple(rng)
        recipe = MergeRecipe(MergeMethod.DARE_TIES, lam=1.0, density=0.2, seed=99)
        [a] = assemble_vlrm(AssemblyPlan(recipes=(recipe,), triple=triple), jobs=1)
        [b] = assemble_vlrm(AssemblyPlan(recipes=(recipe,), triple=triple), jobs=4)
        assert a.tensors == b.tensors


class TestErrors:
    def test_invalid_triple_raises_with_report(self, rng):
        triple = classified_toy_triple(rng)
        name = "model.layers.0.mlp.weight"
        del triple.rm.ckpt.tensors[name]
        del triple.rm.cmap.assignments[name]
        with pytest.raises(TripleValidationError, match="name-set mismatch"):
            assemble_vlrm(plan_for(triple, MergeMethod.LINEAR, lam=0.5), jobs=1)

    def test_density_without_sparsifying_method(self, rng):
        triple = classified_toy_triple(rng)
        with pytest.raises(RecipeError, match="not accepted"):
            assemble_vlrm(plan_for(triple, MergeMethod.LINEAR, lam=0.5, density=0.4), jobs=1)

    def test_missing_density(self, rng):
        triple = classified_toy_triple(rng)
        with pytest.raises(RecipeError, match="--density is required"):
            assemble_vlrm(plan_for(triple, MergeMethod.TIES, lam=0.5), jobs=1)

    def test_missing_seed(self, rng):
        triple = classified_toy_triple(rng)
        with pytest.raises(RecipeError, match="--seed is required"):
            assemble_vlrm(plan_for(triple, MergeMethod.DARE_TIES, lam=0.5, density=0.4), jobs=1)


class TestLambdaGroups:
    @pytest.mark.parametrize("method,extra", [
        (MergeMethod.LINEAR, {}),
        (MergeMethod.TASK_ARITHMETIC, {}),
        (MergeMethod.TIES, {"density": 0.4}),
        (MergeMethod.DARE_TASK_ARITHMETIC, {"density": 0.6, "seed": 3}),
        (MergeMethod.DARE_TIES, {"density": 0.4, "seed": 3}),
    ])
    def test_each_checkpoint_matches_its_own_assembly(self, rng, method, extra):
        triple = classified_toy_triple(rng, trans_dtype=Dtype.BF16, emb_dtype=Dtype.BF16)
        recipes = tuple(MergeRecipe(method, lam=lam, **extra) for lam in (0.8, 0.0, 0.3))
        provenance = {"input.pre.sha256": "x" * 64}
        grouped = assemble_vlrm(AssemblyPlan(recipes, triple, provenance), jobs=2)
        assert len(grouped) == len(recipes)
        for recipe, merged in zip(recipes, grouped):
            [alone] = assemble_vlrm(AssemblyPlan((recipe,), triple, provenance), jobs=1)
            assert merged.tensors == alone.tensors
            assert merged.metadata == alone.metadata
            assert merged.metadata["recipe.lambda"] == repr(recipe.lam)
            assert merged.vocab == alone.vocab

    @pytest.mark.parametrize("other", [
        MergeRecipe(MergeMethod.TIES, lam=0.5, density=0.2),
        MergeRecipe(MergeMethod.DARE_TIES, lam=0.5, density=0.4, seed=1),
    ])
    def test_recipes_differing_in_more_than_lambda_rejected(self, rng, other):
        triple = classified_toy_triple(rng)
        recipes = (MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4), other)
        with pytest.raises(RecipeError, match="differ in more than lambda"):
            assemble_vlrm(AssemblyPlan(recipes, triple), jobs=1)

    def test_empty_plan_rejected(self, rng):
        with pytest.raises(RecipeError, match="at least one recipe"):
            assemble_vlrm(AssemblyPlan((), classified_toy_triple(rng)), jobs=1)


class TestStructureCheck:
    """The copied tensors are compared by bytes, whatever buffer type holds them."""

    @pytest.fixture
    def reread(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        [merged] = assemble_vlrm(plan_for(triple, MergeMethod.LINEAR, lam=0.5), jobs=1)
        path = tmp_path / "merged.safetensors"
        write_merged(merged, path)
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
    [merged] = assemble_vlrm(plan_for(triple, MergeMethod.TIES, lam=0.7, density=0.6), jobs=1)
    path = tmp_path / "merged.safetensors"
    write_merged(merged, path)
    loaded = read_checkpoint(path)
    assert loaded.tensors == merged.tensors
    assert loaded.metadata == merged.metadata
    assert read_vocab(default_vocab_path(path)) == merged.vocab


class TestFileDigest:
    @pytest.mark.parametrize("size", [0, 5, 3 * _HASH_BLOCK + 17])
    def test_matches_whole_file_sha256(self, rng, tmp_path, size):
        path = tmp_path / "blob.bin"
        path.write_bytes(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
        assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
