import numpy as np
import pytest

from vlrmerge import (
    Checkpoint,
    ClassificationError,
    Dtype,
    Role,
    Rule,
    classify_tensors,
    load_manifest_config,
    validate_triple,
)
from vlrmerge import assembly
from vlrmerge.assembly import assemble_vlrm
from vlrmerge.errors import TripleValidationError
from vlrmerge.merging import MergeMethod, MergeRecipe

from helpers import classified_toy_triple, make_tensor


def ckpt_with(names):
    return Checkpoint(tensors={n: make_tensor(n, np.zeros(2)) for n in names})


class TestClassify:
    def test_direct_pattern_match(self):
        rules = [
            Rule("vision.*", Role.VISION_ENCODER),
            Rule("model.*", Role.TRANSFORMER),
            Rule("embed.*", Role.EMBEDDING),
        ]
        cmap = classify_tensors(ckpt_with(["vision.enc.w", "model.l0.w", "embed.tok"]), rules)
        assert cmap.assignments == {
            "vision.enc.w": Role.VISION_ENCODER,
            "model.l0.w": Role.TRANSFORMER,
            "embed.tok": Role.EMBEDDING,
        }

    def test_unmatched_name_is_an_error(self):
        rules = [Rule("model.*", Role.TRANSFORMER)]
        with pytest.raises(ClassificationError, match="score.weight"):
            classify_tensors(ckpt_with(["model.l0.w", "score.weight"]), rules)

    def test_first_match_wins_on_overlap(self):
        rules = [Rule("model.*", Role.TRANSFORMER), Rule("model.norm", Role.LM_HEAD)]
        cmap = classify_tensors(ckpt_with(["model.norm"]), rules)
        assert cmap.assignments["model.norm"] is Role.TRANSFORMER

    def test_tensor_order_does_not_change_assignments(self):
        rules = [Rule("a.*", Role.EMBEDDING), Rule("*", Role.TRANSFORMER)]
        names = ["a.x", "b.y", "c.z"]
        forward = classify_tensors(ckpt_with(names), rules)
        backward = classify_tensors(ckpt_with(names[::-1]), rules)
        assert forward.assignments == backward.assignments

    def test_star_spans_dots(self):
        rules = [Rule("model.layers.*cross_attn*", Role.ADAPTER), Rule("*", Role.TRANSFORMER)]
        cross = "model.layers.3.cross_attn.q_proj.weight"
        own = "model.layers.3.self_attn.q_proj.weight"
        cmap = classify_tensors(ckpt_with([cross, own]), rules)
        assert cmap.assignments[cross] is Role.ADAPTER
        assert cmap.assignments[own] is Role.TRANSFORMER

    def test_empty_rule_list_rejected(self):
        with pytest.raises(Exception, match="empty"):
            classify_tensors(ckpt_with(["x"]), [])


class TestValidateTriple:
    def test_toy_triple_passes(self, rng):
        assert validate_triple(classified_toy_triple(rng)) == []

    def test_missing_transformer_tensor_reported(self, rng):
        triple = classified_toy_triple(rng)
        name = "model.layers.1.mlp.weight"
        del triple.rm.ckpt.tensors[name]
        del triple.rm.cmap.assignments[name]
        report = validate_triple(triple)
        assert any("transformer name-set mismatch" in entry and name in entry for entry in report)

    def test_shape_mismatch_reported_with_both_shapes(self, rng):
        triple = classified_toy_triple(rng)
        name = "model.layers.0.self_attn.weight"
        triple.lvlm.ckpt.tensors[name] = make_tensor(name, np.zeros((8, 4)))
        report = validate_triple(triple)
        assert any(name in entry and "[8, 8]" in entry and "[8, 4]" in entry for entry in report)

    def test_transformer_dtype_mismatch_reported(self, rng):
        triple = classified_toy_triple(rng)
        name = "model.layers.0.mlp.weight"
        triple.rm.ckpt.tensors[name] = make_tensor(name, np.zeros((8, 8)), Dtype.BF16)
        report = validate_triple(triple)
        assert any(entry.startswith(f"transformer dtype mismatch for {name}") for entry in report)

    def test_embedding_name_set_mismatch_reported(self, rng):
        triple = classified_toy_triple(rng)
        name = "model.embed_tokens.extra"
        triple.rm.ckpt.tensors[name] = make_tensor(name, np.zeros((24, 8)))
        triple.rm.cmap.assignments[name] = Role.EMBEDDING
        report = validate_triple(triple)
        assert any("embedding name-set mismatch" in entry and name in entry for entry in report)

    def test_embedding_must_be_two_dimensional(self, rng):
        triple = classified_toy_triple(rng)
        name = "model.embed_tokens.weight"
        triple.lvlm.ckpt.tensors[name] = make_tensor(name, np.zeros(24 * 8))
        report = validate_triple(triple)
        assert any(entry.startswith("lvlm: ") and name in entry and "must have 2 dimensions" in entry
                   for entry in report)

    def test_embedding_width_mismatch_reported(self, rng):
        triple = classified_toy_triple(rng)
        name = "model.embed_tokens.weight"
        triple.rm.ckpt.tensors[name] = make_tensor(name, np.zeros((24, 9)))
        report = validate_triple(triple)
        assert any(entry.startswith(f"embedding width mismatch for {name}") for entry in report)

    def test_embedding_dtype_mismatch_reported(self, rng):
        triple = classified_toy_triple(rng)
        name = "model.embed_tokens.weight"
        triple.rm.ckpt.tensors[name] = make_tensor(name, np.zeros((24, 8)), Dtype.F16)
        report = validate_triple(triple)
        assert any(entry.startswith(f"embedding dtype mismatch for {name}") for entry in report)

    def test_repeated_vocab_row_index_reported(self, rng):
        triple = classified_toy_triple(rng)
        triple.lvlm.ckpt.vocab["t1"] = 0
        report = validate_triple(triple)
        assert any(entry.startswith("lvlm: ") and "not unique" in entry for entry in report)

    def test_missing_role_reported(self, rng):
        triple = classified_toy_triple(rng)
        name = "score.weight"
        del triple.rm.ckpt.tensors[name]
        del triple.rm.cmap.assignments[name]
        report = validate_triple(triple)
        assert "rm: missing role rm_head" in report

    def test_unexpected_role_reported(self, rng):
        triple = classified_toy_triple(rng)
        triple.pre.ckpt.tensors["vision.w"] = make_tensor("vision.w", np.zeros(2))
        triple.pre.cmap.assignments["vision.w"] = Role.VISION_ENCODER
        report = validate_triple(triple)
        assert any("pre: unexpected role vision_encoder" in entry for entry in report)

    def test_wide_reward_head_rejected(self, rng):
        triple = classified_toy_triple(rng)
        triple.rm.ckpt.tensors["score.weight"] = make_tensor("score.weight", np.zeros((2, 8)))
        report = validate_triple(triple)
        assert any("leading dimension 1" in entry for entry in report)

    @pytest.mark.parametrize("role", [Role.VISION_ENCODER, Role.ADAPTER])
    def test_reward_head_named_like_a_kept_lvlm_tensor_reported(self, rng, role):
        triple = classified_toy_triple(rng)
        triple.lvlm.ckpt.tensors["score.weight"] = make_tensor("score.weight", np.zeros((1, 8)))
        triple.lvlm.cmap.assignments["score.weight"] = role
        report = validate_triple(triple)
        assert report == [f"rm: head tensor score.weight has the name of an lvlm {role.value} tensor"]

    def test_reward_head_may_share_the_dropped_lm_head_name(self, rng):
        triple = classified_toy_triple(rng)
        del triple.lvlm.ckpt.tensors["lm_head.weight"]
        del triple.lvlm.cmap.assignments["lm_head.weight"]
        triple.lvlm.ckpt.tensors["score.weight"] = make_tensor("score.weight", np.zeros((24, 8)))
        triple.lvlm.cmap.assignments["score.weight"] = Role.LM_HEAD
        assert validate_triple(triple) == []

    def test_missing_vocab_reported(self, rng):
        triple = classified_toy_triple(rng)
        triple.rm.ckpt.vocab = None
        report = validate_triple(triple)
        assert any("rm: missing vocabulary sidecar" in entry for entry in report)

    def test_vocab_index_out_of_range_reported(self, rng):
        triple = classified_toy_triple(rng)
        triple.lvlm.ckpt.vocab["overflow-token"] = 9999
        report = validate_triple(triple)
        assert any("out of range" in entry for entry in report)

    def test_negative_vocab_row_index_reported(self, rng):
        triple = classified_toy_triple(rng)
        triple.rm.ckpt.vocab["negative-token"] = -3
        assert validate_triple(triple) == ["rm: vocabulary row index -3 is negative"]

    def test_negative_vocab_row_index_stops_assembly_before_any_merge(self, rng, monkeypatch):
        triple = classified_toy_triple(rng)
        triple.lvlm.ckpt.vocab["negative-token"] = -1
        merges = []
        monkeypatch.setattr(assembly, "merge_transformer", lambda *args, **kwargs: merges.append(args))
        with pytest.raises(TripleValidationError, match="lvlm: vocabulary row index -1 is negative"):
            assemble_vlrm([MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, jobs=1)
        assert merges == []

    def test_accepted_random_triples_merge_under_every_method(self, rng):
        recipes = [
            MergeRecipe(MergeMethod.LINEAR, lam=0.4),
            MergeRecipe(MergeMethod.TASK_ARITHMETIC, lam=0.9),
            MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4),
            MergeRecipe(MergeMethod.DARE_TASK_ARITHMETIC, lam=0.7, density=0.4, seed=5),
            MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.4, seed=5),
        ]
        for trial in range(5):
            triple = classified_toy_triple(
                rng,
                hidden=int(rng.integers(2, 10)),
                layers=int(rng.integers(1, 4)),
                tied_output_embedding=bool(rng.integers(2)),
            )
            assert validate_triple(triple) == []
            for recipe in recipes:
                [merged] = assemble_vlrm([recipe], triple, jobs=1)
                assert merged.tensors


def test_default_manifest_loads():
    config = load_manifest_config()
    assert set(config) == {"pre", "lvlm", "rm", "merged"}


def test_manifest_config_round_trip(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(
        '{"pre": [{"pattern": "*", "role": "transformer"}]}',
        encoding="utf-8",
    )
    config = load_manifest_config(path)
    assert config["pre"][0].role is Role.TRANSFORMER


def test_manifest_config_unknown_role(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"pre": [{"pattern": "*", "role": "head"}]}', encoding="utf-8")
    with pytest.raises(Exception, match="unknown role 'head'"):
        load_manifest_config(path)
