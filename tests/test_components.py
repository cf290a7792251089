import json
import re

import numpy as np
import pytest

from vlrmerge import (
    Checkpoint,
    ClassificationError,
    Dtype,
    Role,
    Rule,
    VlrmergeError,
    VocabError,
    align_vocab,
    classify_tensors,
    classify_triple,
    load_manifest_config,
    merge_transformer,
    validate_triple,
)
from vlrmerge import assembly
from vlrmerge.components import DEFAULT_MANIFEST, MAKEUP, REQUIRED_ROLES
from vlrmerge.errors import TripleValidationError
from vlrmerge.merging import MergeMethod, MergeRecipe
from vlrmerge.tensorstore import Tensor

from helpers import EMBEDDING, JSON_PAST_THE_PARSER, assemble_in, classified_toy_triple, make_tensor, toy_triple


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

    def test_reward_head_the_merged_rules_give_another_role_reported(self, rng, tmp_path):
        # the rm's own rules name its head first, but every lvlm rule comes before it in the merged rules
        rules = dict(DEFAULT_MANIFEST, rm=[
            {"pattern": "model.embed_tokens.*", "role": "embedding"},
            {"pattern": "model.score.*", "role": "rm_head"},
            {"pattern": "model.*", "role": "transformer"},
        ])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(rules), encoding="utf-8")
        pre, lvlm, rm = toy_triple(rng)
        rm.tensors["model.score.weight"] = rm.tensors.pop("score.weight")
        triple = classify_triple(pre, lvlm, rm, load_manifest_config(path))
        assert triple.rm.cmap.assignments["model.score.weight"] is Role.RM_HEAD
        message = (
            "rm: head tensor model.score.weight is classified transformer by the merged model's rules "
            "(an lvlm rule matches it before the rm's)"
        )
        assert validate_triple(triple) == [message]
        with pytest.raises(TripleValidationError, match=re.escape(message)):
            assemble_in(tmp_path, [MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, jobs=1)

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

    def test_negative_vocab_row_index_stops_assembly_before_any_merge(self, rng, tmp_path, monkeypatch):
        triple = classified_toy_triple(rng)
        triple.lvlm.ckpt.vocab["negative-token"] = -1
        merges = []
        monkeypatch.setattr(assembly, "merge_transformer", lambda *args, **kwargs: merges.append(args))
        with pytest.raises(TripleValidationError, match="lvlm: vocabulary row index -1 is negative"):
            assemble_in(tmp_path, [MergeRecipe(MergeMethod.LINEAR, lam=0.5)], triple, jobs=1)
        assert merges == []

    def test_accepted_random_triples_merge_under_every_method(self, rng, tmp_path):
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
                [merged] = assemble_in(tmp_path, [recipe], triple, jobs=1)
                assert merged.tensors


def replace_tensor(model, name, values, dtype=Dtype.F32):
    model.ckpt.tensors[name] = make_tensor(name, values, dtype)


def drop_tensor(model, name):
    del model.ckpt.tensors[name]
    del model.cmap.assignments[name]


def merge_transformer_of(triple):
    """``merge_transformer`` on the triple's transformer tensors, as ``assemble_vlrm`` calls it."""
    merge_transformer(MergeRecipe(MergeMethod.LINEAR, lam=0.5), *triple.tensors(Role.TRANSFORMER).values(), jobs=1)


def align_vocab_of(triple):
    """``align_vocab`` on the triple's vocabularies, as ``plan_merge`` calls it."""
    align_vocab(*(m.ckpt.vocab for m in (triple.pre, triple.lvlm, triple.rm)))


class TestSharedRules:
    """Each input rule has one implementation: validate_triple reports what the merge entry raises."""

    @staticmethod
    def both_say(triple, message, entry, error):
        assert validate_triple(triple) == [message]
        with pytest.raises(VlrmergeError) as raised:
            entry(triple)
        assert raised.type is error
        assert str(raised.value) == message

    @pytest.mark.parametrize("breach,message", [
        pytest.param(
            lambda t: drop_tensor(t.rm, "model.layers.1.mlp.weight"),
            "transformer name-set mismatch: model.layers.1.mlp.weight (present in pre, lvlm only)",
            id="name-missing-from-rm",
        ),
        pytest.param(
            lambda t: replace_tensor(t.lvlm, "model.layers.0.self_attn.weight", np.zeros((8, 4))),
            "transformer shape mismatch for model.layers.0.self_attn.weight: pre [8, 8] vs lvlm [8, 4]",
            id="shape-mismatch",
        ),
    ])
    def test_transformer_alignment(self, rng, breach, message):
        triple = classified_toy_triple(rng)
        breach(triple)
        self.both_say(triple, message, merge_transformer_of, VlrmergeError)

    @pytest.mark.parametrize("breach,message", [
        pytest.param(
            lambda t: t.lvlm.ckpt.vocab.update(t1=0),
            "lvlm: vocabulary row index 0 is not unique",
            id="duplicate-row",
        ),
        pytest.param(
            lambda t: t.rm.ckpt.vocab.update({"negative-token": -3}),
            "rm: vocabulary row index -3 is negative",
            id="negative-row",
        ),
    ])
    def test_vocabulary_rows(self, rng, breach, message):
        triple = classified_toy_triple(rng)
        breach(triple)
        self.both_say(triple, message, align_vocab_of, VocabError)

    @pytest.mark.parametrize("breach,message", [
        pytest.param(
            lambda t: replace_tensor(t.lvlm, EMBEDDING, np.zeros(24 * 8)),
            "lvlm: embedding matrix must have 2 dimensions, got shape [192]",
            id="one-dimensional",
        ),
        pytest.param(
            lambda t: replace_tensor(t.rm, EMBEDDING, np.zeros((24, 7))),
            "embedding width mismatch: pre [16, 8], lvlm [24, 8], rm [24, 7]",
            id="narrower",
        ),
        pytest.param(
            lambda t: replace_tensor(t.rm, EMBEDDING, np.zeros((24, 8)), Dtype.F16),
            "embedding dtype mismatch: pre F32, lvlm F32, rm F16",
            id="mixed-dtypes",
        ),
        pytest.param(
            lambda t: t.lvlm.ckpt.vocab.update({"overflow-token": 24}),
            "lvlm: vocabulary row index 24 out of range for an embedding with 24 rows",
            id="row-past-the-last",
        ),
    ])
    def test_embedding_faults_stop_the_assembly_before_any_read(self, rng, tmp_path, monkeypatch, breach, message):
        # the embedding block steps check none of these: validate_triple is their one check
        triple = classified_toy_triple(rng)
        breach(triple)
        assert validate_triple(triple) == [message]
        reads = []
        monkeypatch.setattr(Tensor, "load_rows", lambda self, *args: reads.append(self.name))
        monkeypatch.setattr(Tensor, "load_range", lambda self, *args: reads.append(self.name))
        with pytest.raises(TripleValidationError) as raised:
            assemble_in(tmp_path, [MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4)], triple, jobs=2)
        assert raised.value.report == [message]
        assert reads == []
        assert list(tmp_path.iterdir()) == []


def test_role_table_gives_the_required_roles_and_the_makeup():
    assert REQUIRED_ROLES == {
        "pre": {Role.EMBEDDING, Role.TRANSFORMER, Role.LM_HEAD},
        "lvlm": {Role.VISION_ENCODER, Role.ADAPTER, Role.EMBEDDING, Role.TRANSFORMER, Role.LM_HEAD},
        "rm": {Role.EMBEDDING, Role.TRANSFORMER, Role.RM_HEAD},
    }
    assert MAKEUP == (
        (Role.VISION_ENCODER, "lvlm", False),
        (Role.ADAPTER, "lvlm", False),
        (Role.TRANSFORMER, "lvlm", True),
        (Role.EMBEDDING, "lvlm", True),
        (Role.RM_HEAD, "rm", False),
    )


def test_default_manifest_loads():
    assert set(DEFAULT_MANIFEST) == {"pre", "lvlm", "rm"}
    config = load_manifest_config()
    assert set(config) == {"pre", "lvlm", "rm", "merged"}
    # the lvlm's rules for what the merged model takes from it, then the rm's
    assert [(rule.pattern, rule.role) for rule in config["merged"]] == [
        ("vision_model.*", Role.VISION_ENCODER),
        ("multi_modal_projector.*", Role.ADAPTER),
        ("model.layers.*cross_attn*", Role.ADAPTER),
        ("model.embed_tokens.*", Role.EMBEDDING),
        ("model.*", Role.TRANSFORMER),
        ("score.*", Role.RM_HEAD),
    ]


def test_merged_rules_need_the_lvlm_and_rm_rules(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"pre": DEFAULT_MANIFEST["pre"], "lvlm": DEFAULT_MANIFEST["lvlm"]}), encoding="utf-8")
    config = load_manifest_config(path)
    with pytest.raises(VlrmergeError, match="no rules for 'merged'"):
        config["merged"]


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


@pytest.mark.parametrize("text", list(JSON_PAST_THE_PARSER))
def test_manifest_config_past_the_json_parsers_limits_is_a_named_error(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(JSON_PAST_THE_PARSER[text], encoding="utf-8")
    with pytest.raises(VlrmergeError, match="manifest.json: manifest config is not valid JSON: "):
        load_manifest_config(path)
