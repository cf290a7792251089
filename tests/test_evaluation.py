import json
import math

import numpy as np
import pytest

from vlrmerge import (
    BenchReport,
    BoNInstance,
    DatasetError,
    PreferencePair,
    StubScorer,
    VlrmergeError,
    evaluate_bon,
    evaluate_pairwise,
    judge_pair,
    load_bon_dataset,
    load_pairwise_dataset,
    score_best_of_n,
    score_pairwise_bench,
)

from helpers import JSON_PAST_THE_PARSER, write_bon_dataset, write_pairwise_dataset


def pair(chosen, rejected, domain="general", pid="p"):
    return PreferencePair(id=pid, domain=domain, chosen_reward=chosen, rejected_reward=rejected)


class TestJudgePair:
    def test_text_rm_misjudges_recorded_pair(self):
        assert judge_pair(pair(2.17188, 2.27930)) is False

    def test_merged_model_judges_recorded_pair_correctly(self):
        assert judge_pair(pair(3.51758, 1.69141)) is True

    def test_equal_rewards_count_as_incorrect(self):
        assert judge_pair(pair(1.5, 1.5)) is False

    def test_non_finite_reward_rejected(self):
        with pytest.raises(VlrmergeError, match="non-finite"):
            judge_pair(pair(float("nan"), 1.0))

    def test_invariant_under_shared_shift_and_monotone_transform(self, rng):
        for _ in range(50):
            c, r = float(rng.normal()), float(rng.normal())
            base = judge_pair(pair(c, r))
            shift = float(rng.normal())
            assert judge_pair(pair(c + shift, r + shift)) is base
            assert judge_pair(pair(math.tanh(c), math.tanh(r))) is base


class TestPairwiseBench:
    def test_table_row_macro_average(self):
        # per-domain accuracies 49.2 / 61.7 / 61.0 built from exact counts
        pairs = []
        specs = [("general", 123, 250), ("hallucination", 617, 1000), ("reasoning", 61, 100)]
        for domain, correct, total in specs:
            for i in range(total):
                good = i < correct
                pairs.append(pair(1.0 if good else 0.0, 0.5, domain, f"{domain}{i}"))
        report = score_pairwise_bench(pairs)
        assert report.per_domain_accuracy["general"] == pytest.approx(0.492)
        assert report.per_domain_accuracy["hallucination"] == pytest.approx(0.617)
        assert report.per_domain_accuracy["reasoning"] == pytest.approx(0.610)
        assert abs(report.macro_average - 0.573) <= 0.0005

    def test_single_domain_all_correct(self):
        pairs = [pair(1.0, 0.0, "general", f"p{i}") for i in range(5)]
        report = score_pairwise_bench(pairs)
        assert report.per_domain_accuracy["general"] == 1.0
        assert report.overall_accuracy == 1.0
        assert report.macro_average == 1.0

    def test_hand_counted_two_domains(self):
        pairs = [pair(1.0 if i < 9 else 0.0, 0.5, "a", f"a{i}") for i in range(10)]
        pairs += [pair(1.0 if i < 15 else 0.0, 0.5, "b", f"b{i}") for i in range(30)]
        report = score_pairwise_bench(pairs)
        assert report.overall_accuracy == pytest.approx(0.6)
        assert report.macro_average == pytest.approx(0.7)

    def test_equal_domain_sizes_macro_equals_overall_exactly(self, rng):
        for _ in range(20):
            domains = [f"d{i}" for i in range(int(rng.integers(1, 5)))]
            per_domain = int(rng.integers(1, 30))
            pairs = []
            for domain in domains:
                for i in range(per_domain):
                    good = bool(rng.integers(2))
                    pairs.append(pair(1.0 if good else 0.0, 0.5, domain, f"{domain}-{i}"))
            report = score_pairwise_bench(pairs)
            assert report.macro_average == report.overall_accuracy

    def test_overall_is_count_weighted_mean_of_domains(self, rng):
        pairs = []
        for domain, total in (("x", 7), ("y", 13), ("z", 29)):
            for i in range(total):
                good = bool(rng.integers(2))
                pairs.append(pair(1.0 if good else 0.0, 0.5, domain, f"{domain}-{i}"))
        report = score_pairwise_bench(pairs)
        weighted = sum(
            report.per_domain_accuracy[d] * report.counts[d] for d in report.counts
        ) / sum(report.counts.values())
        assert report.overall_accuracy == pytest.approx(weighted, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(VlrmergeError, match="empty"):
            score_pairwise_bench([])

    def test_render_includes_percentages(self):
        report = score_pairwise_bench([pair(1.0, 0.0, "general", "p0"), pair(0.0, 1.0, "general", "p1")])
        text = report.render()
        assert "Overall" in text and "Macro Avg." in text and "50.0" in text


class TestBestOfN:
    def test_unique_argmax_hit(self):
        inst = BoNInstance("q", (0.1, 0.9, 0.3), (False, True, False))
        assert score_best_of_n([inst]) == 1.0

    def test_all_equal_rewards_tie_to_lowest_index(self):
        inst = BoNInstance("q", (0.5, 0.5, 0.5), (False, True, True))
        assert score_best_of_n([inst]) == 0.0

    def test_hand_counted_accuracy(self):
        instances = [
            BoNInstance(f"q{i}", (1.0, 0.0), (i < 3, False)) for i in range(5)
        ]
        assert score_best_of_n(instances) == pytest.approx(0.6)

    def test_permutation_invariance_with_unique_argmax(self, rng):
        rewards = [0.2, 0.9, 0.1, 0.4]
        correct = [False, True, False, False]
        base = score_best_of_n([BoNInstance("q", tuple(rewards), tuple(correct))])
        for _ in range(10):
            perm = rng.permutation(4)
            shuffled = BoNInstance(
                "q", tuple(rewards[i] for i in perm), tuple(correct[i] for i in perm)
            )
            assert score_best_of_n([shuffled]) == base

    def test_length_mismatch_rejected(self):
        with pytest.raises(VlrmergeError, match="length"):
            BoNInstance("q", (1.0,), (True, False))

    def test_empty_candidates_rejected(self):
        with pytest.raises(VlrmergeError, match="empty candidate"):
            BoNInstance("q", (), ())


class TestDatasets:
    def test_pairwise_round_trip(self, tmp_path):
        path = write_pairwise_dataset(tmp_path / "pairs.jsonl", 9)
        examples = load_pairwise_dataset(path)
        assert len(examples) == 9
        assert examples[0].domain == "general"
        assert examples[0].image_path == "images/0.jpg"

    def test_malformed_line_cited_by_number(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        good = json.dumps({
            "id": "a", "domain": "d", "instruction": "i",
            "chosen_text": "c", "rejected_text": "r",
        })
        path.write_text(good + "\n" + good.replace('"a"', '"b"') + "\n{broken\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="pairs.jsonl:3"):
            load_pairwise_dataset(path)

    @pytest.mark.parametrize("text", list(JSON_PAST_THE_PARSER))
    def test_a_line_past_the_json_parsers_limits_cited_by_number(self, tmp_path, text):
        path = tmp_path / "pairs.jsonl"
        good = json.dumps({"id": "a", "domain": "d", "instruction": "i", "chosen_text": "c", "rejected_text": "r"})
        path.write_text(good + "\n" + JSON_PAST_THE_PARSER[text] + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="pairs.jsonl:2: invalid JSON: "):
            load_pairwise_dataset(path)

    def test_missing_field_cited(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps({"id": "a", "domain": "d"}) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="missing field.*instruction"):
            load_pairwise_dataset(path)

    @pytest.mark.parametrize("field,value", [
        ("domain", None), ("instruction", 7), ("chosen_text", None), ("rejected_text", ["r"]),
        ("image_path", None),
    ])
    def test_non_string_text_field_rejected(self, tmp_path, field, value):
        record = {
            "id": "a", "domain": "d", "instruction": "i",
            "chosen_text": "c", "rejected_text": "r", field: value,
        }
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"pairs.jsonl:1: '{field}' must be a JSON string"):
            load_pairwise_dataset(path)

    def test_duplicate_id_rejected(self, tmp_path):
        record = json.dumps({
            "id": "a", "domain": "d", "instruction": "i",
            "chosen_text": "c", "rejected_text": "r",
        })
        path = tmp_path / "pairs.jsonl"
        path.write_text(record + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="duplicate id"):
            load_pairwise_dataset(path)

    @pytest.mark.parametrize("loader", [load_pairwise_dataset, load_bon_dataset])
    def test_empty_file_rejected(self, tmp_path, loader):
        path = tmp_path / "data.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="dataset is empty"):
            loader(path)

    @pytest.mark.parametrize("record,message", [
        ({"id": "a", "instruction": "i"}, "missing field.*candidates"),
        ({"id": "a", "instruction": "i", "candidates": []}, "candidates must be a non-empty list"),
        ({"id": "a", "instruction": "i", "candidates": "c"}, "candidates must be a non-empty list"),
        ({"id": "a", "instruction": "i", "candidates": [{"text": "c"}]},
         "candidate #0 needs 'text' and 'correct'"),
        ({"id": "a", "instruction": "i", "candidates": ["c"]},
         "candidate #0 needs 'text' and 'correct'"),
        ({"id": "a", "instruction": "i", "candidates": [{"text": "c", "correct": "false"}]},
         "bon.jsonl:1: candidate #0: 'correct' must be a JSON boolean, got \"false\""),
        ({"id": "a", "instruction": "i", "candidates": [{"text": "c", "correct": 1}]},
         "bon.jsonl:1: candidate #0: 'correct' must be a JSON boolean, got 1"),
        ({"id": "a", "instruction": "i", "candidates": [{"text": None, "correct": True}]},
         "bon.jsonl:1: candidate #0: 'text' must be a JSON string, got null"),
        ({"id": "a", "instruction": 5, "candidates": [{"text": "c", "correct": True}]},
         "bon.jsonl:1: 'instruction' must be a JSON string, got 5"),
        ({"id": "a", "instruction": "i", "candidates": [{"text": "c", "correct": True}], "image_path": 3},
         "bon.jsonl:1: 'image_path' must be a JSON string, got 3"),
    ])
    def test_malformed_bon_record_rejected(self, tmp_path, record, message):
        path = tmp_path / "bon.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=message):
            load_bon_dataset(path)

    def test_bon_duplicate_id_rejected(self, tmp_path):
        record = json.dumps({"id": "a", "instruction": "i", "candidates": [{"text": "c", "correct": True}]})
        path = tmp_path / "bon.jsonl"
        path.write_text(record + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="bon.jsonl:2: duplicate id"):
            load_bon_dataset(path)

    @pytest.mark.parametrize("loader,fields", [
        (load_pairwise_dataset, {"domain": "d", "instruction": "i", "chosen_text": "c", "rejected_text": "r"}),
        (load_bon_dataset, {"instruction": "i", "candidates": [{"text": "c", "correct": True}]}),
    ])
    def test_ids_are_compared_as_strings(self, tmp_path, loader, fields):
        path = tmp_path / "data.jsonl"
        lines = [json.dumps({"id": 1, **fields}), json.dumps({"id": "1", **fields})]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="data.jsonl:2: duplicate id '1'"):
            loader(path)
        # an id that is a JSON list or object is used by its string form
        lines = [json.dumps({"id": [1, 2], **fields}), json.dumps({"id": {"k": 1}, **fields})]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert [ex.id for ex in loader(path)] == ["[1, 2]", "{'k': 1}"]

    def test_bon_round_trip(self, tmp_path):
        path = write_bon_dataset(tmp_path / "bon.jsonl", 4, candidates=8)
        examples = load_bon_dataset(path)
        assert len(examples) == 4
        assert all(len(ex.candidates) == 8 for ex in examples)


class TestScorerRoundTrip:
    def test_pairwise_with_stub_scorer_is_deterministic(self, tmp_path):
        path = write_pairwise_dataset(tmp_path / "pairs.jsonl", 12)
        examples = load_pairwise_dataset(path)
        a = evaluate_pairwise(examples, StubScorer())
        b = evaluate_pairwise(examples, StubScorer())
        assert a.overall_accuracy == b.overall_accuracy
        assert a.per_domain_accuracy == b.per_domain_accuracy

    def test_bon_with_stub_scorer(self, tmp_path):
        path = write_bon_dataset(tmp_path / "bon.jsonl", 6)
        examples = load_bon_dataset(path)
        accuracy = evaluate_bon(examples, StubScorer())
        assert 0.0 <= accuracy <= 1.0
        assert accuracy == evaluate_bon(examples, StubScorer())
