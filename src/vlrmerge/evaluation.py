"""Pairwise-preference and best-of-N accuracy from externally supplied rewards.

Aggregation is exact: counts are combined with rational arithmetic and only
converted to float at the boundary, so the overall accuracy equals the
count-weighted mean of the per-domain accuracies by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DatasetError, VlrmergeError


@dataclass(frozen=True)
class PreferencePair:
    id: str
    domain: str
    chosen_reward: float
    rejected_reward: float


@dataclass(frozen=True)
class BoNInstance:
    id: str
    candidate_rewards: tuple[float, ...]
    candidate_correct: tuple[bool, ...]

    def __post_init__(self):
        if len(self.candidate_rewards) != len(self.candidate_correct):
            raise VlrmergeError(f"instance {self.id!r}: rewards and correct flags differ in length")
        if not self.candidate_rewards:
            raise VlrmergeError(f"instance {self.id!r}: empty candidate list")


@dataclass
class BenchReport:
    per_domain_accuracy: dict[str, float]
    overall_accuracy: float
    macro_average: float
    counts: dict[str, int]

    def render(self) -> str:
        domains = list(self.per_domain_accuracy)
        header = [d.capitalize() for d in domains] + ["Overall", "Macro Avg."]
        values = [self.per_domain_accuracy[d] for d in domains] + [
            self.overall_accuracy,
            self.macro_average,
        ]
        cells = [f"{100.0 * v:.1f}" for v in values]
        widths = [max(len(h), len(c)) for h, c in zip(header, cells)]
        head = "  ".join(h.rjust(w) for h, w in zip(header, widths))
        body = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        return head + "\n" + body

    def to_json(self) -> dict:
        return {
            "per_domain_accuracy": self.per_domain_accuracy,
            "overall_accuracy": self.overall_accuracy,
            "macro_average": self.macro_average,
            "counts": self.counts,
        }


def judge_pair(pair: PreferencePair) -> bool:
    """True iff the chosen response's reward is strictly higher; ties count as wrong."""
    if not math.isfinite(pair.chosen_reward) or not math.isfinite(pair.rejected_reward):
        raise VlrmergeError(f"pair {pair.id!r}: non-finite reward")
    return pair.chosen_reward > pair.rejected_reward


def score_pairwise_bench(pairs: list[PreferencePair]) -> BenchReport:
    """Per-domain, overall (instance-weighted) and macro (unweighted) accuracy."""
    if not pairs:
        raise VlrmergeError("cannot score an empty pair list")
    counts: dict[str, int] = {}
    correct: dict[str, int] = {}
    for pair in pairs:
        counts[pair.domain] = counts.get(pair.domain, 0) + 1
        correct.setdefault(pair.domain, 0)
        if judge_pair(pair):
            correct[pair.domain] += 1
    per_domain = {d: Fraction(correct[d], counts[d]) for d in counts}
    overall = Fraction(sum(correct.values()), sum(counts.values()))
    macro = sum(per_domain.values(), Fraction(0)) / len(per_domain)
    return BenchReport(
        per_domain_accuracy={d: float(v) for d, v in per_domain.items()},
        overall_accuracy=float(overall),
        macro_average=float(macro),
        counts=counts,
    )


def score_best_of_n(instances: list[BoNInstance]) -> float:
    """Fraction of instances whose highest-reward candidate is correct.

    Reward ties pick the lowest candidate index.
    """
    if not instances:
        raise VlrmergeError("cannot score an empty instance list")
    hits = 0
    for inst in instances:
        for reward in inst.candidate_rewards:
            if not math.isfinite(reward):
                raise VlrmergeError(f"instance {inst.id!r}: non-finite reward")
        best = max(range(len(inst.candidate_rewards)), key=lambda i: inst.candidate_rewards[i])
        hits += inst.candidate_correct[best]
    return float(Fraction(hits, len(instances)))


# ---------------------------------------------------------------------------
# dataset records and the scorer round trip


@dataclass(frozen=True)
class PairwiseExample:
    id: str
    domain: str
    instruction: str
    chosen_text: str
    rejected_text: str
    image_path: str | None = None


@dataclass(frozen=True)
class BoNExample:
    id: str
    instruction: str
    candidates: tuple[tuple[str, bool], ...]  # (text, correct)
    image_path: str | None = None


def _check_types(obj: dict, types: dict[str, type], where: str) -> None:
    """Each key of ``types`` that ``obj`` has must hold a value of that type."""
    for key, kind in types.items():
        if key in obj and not isinstance(obj[key], kind):
            expected = {str: "string", bool: "boolean"}[kind]
            raise DatasetError(f"{where}: {key!r} must be a JSON {expected}, got {json.dumps(obj[key])}")


def _load_records(path: str | Path, fields: dict[str, type], build) -> list:
    """``build(record, "<path>:<line>")`` for each record of a JSONL file, in file order.

    Each record needs ``fields``, each of its type, any ``image_path`` as a
    string, and an id that no other record has as a string.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    examples = []
    seen = set()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{line_no}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{where}: invalid JSON: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise DatasetError(f"{where}: record must be a JSON object")
        missing = [k for k in fields if k not in record]
        if missing:
            raise DatasetError(f"{where}: missing field(s) {', '.join(missing)}")
        _check_types(record, {**fields, "image_path": str}, where)
        example_id = str(record["id"])
        if example_id in seen:
            raise DatasetError(f"{where}: duplicate id {example_id!r}")
        seen.add(example_id)
        examples.append(build(record, where))
    if not examples:
        raise DatasetError(f"{path}: dataset is empty")
    return examples


def _pairwise_example(record: dict, where: str) -> PairwiseExample:
    return PairwiseExample(
        id=str(record["id"]),
        domain=record["domain"],
        instruction=record["instruction"],
        chosen_text=record["chosen_text"],
        rejected_text=record["rejected_text"],
        image_path=record.get("image_path"),
    )


def _bon_example(record: dict, where: str) -> BoNExample:
    candidates = record["candidates"]
    if not isinstance(candidates, list) or not candidates:
        raise DatasetError(f"{where}: candidates must be a non-empty list")
    parsed = []
    for i, cand in enumerate(candidates):
        if not isinstance(cand, dict) or "text" not in cand or "correct" not in cand:
            raise DatasetError(f"{where}: candidate #{i} needs 'text' and 'correct'")
        _check_types(cand, {"text": str, "correct": bool}, f"{where}: candidate #{i}")
        parsed.append((cand["text"], cand["correct"]))
    return BoNExample(
        id=str(record["id"]),
        instruction=record["instruction"],
        candidates=tuple(parsed),
        image_path=record.get("image_path"),
    )


def load_pairwise_dataset(path: str | Path) -> list[PairwiseExample]:
    fields = {"id": object, "domain": str, "instruction": str, "chosen_text": str, "rejected_text": str}
    return _load_records(path, fields, _pairwise_example)


def load_bon_dataset(path: str | Path) -> list[BoNExample]:
    return _load_records(path, {"id": object, "instruction": str, "candidates": object}, _bon_example)


def _check_unique_request_ids(requests: list[dict]) -> list[dict]:
    seen = set()
    for req in requests:
        if req["id"] in seen:
            raise DatasetError(f"composed request id {req['id']!r} is not unique")
        seen.add(req["id"])
    return requests


def _requests(examples: list, responses) -> list[dict]:
    """One scorer request per ``(suffix, text)`` of ``responses(example)``, id ``<example id>#<suffix>``."""
    requests = []
    for ex in examples:
        for suffix, text in responses(ex):
            req = {"id": f"{ex.id}#{suffix}", "instruction": ex.instruction, "response": text}
            if ex.image_path is not None:
                req["image_path"] = ex.image_path
            requests.append(req)
    return _check_unique_request_ids(requests)


def pairwise_requests(examples: list[PairwiseExample]) -> list[dict]:
    return _requests(examples, lambda ex: (("chosen", ex.chosen_text), ("rejected", ex.rejected_text)))


def bon_requests(examples: list[BoNExample]) -> list[dict]:
    return _requests(examples, lambda ex: enumerate(text for text, _ in ex.candidates))


def evaluate_pairwise(examples: list[PairwiseExample], scorer) -> BenchReport:
    """Score every response with the scorer and aggregate pairwise accuracy."""
    rewards = scorer.score(pairwise_requests(examples))
    pairs = [
        PreferencePair(
            id=ex.id,
            domain=ex.domain,
            chosen_reward=rewards[f"{ex.id}#chosen"],
            rejected_reward=rewards[f"{ex.id}#rejected"],
        )
        for ex in examples
    ]
    return score_pairwise_bench(pairs)


def evaluate_bon(examples: list[BoNExample], scorer) -> float:
    """Score every candidate with the scorer and compute best-of-N accuracy."""
    rewards = scorer.score(bon_requests(examples))
    instances = [
        BoNInstance(
            id=ex.id,
            candidate_rewards=tuple(rewards[f"{ex.id}#{i}"] for i in range(len(ex.candidates))),
            candidate_correct=tuple(correct for _, correct in ex.candidates),
        )
        for ex in examples
    ]
    return score_best_of_n(instances)
