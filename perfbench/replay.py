"""Scorer transcripts for replayed sweeps, recorded with the program's RecordingScorer.

Rewards are keyed on the recipe slug, so every recipe of the grid gets its own
planned accuracy. The two best recipes tie exactly on the primary slice, so the
sweep scores the tie-break slice as real sweeps do; the tie-break then picks
the later recipe in grid order, which grid order alone would not.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

from vlrmerge.evaluation import load_pairwise_dataset, pairwise_requests
from vlrmerge.scoring import RecordingScorer
from vlrmerge.sweep import SweepConfig, generate_grid, sample_validation_slices

from gen import _rng


class PlannedScorer:
    """Serves fixed rewards by request id."""

    def __init__(self, rewards: dict[str, float]):
        self.rewards = rewards

    def score(self, requests: list[dict]) -> dict[str, float]:
        return {req["id"]: self.rewards[req["id"]] for req in requests}


def _rewards(examples, correct: set[str], rng: np.random.Generator) -> dict[str, float]:
    rewards = {}
    for ex, u in zip(examples, rng.random(len(examples))):
        hi, lo = 1.0 + float(u), float(u)
        good = ex.id in correct
        rewards[f"{ex.id}#chosen"] = hi if good else lo
        rewards[f"{ex.id}#rejected"] = lo if good else hi
    return rewards


def _pick(examples, count: int, rng: np.random.Generator) -> set[str]:
    order = rng.permutation(len(examples))[:count]
    return {examples[i].id for i in order}


def record_sweep_transcripts(config_path: Path, data_path: Path, out_dir: Path, seed: int) -> dict:
    """Write one transcript per recipe.

    Returns what a correct sweep must report: per-slug primary and tie-break
    accuracies and the winner.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    config = SweepConfig.from_json(config_path)
    grid = generate_grid(config)
    dataset = load_pairwise_dataset(data_path)
    primary, tiebreak = sample_validation_slices(
        dataset, config.sampling_seed, config.primary_size, config.tiebreak_size
    )
    size = len(primary)
    plan_rng = _rng(seed, "sweep-plan")
    counts = [int(c) for c in plan_rng.choice(np.arange(size // 2, size * 9 // 10), len(grid), replace=False)]
    first, second = sorted(range(len(grid)), key=lambda i: -counts[i])[:2]
    counts[second] = counts[first]
    tied = sorted((first, second))
    tiebreak_counts = {tied[0]: len(tiebreak) // 2, tied[1]: len(tiebreak) // 2 + 7}

    expected = {"primary": {}, "tiebreak": {}}
    for i, recipe in enumerate(grid):
        slug = recipe.slug()
        rng = _rng(seed, "rewards", slug)
        rewards = _rewards(primary, _pick(primary, counts[i], rng), rng)
        scorer = RecordingScorer(PlannedScorer(rewards), out_dir / f"transcript-{slug}.jsonl")
        scorer.transcript_path.unlink(missing_ok=True)
        scorer.score(pairwise_requests(primary))
        expected["primary"][slug] = float(Fraction(counts[i], size))
        if i in tiebreak_counts:
            tb = _rewards(tiebreak, _pick(tiebreak, tiebreak_counts[i], rng), rng)
            scorer.inner.rewards.update(tb)
            scorer.score(pairwise_requests(tiebreak))
            expected["tiebreak"][slug] = float(Fraction(tiebreak_counts[i], len(tiebreak)))
    expected["winner"] = grid[tied[1]].slug()
    return expected
