import builtins
import json
import threading
import time

import pytest

from vlrmerge import (
    Dtype,
    Tensor,
    MergeMethod,
    MergeRecipe,
    ReplayScorer,
    RecordingScorer,
    Role,
    StubScorer,
    SweepConfig,
    SweepEntry,
    classify_triple,
    generate_grid,
    load_manifest_config,
    run_sweep,
    select_best,
)
from vlrmerge.errors import CheckpointFormatError, DatasetError, ScorerError, TripleValidationError, VlrmergeError
from vlrmerge.evaluation import load_pairwise_dataset
from vlrmerge import assembly, sweep, tensorstore
from vlrmerge.sweep import sample_validation_slices

from helpers import classified_toy_triple, toy_triple, write_pairwise_dataset, write_triple


class TestGenerateGrid:
    def test_linear_defaults_are_eleven_recipes(self):
        grid = generate_grid(SweepConfig(MergeMethod.LINEAR))
        assert [r.lam for r in grid] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

    def test_sparsifying_defaults_are_twelve_recipes(self):
        grid = generate_grid(SweepConfig(MergeMethod.TIES))
        assert len(grid) == 12
        assert [(r.lam, r.density) for r in grid][:4] == [(0.5, 0.8), (0.5, 0.6), (0.5, 0.4), (0.5, 0.2)]
        assert grid[-1].lam == 1.0 and grid[-1].density == 0.2

    def test_singleton_grid(self):
        config = SweepConfig(MergeMethod.DARE_TIES, lambda_grid=(0.5,), density_grid=(0.4,))
        grid = generate_grid(config)
        assert len(grid) == 1
        assert grid[0].seed is not None

    def test_dare_recipes_share_a_config_derived_seed(self):
        grid = generate_grid(SweepConfig(MergeMethod.DARE_TASK_ARITHMETIC, sampling_seed=5))
        seeds = {r.seed for r in grid}
        assert len(seeds) == 1
        other = generate_grid(SweepConfig(MergeMethod.DARE_TASK_ARITHMETIC, sampling_seed=6))
        assert other[0].seed != grid[0].seed

    def test_density_grid_for_linear_rejected(self):
        with pytest.raises(VlrmergeError, match="does not take a density grid"):
            SweepConfig(MergeMethod.LINEAR, density_grid=(0.4,))

    def test_lambda_cap(self):
        with pytest.raises(VlrmergeError, match="outside"):
            SweepConfig(MergeMethod.TASK_ARITHMETIC, lambda_grid=(0.5, 1.6))

    @pytest.mark.parametrize("method,grids,message", [
        (MergeMethod.LINEAR, {"lambda_grid": (0.5, 1.2)}, r"\[0, 1\]"),
        (MergeMethod.TIES, {"density_grid": (0.4, 1.5)}, r"\(0, 1\]"),
    ])
    def test_grid_value_outside_the_method_range(self, method, grids, message):
        with pytest.raises(VlrmergeError, match=message):
            SweepConfig(method, **grids)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps({"method": "ties", "lambda_grid": [0.7], "density_grid": [0.4, 0.2]}),
            encoding="utf-8",
        )
        config = SweepConfig.from_json(path)
        assert config.method is MergeMethod.TIES
        assert len(generate_grid(config)) == 2
        assert config.density_grid == (0.4, 0.2)
        defaults = SweepConfig(method=MergeMethod.TIES)
        for name in ("primary_size", "tiebreak_size", "sampling_seed", "tie_rounding_decimals"):
            assert getattr(config, name) == getattr(defaults, name), name

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text('{"method": "ties", "lambdas": [0.7]}', encoding="utf-8")
        with pytest.raises(VlrmergeError, match="unknown sweep config key"):
            SweepConfig.from_json(path)


class TestSweepConfigValidation:
    @pytest.mark.parametrize("grids,message", [
        ({"lambda_grid": (0.5, 0.5)}, "lambda grid repeats 0.5"),
        ({"lambda_grid": (1, 0.5, 1.0)}, "lambda grid repeats 1.0"),
        ({"density_grid": (0.4, 0.2, 0.4)}, "density grid repeats 0.4"),
        ({"lambda_grid": (0.0, -0.0)}, "lambda grid repeats -0.0"),
        ({"lambda_grid": (0.5, 0.5000001)}, r"lambda grid values 0.5 and 0.5000001 name one variant \(0.5\)"),
        ({"density_grid": (0.4, 0.2, 0.20000001)}, r"density grid values 0.2 and 0.20000001 name one variant \(0.2\)"),
    ])
    def test_repeated_grid_value_rejected(self, grids, message):
        with pytest.raises(VlrmergeError, match=message):
            SweepConfig(MergeMethod.TIES, **grids)

    @pytest.mark.parametrize("fields,message", [
        ({"lambda_grid": 0.5}, "lambda grid must be a list of numbers"),
        ({"density_grid": "0.4"}, "density grid must be a list of numbers"),
        ({"lambda_grid": ["a"]}, "lambda grid values must be numbers"),
        ({"density_grid": [True]}, "density grid values must be numbers"),
        ({"primary_size": "400"}, "primary_size must be an integer"),
        ({"tiebreak_size": 1.5}, "tiebreak_size must be an integer"),
        ({"sampling_seed": None}, "sampling_seed must be an integer"),
        ({"sampling_seed": -1}, r"sampling_seed must be in \[0, 2\*\*64\)"),
        ({"tie_rounding_decimals": "3"}, "tie_rounding_decimals must be an integer"),
    ])
    def test_malformed_config_file_is_a_named_error(self, tmp_path, fields, message):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"method": "ties", **fields}), encoding="utf-8")
        with pytest.raises(VlrmergeError, match=message):
            SweepConfig.from_json(path)


def lam_entries(method, accuracies):
    grid = generate_grid(SweepConfig(method, sampling_seed=1))
    assert len(grid) == len(accuracies)
    return [SweepEntry(recipe, primary_accuracy=accuracies[i]) for i, recipe in enumerate(grid)]


def density_entries(method, table):
    # table maps lambda -> accuracies for densities [0.8, 0.6, 0.4, 0.2]
    grid = generate_grid(SweepConfig(method, sampling_seed=1))
    densities = [0.8, 0.6, 0.4, 0.2]
    entries = []
    for recipe in grid:
        entries.append(SweepEntry(recipe, primary_accuracy=table[recipe.lam][densities.index(recipe.density)]))
    return entries


# Ten recorded hyperparameter-selection runs for the two supported reward models.
# "winner" is the bold cell; "starred" marks the recipe that won the 100-sample
# tie-break among equal top scores.
LAMBDA_TABLES = [
    (
        "linear/tulu-2.5",
        MergeMethod.LINEAR,
        [49.8, 52.3, 50.3, 52.5, 52.0, 49.0, 47.3, 46.5, 46.5, 50.3, 47.0],
        0.3,
        None,
    ),
    (
        "task-vec/tulu-2.5",
        MergeMethod.TASK_ARITHMETIC,
        [55.3, 50.0, 53.3, 54.5, 53.5, 49.3, 52.8, 54.0, 53.8, 54.8, 55.3],
        1.0,
        {0.0, 1.0},
    ),
    (
        "linear/tulu-3",
        MergeMethod.LINEAR,
        [51.5, 46.8, 50.3, 49.3, 52.0, 50.8, 49.3, 47.3, 49.5, 49.3, 51.3],
        0.4,
        None,
    ),
    (
        "task-vec/tulu-3",
        MergeMethod.TASK_ARITHMETIC,
        [49.3, 53.5, 49.8, 49.8, 51.0, 51.0, 53.8, 53.0, 53.0, 50.3, 55.3],
        1.0,
        None,
    ),
]

DENSITY_TABLES = [
    (
        "ties/tulu-2.5",
        MergeMethod.TIES,
        {1.0: [53.5, 53.8, 52.3, 50.0], 0.7: [53.5, 53.8, 52.3, 50.3], 0.5: [53.5, 53.8, 52.3, 50.0]},
        (1.0, 0.6),
        {(1.0, 0.6), (0.7, 0.6), (0.5, 0.6)},
    ),
    (
        "dare-task-vec/tulu-2.5",
        MergeMethod.DARE_TASK_ARITHMETIC,
        {1.0: [55.3, 56.5, 54.5, 55.3], 0.7: [54.5, 54.0, 53.5, 55.8], 0.5: [49.0, 49.3, 51.8, 54.8]},
        (1.0, 0.6),
        None,
    ),
    (
        "dare-ties/tulu-2.5",
        MergeMethod.DARE_TIES,
        {1.0: [55.5, 56.0, 56.0, 55.5], 0.7: [53.3, 54.3, 53.8, 52.3], 0.5: [51.5, 49.8, 51.5, 51.8]},
        (1.0, 0.6),
        {(1.0, 0.6), (1.0, 0.4)},
    ),
    (
        "ties/tulu-3",
        MergeMethod.TIES,
        {1.0: [53.5, 53.3, 54.0, 51.0], 0.7: [53.8, 54.3, 54.3, 51.5], 0.5: [53.5, 53.3, 54.0, 51.0]},
        (0.7, 0.4),
        {(0.7, 0.6), (0.7, 0.4)},
    ),
    (
        "dare-task-vec/tulu-3",
        MergeMethod.DARE_TASK_ARITHMETIC,
        {1.0: [54.8, 55.8, 55.3, 58.0], 0.7: [53.8, 53.8, 52.3, 50.3], 0.5: [50.0, 50.3, 51.0, 51.5]},
        (1.0, 0.2),
        None,
    ),
    (
        "dare-ties/tulu-3",
        MergeMethod.DARE_TIES,
        {1.0: [55.8, 55.8, 56.0, 56.8], 0.7: [52.8, 52.5, 52.5, 52.3], 0.5: [55.3, 53.8, 48.0, 54.5]},
        (1.0, 0.2),
        None,
    ),
]


def run_selection(entries, starred_slugs):
    calls = []

    def provider(entry):
        calls.append(entry.recipe)
        return 1.0 if entry.recipe.slug() in starred_slugs else 0.0

    best = select_best(entries, provider)
    return best, calls


class TestRecordedSelectionTables:
    @pytest.mark.parametrize("name,method,accuracies,winner_lam,tied", LAMBDA_TABLES,
                             ids=[t[0] for t in LAMBDA_TABLES])
    def test_lambda_tables(self, name, method, accuracies, winner_lam, tied):
        entries = lam_entries(method, accuracies)
        starred = {e.recipe.slug() for e in entries if e.recipe.lam == winner_lam}
        best, calls = run_selection(entries, starred)
        assert best.recipe.lam == winner_lam
        if tied is None:
            assert calls == []
        else:
            assert {r.lam for r in calls} == tied

    @pytest.mark.parametrize("name,method,table,winner,tied", DENSITY_TABLES,
                             ids=[t[0] for t in DENSITY_TABLES])
    def test_density_tables(self, name, method, table, winner, tied):
        entries = density_entries(method, table)
        starred = {e.recipe.slug() for e in entries if (e.recipe.lam, e.recipe.density) == winner}
        best, calls = run_selection(entries, starred)
        assert (best.recipe.lam, best.recipe.density) == winner
        if tied is None:
            assert calls == []
        else:
            assert {(r.lam, r.density) for r in calls} == tied


class TestSelectBest:
    def test_single_entry_needs_no_tiebreak(self):
        entry = SweepEntry(MergeRecipe(MergeMethod.LINEAR, lam=0.5), primary_accuracy=0.4)
        best, calls = run_selection([entry], set())
        assert best is entry and calls == []

    def test_provider_untouched_when_max_is_unique(self):
        recipes = [MergeRecipe(MergeMethod.LINEAR, lam=l) for l in (0.0, 0.5, 1.0)]
        entries = [SweepEntry(r, primary_accuracy=acc) for r, acc in zip(recipes, [0.2, 0.9, 0.2])]
        best, calls = run_selection(entries, set())
        assert best.recipe.lam == 0.5 and calls == []

    def test_residual_tie_resolves_by_grid_order(self):
        grid = generate_grid(SweepConfig(MergeMethod.TIES, lambda_grid=(0.5, 1.0), density_grid=(0.2, 0.8)))
        entries = [SweepEntry(r, primary_accuracy=0.5) for r in grid]

        def flat_provider(entry):
            return 0.25

        best = select_best(entries, flat_provider)
        assert (best.recipe.lam, best.recipe.density) == (0.5, 0.8)

    def test_rounded_tie_mode(self):
        a = MergeRecipe(MergeMethod.LINEAR, lam=0.0)
        b = MergeRecipe(MergeMethod.LINEAR, lam=1.0)
        entries = [SweepEntry(a, primary_accuracy=0.5534), SweepEntry(b, primary_accuracy=0.5530)]
        exact, calls_exact = run_selection(entries, set())
        assert exact.recipe is a and calls_exact == []
        calls = []

        def provider(entry):
            calls.append(entry.recipe)
            return 1.0 if entry.recipe is b else 0.0

        rounded = select_best(entries, provider, tie_rounding_decimals=2)
        assert rounded.recipe is b and len(calls) == 2

    def test_tiebreak_values_recorded_on_entries(self):
        a = MergeRecipe(MergeMethod.LINEAR, lam=0.0)
        b = MergeRecipe(MergeMethod.LINEAR, lam=1.0)
        entries = [SweepEntry(a, primary_accuracy=0.5), SweepEntry(b, primary_accuracy=0.5)]
        run_selection(entries, {a.slug()})
        values = {e.recipe.lam: e.tiebreak_accuracy for e in entries}
        assert values == {0.0: 1.0, 1.0: 0.0}

    def test_empty_entries_rejected(self):
        with pytest.raises(VlrmergeError, match="empty"):
            select_best([], lambda e: 0.0)

    def test_only_ok_entries_are_ranked(self):
        a = MergeRecipe(MergeMethod.LINEAR, lam=0.0)
        b = MergeRecipe(MergeMethod.LINEAR, lam=1.0)
        failed = SweepEntry(a, status="failed", error="scorer failed")
        ok = SweepEntry(b, primary_accuracy=0.25)
        best, calls = run_selection([failed, ok], set())
        assert best is ok and calls == []
        assert select_best([failed], lambda e: 0.0) is None


class TestValidationSampling:
    def test_deterministic_and_disjoint(self, tmp_path):
        examples = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 40))
        a_primary, a_tiebreak = sample_validation_slices(examples, seed=3, primary_size=20, tiebreak_size=10)
        b_primary, b_tiebreak = sample_validation_slices(examples, seed=3, primary_size=20, tiebreak_size=10)
        assert [e.id for e in a_primary] == [e.id for e in b_primary]
        assert [e.id for e in a_tiebreak] == [e.id for e in b_tiebreak]
        assert not {e.id for e in a_primary} & {e.id for e in a_tiebreak}

    def test_different_seed_changes_slices(self, tmp_path):
        examples = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 40))
        a, _ = sample_validation_slices(examples, seed=3, primary_size=20, tiebreak_size=10)
        b, _ = sample_validation_slices(examples, seed=4, primary_size=20, tiebreak_size=10)
        assert [e.id for e in a] != [e.id for e in b]

    def test_too_small_dataset_rejected(self, tmp_path):
        examples = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 10))
        with pytest.raises(DatasetError, match="need 20"):
            sample_validation_slices(examples, seed=0, primary_size=20, tiebreak_size=10)


class CutWrite:
    """File that writes its first ``limit`` bytes or characters, then fails as an interrupt would."""

    def __init__(self, f, limit):
        self.f = f
        self.limit = limit

    def write(self, data):
        if len(data) > self.limit:
            self.f.write(data[: self.limit])
            self.f.flush()
            raise KeyboardInterrupt("interrupted mid-write")
        self.limit -= len(data)
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()
        return False


class FailFor:
    def __init__(self, inner, fail_density):
        self.inner = inner
        self.fail_density = fail_density

    def score(self, requests):
        raise ScorerError("synthetic failure")


def small_config(**overrides):
    defaults = dict(
        lambda_grid=(0.5, 1.0),
        density_grid=(0.4, 0.2),
        primary_size=8,
        tiebreak_size=4,
        sampling_seed=7,
    )
    defaults.update(overrides)
    return SweepConfig(MergeMethod.TIES, **defaults)


class TestRunSweep:
    def test_stub_scorer_manifest(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        config = small_config()
        result = run_sweep(
            config, triple, dataset, lambda recipe, path: StubScorer(), tmp_path / "out", jobs=1
        )
        manifest = (tmp_path / "out" / "sweep-manifest.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in manifest]
        entries = [r for r in records if r["record"] == "entry"]
        assert len(entries) == 4
        assert all(r["status"] == "ok" for r in entries)
        assert records[-1]["record"] == "winner"
        assert result.winner is not None
        for entry in entries:
            assert (tmp_path / "out" / entry["variant"]).exists()

    def test_failed_recipe_is_flagged_and_excluded(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))

        def factory(recipe, path):
            if recipe.density == 0.2 and recipe.lam == 0.5:
                return FailFor(None, 0.2)
            return StubScorer()

        result = run_sweep(small_config(), triple, dataset, factory, tmp_path / "out", jobs=1)
        statuses = {(e.recipe.lam, e.recipe.density): e.status for e in result.entries}
        assert statuses[(0.5, 0.2)] == "failed"
        assert result.winner is not None
        assert (result.winner.recipe.lam, result.winner.recipe.density) != (0.5, 0.2)

    def test_all_failed_leaves_no_winner(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        result = run_sweep(
            small_config(), triple, dataset, lambda r, p: FailFor(None, None), tmp_path / "out", jobs=1
        )
        assert result.winner is None
        assert all(e.status == "failed" for e in result.entries)

    def test_record_then_replay_reproduces_manifest(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        config = small_config()
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()

        def recording_factory(recipe, path):
            return RecordingScorer(StubScorer(), transcripts / f"{recipe.slug()}.jsonl")

        run_sweep(config, triple, dataset, recording_factory, tmp_path / "run1", jobs=1)

        def replay_factory(recipe, path):
            return ReplayScorer(transcripts / f"{recipe.slug()}.jsonl")

        run_sweep(config, triple, dataset, replay_factory, tmp_path / "run2", jobs=1)
        first = (tmp_path / "run1" / "sweep-manifest.jsonl").read_bytes()
        second = (tmp_path / "run2" / "sweep-manifest.jsonl").read_bytes()
        assert first == second

    def test_linear_defaults_give_eleven_entry_manifest(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 500))
        config = SweepConfig(MergeMethod.LINEAR)  # default grid and 400/100 split
        result = run_sweep(
            config, triple, dataset, lambda r, p: StubScorer(), tmp_path / "out", jobs=2
        )
        manifest = (tmp_path / "out" / "sweep-manifest.jsonl").read_text().splitlines()
        entries = [json.loads(l) for l in manifest if '"record": "entry"' in l]
        assert len(entries) == 11
        assert result.winner is not None

    def test_manifest_is_independent_of_worker_count(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        config = small_config()
        run_sweep(config, triple, dataset, lambda r, p: StubScorer(), tmp_path / "a", jobs=1)
        run_sweep(config, triple, dataset, lambda r, p: StubScorer(), tmp_path / "b", jobs=4)
        assert (tmp_path / "a" / "sweep-manifest.jsonl").read_bytes() == (
            tmp_path / "b" / "sweep-manifest.jsonl"
        ).read_bytes()
        for variant in (tmp_path / "a").glob("variant-*"):
            assert variant.read_bytes() == (tmp_path / "b" / variant.name).read_bytes()

    def test_recipes_run_one_at_a_time_in_grid_order(self, rng, tmp_path, monkeypatch):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        config = small_config()
        lock = threading.Lock()
        in_flight, peak, jobs_seen = [0], [0], []
        real_merge = assembly.merge_transformer

        def counting_merge(recipe, *args, jobs=None, **kwargs):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
                jobs_seen.append(jobs)
            try:
                time.sleep(0.05)  # long enough for a concurrent merge to start
                return real_merge(recipe, *args, jobs=jobs, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1

        scored = []

        def factory(recipe, path):
            scored.append(recipe)
            return StubScorer()

        monkeypatch.setattr(assembly, "merge_transformer", counting_merge)
        run_sweep(config, triple, dataset, factory, tmp_path / "out", jobs=4)
        assert peak[0] == 1
        assert jobs_seen == [4]  # one merge for the whole grid
        assert scored == generate_grid(config)

    @pytest.mark.parametrize("lost,rebuilt", [
        ("none", []),
        ("variant-ties-l1-d0.2-*", ["ties-l1-d0.2"]),
        ("variant-*", ["ties-l0.5-d0.4", "ties-l0.5-d0.2", "ties-l1-d0.4", "ties-l1-d0.2"]),
    ], ids=["warm", "resumed", "cold"])
    def test_one_assembly_per_sweep(self, rng, tmp_path, monkeypatch, lost, rebuilt):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        out = tmp_path / "out"
        run_sweep(small_config(), triple, dataset, lambda r, p: StubScorer(), out, jobs=1)
        for variant in out.glob(lost):
            variant.unlink()
        calls = []
        real_assemble = sweep.assemble_vlrm

        def counting_assemble(recipes, *args, **kwargs):
            calls.append([recipe.slug() for recipe in recipes])
            return real_assemble(recipes, *args, **kwargs)

        monkeypatch.setattr(sweep, "assemble_vlrm", counting_assemble)
        run_sweep(small_config(), triple, dataset, lambda r, p: StubScorer(), out, jobs=1)
        assert calls == [rebuilt]

    def test_warm_sweep_still_validates_the_triple(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        # digests in the provenance name the variants, so the broken triple below finds them current
        provenance = {f"input.{kind}.sha256": kind[0] * 64 for kind in ("pre", "lvlm", "rm")}
        out = tmp_path / "out"
        run_sweep(small_config(), triple, dataset, lambda r, p: StubScorer(), out, provenance, jobs=1)
        written = {p.name: p.stat().st_mtime_ns for p in out.glob("variant-*")}
        del triple.rm.ckpt.tensors["model.norm.weight"]
        del triple.rm.cmap.assignments["model.norm.weight"]
        with pytest.raises(TripleValidationError, match="name-set mismatch"):
            run_sweep(small_config(), triple, dataset, lambda r, p: StubScorer(), out, provenance, jobs=1)
        assert {p.name: p.stat().st_mtime_ns for p in out.glob("variant-*")} == written

    def test_one_merge_per_pass(self, rng, tmp_path, monkeypatch):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        calls = []
        real_merge = assembly.merge_transformer

        def counting_merge(recipe, *args, **kwargs):
            calls.append([(v.lam, v.density) for v in kwargs["variants"]])
            return real_merge(recipe, *args, **kwargs)

        monkeypatch.setattr(assembly, "merge_transformer", counting_merge)
        out = tmp_path / "out"
        run_sweep(small_config(), triple, dataset, lambda r, p: StubScorer(), out, jobs=1)
        assert calls == [[(0.5, 0.4), (0.5, 0.2), (1.0, 0.4), (1.0, 0.2)]]  # every density, in grid order
        assert len(list(out.glob("variant-*.safetensors"))) == 4

        # a resumed sweep rebuilds every missing variant, of any density, in one merge
        calls.clear()
        for lost in ("variant-ties-l1-d0.2-*.safetensors", "variant-ties-l0.5-d0.4-*.safetensors"):
            next(out.glob(lost)).unlink()
        run_sweep(small_config(), triple, dataset, lambda r, p: StubScorer(), out, jobs=1)
        assert calls == [[(0.5, 0.4), (1.0, 0.2)]]

    @pytest.mark.parametrize("trans_dtype", [Dtype.BF16, Dtype.F32])
    def test_one_merge_takes_every_lambda(self, rng, tmp_path, monkeypatch, trans_dtype):
        # each lambda's output tensor is written to its variant as soon as it is
        # merged, so an 11-lambda grid is one merge whatever the storage dtype
        triple = classified_toy_triple(rng, trans_dtype=trans_dtype)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        config = SweepConfig(MergeMethod.TASK_ARITHMETIC, primary_size=8, tiebreak_size=4)
        calls = []
        real_merge = assembly.merge_transformer

        def counting_merge(recipe, *args, **kwargs):
            calls.append(tuple(variant.lam for variant in kwargs["variants"]))
            return real_merge(recipe, *args, **kwargs)

        monkeypatch.setattr(assembly, "merge_transformer", counting_merge)
        out = tmp_path / "out"
        run_sweep(config, triple, dataset, lambda r, p: StubScorer(), out, jobs=1)
        assert calls == [tuple(config.lambda_grid)]
        assert len(list(out.glob("variant-*.safetensors"))) == len(config.lambda_grid)

    def test_cached_variants_are_reused(self, rng, tmp_path, caplog):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        config = small_config()
        out = tmp_path / "out"
        run_sweep(config, triple, dataset, lambda r, p: StubScorer(), out, jobs=1)
        mtimes = {p.name: p.stat().st_mtime_ns for p in out.glob("variant-*")}
        run_sweep(config, triple, dataset, lambda r, p: StubScorer(), out, jobs=1)
        assert {p.name: p.stat().st_mtime_ns for p in out.glob("variant-*")} == mtimes

    @pytest.mark.parametrize("change", ["vocab-digest", "tool-version", "unreadable"])
    def test_variant_from_other_inputs_is_rebuilt(self, rng, tmp_path, monkeypatch, change):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        config = small_config(lambda_grid=(0.5,), density_grid=(0.4,))
        provenance = {f"input.{kind}.sha256": kind[0] * 64 for kind in ("pre", "lvlm", "rm")}
        provenance["input.lvlm_vocab.sha256"] = "1" * 64
        out = tmp_path / "out"
        run_sweep(config, triple, dataset, lambda r, p: StubScorer(), out, provenance, jobs=1)
        [variant] = out.glob("variant-*.safetensors")
        if change == "vocab-digest":
            provenance["input.lvlm_vocab.sha256"] = "2" * 64
        elif change == "tool-version":
            monkeypatch.setattr(assembly, "__version__", "0.0.0-other")
        else:
            variant.write_bytes(b"\x00" * 4)
        run_sweep(config, triple, dataset, lambda r, p: StubScorer(), out, provenance, jobs=1)
        [rebuilt] = out.glob("variant-*.safetensors")
        assert rebuilt.name == variant.name
        assert tensorstore.read_metadata(rebuilt) == assembly.recorded_provenance(
            generate_grid(config)[0], provenance
        )

    def test_variant_cut_short_is_rebuilt(self, rng, tmp_path):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        config = small_config(lambda_grid=(0.5,), density_grid=(0.4,))
        out = tmp_path / "out"
        run_sweep(config, triple, dataset, lambda r, p: StubScorer(), out, jobs=1)
        [variant] = out.glob("variant-*.safetensors")
        built = variant.read_bytes()
        # its header intact, its data region 64 bytes short
        variant.write_bytes(built[:-64])
        run_sweep(config, triple, dataset, lambda r, p: StubScorer(), out, jobs=1)
        assert variant.read_bytes() == built

    @pytest.mark.parametrize("change", ["vocab-order", "dtype-label"])
    def test_library_sweep_rebuilds_for_inputs_with_other_layout(self, rng, tmp_path, change):
        # no input digests: the variant names come from the triple itself
        triple = classified_toy_triple(rng, trans_dtype=Dtype.F16)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        config = small_config(lambda_grid=(0.5,), density_grid=(0.4,))
        out = tmp_path / "out"
        [before] = run_sweep(config, triple, dataset, lambda r, p: StubScorer(), out, jobs=1).entries
        if change == "vocab-order":
            vocab = triple.lvlm.ckpt.vocab
            vocab["t0"], vocab["t1"] = vocab["t1"], vocab["t0"]
        else:  # the same bytes, read as BF16
            for model in (triple.pre, triple.lvlm, triple.rm):
                for name in model.cmap.names(Role.TRANSFORMER):
                    t = model.ckpt.tensors[name]
                    model.ckpt.tensors[name] = Tensor(name, Dtype.BF16, t.shape, t.data)
        [after] = run_sweep(config, triple, dataset, lambda r, p: StubScorer(), out, jobs=1).entries
        assert after.variant_path != before.variant_path
        rebuilt = tensorstore.read_checkpoint(out / after.variant_path)
        if change == "vocab-order":
            assert sorted(rebuilt.vocab, key=rebuilt.vocab.get)[:2] == ["t1", "t0"]
        else:
            assert rebuilt.tensors["model.norm.weight"].dtype is Dtype.BF16

    def test_library_sweep_of_opened_files_keeps_its_variant_names(self, rng, tmp_path):
        # no input digests: the names come from the payloads, streamed from the files
        pre, lvlm, rm = toy_triple(rng, trans_dtype=Dtype.BF16)
        paths = write_triple(tmp_path, pre, lvlm, rm)
        in_memory = classify_triple(pre, lvlm, rm, load_manifest_config())
        opened = classify_triple(*(tensorstore.read_checkpoint(paths[k]) for k in ("pre", "lvlm", "rm")),
                                 load_manifest_config())
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        results = {}
        for label, triple in (("memory", in_memory), ("files", opened)):
            out = tmp_path / label
            run_sweep(small_config(), triple, dataset, lambda r, p: StubScorer(), out, jobs=2)
            results[label] = {p.name: p.read_bytes() for p in out.glob("variant-*")}
        assert results["files"] == results["memory"]
        # and the sweep kept no payload: every one is read from the file again
        tensorstore.os.truncate(paths["lvlm"], 0)
        with pytest.raises(CheckpointFormatError, match="cut short"):
            opened.lvlm.ckpt.tensors["model.norm.weight"].data

    @pytest.mark.parametrize("mode,limit", [("wb", 2000), ("w", 20)])
    def test_interrupted_write_leaves_no_variant_and_is_rebuilt(
        self, rng, tmp_path, monkeypatch, mode, limit
    ):
        triple = classified_toy_triple(rng)
        dataset = load_pairwise_dataset(write_pairwise_dataset(tmp_path / "v.jsonl", 16))
        config = small_config()
        out = tmp_path / "out"

        def interrupted_open(file, open_mode="r", *args, **kwargs):
            f = builtins.open(file, open_mode, *args, **kwargs)
            return CutWrite(f, limit) if open_mode == mode else f

        real_pwrite, left = tensorstore.os.pwrite, [limit]

        def interrupted_pwrite(fd, data, offset):
            if len(data) > left[0]:
                real_pwrite(fd, data[: left[0]], offset)
                raise KeyboardInterrupt("interrupted mid-write")
            left[0] -= len(data)
            return real_pwrite(fd, data, offset)

        # the first checkpoint ("wb", written with pwrite) or vocabulary sidecar
        # ("w") write stops part-way
        with monkeypatch.context() as patch, pytest.raises(KeyboardInterrupt):
            if mode == "wb":
                patch.setattr(tensorstore.os, "pwrite", interrupted_pwrite)
            else:
                patch.setattr(tensorstore, "open", interrupted_open, raising=False)
            run_sweep(config, triple, dataset, lambda r, p: StubScorer(), out, jobs=1)
        assert not list(out.glob("variant-*.safetensors"))

        run_sweep(config, triple, dataset, lambda r, p: StubScorer(), out, jobs=1)
        run_sweep(config, triple, dataset, lambda r, p: StubScorer(), tmp_path / "clean", jobs=1)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in (tmp_path / "clean").iterdir()
        )
        for path in (tmp_path / "clean").iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes()
