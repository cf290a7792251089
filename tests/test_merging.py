import math
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import reference as ref
from vlrmerge import (
    Checkpoint,
    Dtype,
    MergeMethod,
    MergeRecipe,
    RecipeError,
    Tensor,
    VlrmergeError,
    merge_transformer,
    merging,
    read_checkpoint,
    write_checkpoint,
)
from vlrmerge.merging import _MASK_CHUNK, _cuts, _trim, _Workspace, retained_count
from vlrmerge.sweep import DEFAULT_DENSITY_GRID

from helpers import drop_step, merge_one, trim_step

LINEAR = MergeMethod.LINEAR
TA = MergeMethod.TASK_ARITHMETIC
TIES = MergeMethod.TIES


def arr(values):
    return np.asarray(values, dtype=np.float32)


def merge(method, pre, lvlm, rm, lam, density=None, seed=None, name="t"):
    recipe = MergeRecipe(method, lam=lam, density=density, seed=seed)
    return merge_one(recipe, name, arr(pre), arr(lvlm), arr(rm))


def merge_map(recipe, pre, lvlm, rm):
    return merge_transformer(recipe, {"t": arr(pre)}, {"t": arr(lvlm)}, {"t": arr(rm)})[0]


def trim_array(values, density):
    """The in-place trim step, run on a copy of ``values``."""
    out = np.array(values, dtype=np.float32)
    flat, space = out.reshape(-1), _Workspace(out.size)
    [(k, cut)] = _cuts(flat, [density], space)
    _trim(flat, k, cut, space)
    return out


def argsort_trim(values, density):
    """The trim as a full stable sort on descending magnitude: the rule the
    selection-based kernel must reproduce, tie and NaN order included."""
    flat = np.asarray(values, dtype=np.float32).ravel()
    k = retained_count(density, flat.size)
    keep = np.argsort(-np.abs(flat), kind="stable")[:k]
    out = np.zeros_like(flat)
    out[keep] = flat[keep]
    return out


def bf16_rounded(values):
    """Truncate float32 values to bf16 precision, as stored checkpoints are."""
    bits = np.asarray(values, dtype=np.float32).view(np.uint32) & np.uint32(0xFFFF0000)
    return bits.view(np.float32)


SPECIALS = np.array(
    [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45, 0.5, -0.5, 1.0, -1.0],
    dtype=np.float32,
)


def trim_inputs(kind, rng, n=3000):
    if kind == "bf16":
        return bf16_rounded(rng.standard_normal(n).astype(np.float32) * np.float32(0.01))
    if kind == "halves":
        return (rng.integers(-6, 7, n) * 0.5).astype(np.float32)
    if kind == "specials":
        return rng.choice(SPECIALS, n)
    # mostly NaN: for every density below 1 the cut falls inside the NaNs
    values = rng.choice(SPECIALS, n)
    values[rng.random(n) < 0.85] = np.nan
    return values


def ties_untrimmed(tau_l, tau_r):
    """ties at density 1 and lam 1 on a zero base: the disjoint mean under the elected sign."""
    zeros = np.zeros(len(tau_l), dtype=np.float32)
    return merge(TIES, zeros, tau_l, tau_r, 1.0, density=1.0)


class TestTaskVector:
    def test_definitional_subtraction(self):
        # rm equal to the base adds a zero task vector; 1 + 0.5 * (3 - 1)
        out = merge(TA, [1.0], [3.0], [1.0], 0.5)
        assert out.tolist() == [2.0]

    def test_equal_models_give_zero(self, rng):
        weights = arr(rng.standard_normal(8))
        out = merge(TA, weights, weights.copy(), weights.copy(), 0.7)
        assert out.tobytes() == weights.tobytes()

    def test_matches_scalar_loop_exactly(self, rng):
        model = rng.uniform(-2, 2, 64).astype(np.float32)
        pre = rng.uniform(-2, 2, 64).astype(np.float32)
        out = merge(TA, pre, model, pre.copy(), 1.0)
        expected = ref.merge_reference("task-arithmetic", pre, model, pre, 1.0)
        assert out.tolist() == [float(v) for v in expected]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(VlrmergeError, match="shape mismatch"):
            merge_transformer(
                MergeRecipe(TA, lam=0.5),
                {"t": arr([1.0, 2.0])}, {"t": arr([1.0])}, {"t": arr([1.0, 2.0])},
            )


class TestLinear:
    def test_lambda_one_returns_lvlm_exactly(self, rng):
        pre = np.zeros(16, dtype=np.float32)
        lvlm = rng.standard_normal(16).astype(np.float32)
        rm = rng.standard_normal(16).astype(np.float32)
        out = merge(LINEAR, pre, lvlm, rm, 1.0)
        assert out.tobytes() == lvlm.tobytes()

    def test_lambda_zero_returns_rm_exactly(self, rng):
        pre = np.zeros(16, dtype=np.float32)
        lvlm = rng.standard_normal(16).astype(np.float32)
        rm = rng.standard_normal(16).astype(np.float32)
        out = merge(LINEAR, pre, lvlm, rm, 0.0)
        assert out.tobytes() == rm.tobytes()

    def test_midpoint_example(self):
        out = merge(LINEAR, [0.0, 0.0], [2.0, 4.0], [0.0, 8.0], 0.5)
        assert out.tolist() == [1.0, 6.0]

    @pytest.mark.parametrize("lam", [-0.1, 1.5])
    def test_lambda_out_of_range(self, lam):
        with pytest.raises(RecipeError):
            merge_map(MergeRecipe(LINEAR, lam=lam), [1.0], [1.0], [1.0])


class TestTaskArithmetic:
    def test_lambda_zero_returns_pre(self, rng):
        pre, lvlm, rm = (rng.standard_normal(16).astype(np.float32) for _ in range(3))
        out = merge(TA, pre, lvlm, rm, 0.0)
        assert out.tobytes() == pre.tobytes()

    def test_half_lambda_example(self):
        # task vectors 2 and -1
        out = merge(TA, [1.0], [3.0], [0.0], 0.5)
        assert out.tolist() == [1.5]

    def test_lambda_one_zero_rm_tau_recovers_lvlm(self, rng):
        # well-conditioned values: base and deltas exactly representable on a
        # shared exponent range, so subtract-then-add cancels exactly
        pre = arr([k / 16 for k in range(-16, 16)])
        lvlm = arr([k / 16 for k in range(-8, 24)])
        out = merge(TA, pre, lvlm, pre.copy(), 1.0)
        assert out.tolist() == lvlm.tolist()

    def test_homogeneity_for_power_of_two_scaling(self, rng):
        # a zero base exposes the merged delta itself, which must scale exactly
        zeros = np.zeros(32, dtype=np.float32)
        tau_l = rng.standard_normal(32).astype(np.float32)
        tau_r = rng.standard_normal(32).astype(np.float32)
        base = merge(TA, zeros, tau_l, tau_r, 0.75)
        scaled = merge(TA, zeros, 4.0 * tau_l, 4.0 * tau_r, 0.75)
        assert np.array_equal(scaled, 4.0 * base)

    def test_negative_lambda_rejected(self):
        with pytest.raises(RecipeError):
            merge_map(MergeRecipe(TA, lam=-0.5), [1.0], [2.0], [2.0])


class TestTrim:
    def test_density_one_is_identity(self, rng):
        values = rng.standard_normal(32).astype(np.float32)
        out = trim_step(values, 1.0)
        assert out.tobytes() == values.tobytes()

    def test_hand_worked_example(self):
        out = trim_step([0.3, -0.1, 0.5, 0.0], 0.5)
        assert out.tolist() == pytest.approx([0.3, 0.0, 0.5, 0.0])

    def test_magnitude_tie_keeps_lower_flat_index(self):
        out = trim_step([1.0, -1.0, 1.0, -1.0], 0.5)
        assert out.tolist() == [1.0, -1.0, 0.0, 0.0]

    @pytest.mark.parametrize("density", [0.2, 0.4, 0.6, 0.8])
    def test_retains_exactly_ceil_on_zero_free_input(self, rng, density):
        for n in (1, 5, 17, 100, 256):
            values = rng.uniform(0.5, 2.0, n).astype(np.float32) * rng.choice([-1, 1], n)
            out = trim_step(values.tolist(), density)
            assert np.count_nonzero(out) == retained_count(density, n)

    def test_kept_set_matches_full_sort_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 64))
            values = rng.standard_normal(n).astype(np.float32)
            d = float(rng.uniform(0.05, 1.0))
            out = trim_step(values.tolist(), d)
            expected = ref.trim(values.tolist(), d)
            assert out.tolist() == [float(v) for v in expected]

    def test_grid_density_count_is_exact_decimal(self):
        # 0.2 * 100 must keep 20 entries despite binary-float noise
        assert retained_count(0.2, 100) == 20
        assert retained_count(0.6, 5) == 3
        assert retained_count(0.5, 5) == 3

    @pytest.mark.parametrize("density", DEFAULT_DENSITY_GRID + (1.0,))
    @pytest.mark.parametrize("kind", ["bf16", "halves", "specials", "mostly-nan"])
    def test_bytes_match_stable_argsort(self, rng, kind, density):
        values = trim_inputs(kind, rng)
        out = trim_array(values, density)
        assert out.tobytes() == argsort_trim(values, density).tobytes()

    def test_cut_inside_nans_keeps_every_number_then_first_nans(self):
        values = arr([np.nan, 2.0, -np.nan, -0.0, np.nan, np.inf, np.nan])
        # k = 5: the three numbers, then the NaNs at flat indices 0 and 2
        out = trim_array(values, 5 / 7)
        assert out.tobytes() == argsort_trim(values, 5 / 7).tobytes()
        assert out.tobytes() == values[[0, 1, 2, 3]].tobytes() + arr([0.0, np.inf, 0.0]).tobytes()

    def test_bytes_match_stable_argsort_on_2d_tensor(self, rng):
        values = trim_inputs("halves", rng).reshape(60, 50)
        out = trim_array(values, 0.4)
        assert out.shape == values.shape
        assert out.tobytes() == argsort_trim(values, 0.4).tobytes()

    @pytest.mark.parametrize("density", [0.0, -0.2, 1.5])
    def test_bad_density_rejected(self, density):
        with pytest.raises(RecipeError, match="density must be in"):
            merge_map(MergeRecipe(TIES, lam=1.0, density=density), [0.0], [1.0], [0.0])


class TestElectSign:
    def test_larger_negative_total_wins(self):
        out = ties_untrimmed([0.3], [-0.4])
        assert out.tolist() == arr([-0.4]).tolist()

    def test_all_zero_ties_to_positive(self):
        # equal totals elect +1; with nothing nonzero the position stays 0
        assert ties_untrimmed([0.5], [-0.5]).tolist() == [0.5]
        assert ties_untrimmed([0.0], [0.0]).tolist() == [0.0]

    def test_single_task_keeps_its_sign(self):
        out = ties_untrimmed([0.5, -0.5, 0.0], [0.0, 0.0, 0.0])
        assert out.tolist() == [0.5, -0.5, 0.0]


class TestElectAndDisjointSpecialValues:
    def test_bytes_match_scalar_loop_on_every_pair(self):
        # every pairing of NaN, +-inf, +-0.0, subnormals and equal magnitudes
        tau_l = np.repeat(SPECIALS, len(SPECIALS))
        tau_r = np.tile(SPECIALS, len(SPECIALS))
        out = ties_untrimmed(tau_l, tau_r)
        expected = ref.ties([0.0] * len(tau_l), tau_l.tolist(), tau_r.tolist(), 1.0, 1.0)
        assert out.tobytes() == arr(expected).tobytes()

    def test_bytes_do_not_depend_on_block_size(self, monkeypatch):
        # the election and disjoint mean run in blocks; 7 splits the pairs
        # into many blocks and leaves a partial one at the end
        tau_l = np.repeat(SPECIALS, len(SPECIALS))
        tau_r = np.tile(SPECIALS, len(SPECIALS))
        assert tau_l.size % 7
        monkeypatch.setattr(merging, "_BLOCK", 7)
        out = ties_untrimmed(tau_l, tau_r)
        expected = ref.ties([0.0] * len(tau_l), tau_l.tolist(), tau_r.tolist(), 1.0, 1.0)
        assert out.tobytes() == arr(expected).tobytes()


class TestDisjointMerge:
    def test_singleton_mean(self):
        assert ties_untrimmed([0.5], [0.0]).tolist() == [0.5]

    def test_mismatching_value_dropped(self):
        out = ties_untrimmed([0.3, 0.2], [-0.4, 0.6])
        assert out.tolist() == pytest.approx([-0.4, 0.4])

    def test_all_trimmed_position_is_zero(self):
        assert ties_untrimmed([0.0], [0.0]).tolist() == [0.0]


class TestTies:
    def test_hand_worked_four_element_example(self):
        out = merge(TIES, [0.0] * 4, [0.3, -0.1, 0.5, 0.0], [-0.4, 0.2, 0.1, 0.0], 1.0, density=0.5)
        assert out.tolist() == pytest.approx([-0.4, 0.2, 0.5, 0.0])

    def test_equal_positive_taus_at_full_density(self, rng):
        pre = rng.standard_normal(8).astype(np.float32)
        lvlm = pre + (np.abs(rng.standard_normal(8)).astype(np.float32) + np.float32(0.1))
        out = merge(TIES, pre, lvlm, lvlm.copy(), 0.7, density=1.0)
        expected = ref.merge_reference("ties", pre, lvlm, lvlm, 0.7, 1.0)
        ref.assert_close(out, expected)
        # mean of two equal values is the value itself
        tau = ref.task_vector(lvlm.tolist(), pre.tolist())
        ref.assert_close(out, ref.apply_delta(pre.tolist(), tau, 0.7))

    def test_single_nonzero_task_full_density_adds_that_task(self, rng):
        pre = rng.standard_normal(16).astype(np.float32)
        lvlm = rng.standard_normal(16).astype(np.float32)
        out = merge(TIES, pre, lvlm, pre.copy(), 1.0, density=1.0)
        assert out.tolist() == (pre + (lvlm - pre)).tolist()

    def test_random_tensors_match_reference(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 64))
            pre = rng.uniform(-2, 2, n).astype(np.float32)
            lvlm = rng.uniform(-2, 2, n).astype(np.float32)
            rm = rng.uniform(-2, 2, n).astype(np.float32)
            lam = float(rng.uniform(0, 1.5))
            d = float(rng.uniform(0.05, 1.0))
            out = merge(TIES, pre, lvlm, rm, lam, density=d)
            expected = ref.merge_reference("ties", pre, lvlm, rm, lam, d)
            ref.assert_close(out, expected)


class TestDareSparsify:
    def test_density_one_is_identity(self, rng):
        values = rng.standard_normal(64).astype(np.float32)
        out = drop_step(values, 1.0, seed=7)
        assert out.tobytes() == values.tobytes()

    def test_deterministic_for_same_seed_and_name(self, rng):
        values = rng.standard_normal(512).astype(np.float32)
        a = drop_step(values, 0.5, seed=3)
        b = drop_step(values, 0.5, seed=3)
        assert a.tobytes() == b.tobytes()

    def test_different_names_get_different_masks(self, rng):
        values = np.ones(512, dtype=np.float32)
        a = drop_step(values, 0.5, seed=3, name="a")
        b = drop_step(values, 0.5, seed=3, name="b")
        assert a.tobytes() != b.tobytes()

    def test_different_origins_get_different_masks(self):
        values = np.ones(512, dtype=np.float32)
        a = drop_step(values, 0.5, seed=3, origin="lvlm")
        b = drop_step(values, 0.5, seed=3, origin="rm")
        assert a.tobytes() != b.tobytes()

    def test_unit_tensor_statistics(self):
        n, d = 100_000, 0.4
        out = drop_step(np.ones(n, dtype=np.float32), d, seed=11)
        kept = np.count_nonzero(out)
        sigma_count = math.sqrt(n * d * (1 - d))
        assert abs(kept - n * d) <= 4 * sigma_count
        assert np.all(out[out != 0] == np.float32(2.5))
        sigma_mean = math.sqrt((1 - d) / d / n)
        assert abs(float(out.mean()) - 1.0) <= 3 * sigma_mean

    def test_matches_scalar_stream(self, rng):
        values = rng.standard_normal(256).astype(np.float32)
        out = drop_step(values, 0.3, seed=42, origin="rm", name="w.0")
        expected = ref.drop_and_rescale(values.tolist(), 0.3, 42, "rm", "w.0")
        assert out.tolist() == [float(v) for v in expected]

    @pytest.mark.parametrize("density", [1 / 3, 0.5])
    def test_keep_decisions_across_mask_chunks(self, density):
        # several whole mask chunks and a partial one
        n = 5 * _MASK_CHUNK + 123
        out = drop_step(np.ones(n, dtype=np.float32), density, seed=5, origin="rm", name="w.big")
        kept = out != 0
        # every decision, those on both sides of each chunk boundary included
        assert kept.tolist() == ref.keep_decisions(5, "rm", "w.big", n, density)

    def test_keep_threshold_is_exact_at_a_draw(self):
        # element 0's draw is m * 2**-53; a density half a step above it keeps
        # the element, a density equal to it drops it
        def draw(seed):
            return ref.mix64(ref.stream_key(seed, "lvlm", "t")) >> 11

        # below 2**52, so that half a step above the draw is a float64
        seed = next(s for s in range(100) if 0 < draw(s) < 2**52)
        m = draw(seed)
        for density, kept in (((2 * m + 1) * 2.0**-54, True), (m * 2.0**-53, False)):
            assert ref.keep_decisions(seed, "lvlm", "t", 1, density) == [kept]
            out = drop_step(arr([1.0]), density, seed=seed)
            assert (out[0] != 0) == kept

    def test_unbiased_expectation_over_seeds(self, rng):
        values = rng.uniform(0.5, 1.5, 16).astype(np.float32)
        d, n_seeds = 0.4, 10_000
        total = np.zeros(16, dtype=np.float64)
        for seed in range(n_seeds):
            total += drop_step(values, d, seed=seed)
        mean = total / n_seeds
        sigma = np.abs(values) * math.sqrt((1 - d) / d / n_seeds)
        assert np.all(np.abs(mean - values) <= 3 * sigma)


class TestMergeDare:
    def test_density_one_ta_equals_task_arithmetic(self, rng):
        pre, lvlm, rm = (rng.standard_normal(32).astype(np.float32) for _ in range(3))
        a = merge(MergeMethod.DARE_TASK_ARITHMETIC, pre, lvlm, rm, 0.8, density=1.0, seed=1)
        b = merge(TA, pre, lvlm, rm, 0.8)
        assert a.tobytes() == b.tobytes()

    def test_density_one_ties_mode_mean_where_signs_agree(self, rng):
        pre = rng.standard_normal(16).astype(np.float32)
        lvlm = pre + (np.abs(rng.standard_normal(16)).astype(np.float32) + np.float32(0.1))
        rm = pre + (np.abs(rng.standard_normal(16)).astype(np.float32) + np.float32(0.1))
        out = merge(MergeMethod.DARE_TIES, pre, lvlm, rm, 0.7, density=1.0, seed=1)
        mean = ((lvlm - pre) + (rm - pre)) / np.float32(2.0)
        ref.assert_close(out, ref.apply_delta(pre.tolist(), mean.tolist(), 0.7))

    @pytest.mark.parametrize("mode", ["ta", "ties"])
    def test_random_tensors_match_reference(self, rng, mode):
        method = "dare-task-arithmetic" if mode == "ta" else "dare-ties"
        for trial in range(20):
            pre = rng.uniform(-2, 2, 16).astype(np.float32)
            lvlm = rng.uniform(-2, 2, 16).astype(np.float32)
            rm = rng.uniform(-2, 2, 16).astype(np.float32)
            lam, d, seed = float(rng.uniform(0, 1.5)), float(rng.uniform(0.1, 1.0)), trial
            out = merge(MergeMethod(method), pre, lvlm, rm, lam, density=d, seed=seed, name="w")
            expected = ref.merge_reference(method, pre, lvlm, rm, lam, d, seed, name="w")
            ref.assert_close(out, expected)


class TestMergeTransformer:
    @pytest.mark.parametrize("method,extra", [
        (MergeMethod.LINEAR, {}),
        (MergeMethod.TASK_ARITHMETIC, {}),
        (MergeMethod.TIES, {"density": 0.4}),
        (MergeMethod.DARE_TASK_ARITHMETIC, {"density": 0.4, "seed": 9}),
        (MergeMethod.DARE_TIES, {"density": 0.4, "seed": 9}),
    ])
    def test_results_independent_of_worker_count(self, rng, method, extra):
        recipe = MergeRecipe(method, lam=0.7, **extra)
        maps = []
        for _ in range(3):
            maps.append({f"w{i}": rng.uniform(-1, 1, (4, 4)).astype(np.float32) for i in range(6)})
        single = merge_transformer(recipe, *maps, jobs=1)[0]
        multi = merge_transformer(recipe, *maps, jobs=4)[0]
        for name in single:
            assert single[name].data == multi[name].data

    def test_recipe_validation_runs(self):
        with pytest.raises(RecipeError, match="--density is required"):
            recipe = MergeRecipe(MergeMethod.TIES, lam=0.5)  # density missing
            merge_transformer(recipe, {"t": arr([1.0])}, {"t": arr([1.0])}, {"t": arr([1.0])})

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        recipe = MergeRecipe(LINEAR, lam=0.5)
        with pytest.raises(VlrmergeError, match=f"jobs must be at least 1, got {jobs}"):
            merge_transformer(recipe, {"t": arr([1.0])}, {"t": arr([1.0])}, {"t": arr([1.0])}, jobs=jobs)

    @pytest.mark.parametrize("method,extra", [
        (MergeMethod.LINEAR, {}),
        (MergeMethod.TASK_ARITHMETIC, {}),
        (MergeMethod.TIES, {"density": 0.4}),
        (MergeMethod.DARE_TASK_ARITHMETIC, {"density": 0.4, "seed": 9}),
        (MergeMethod.DARE_TIES, {"density": 0.4, "seed": 9}),
    ])
    def test_each_lambda_matches_single_lambda_merge(self, rng, method, extra):
        recipe = MergeRecipe(method, lam=0.7, **extra)
        lams = (0.0, 0.6, 1.0)
        maps = []
        for _ in range(3):
            maps.append({f"w{i}": rng.uniform(-1, 1, (5, 7)).astype(np.float32) for i in range(4)})
        pre, lvlm, rm = maps
        merged = merge_transformer(recipe, *maps, jobs=2, variants=[replace(recipe, lam=lam) for lam in lams])
        assert len(merged) == len(lams)
        for lam, out in zip(lams, merged):
            for name in pre:
                expected = merge_one(replace(recipe, lam=lam), name, pre[name], lvlm[name], rm[name])
                assert out[name] == Tensor.from_f32(name, expected, Dtype.F32)

    @pytest.mark.parametrize("dtype", [Dtype.F16, Dtype.BF16, Dtype.F32])
    @pytest.mark.parametrize("method,extra", [
        (MergeMethod.LINEAR, {}),
        (MergeMethod.TASK_ARITHMETIC, {}),
        (MergeMethod.TIES, {"density": 0.4}),
        (MergeMethod.DARE_TASK_ARITHMETIC, {"density": 0.4, "seed": 9}),
        (MergeMethod.DARE_TIES, {"density": 0.4, "seed": 9}),
    ])
    def test_storage_views_match_single_lambda_merge_on_widened_arrays(self, rng, method, extra, dtype):
        recipe = MergeRecipe(method, lam=0.7, **extra)
        shapes = {"w0": (5, 7), "w1": (3, 2), "w2": (11,)}
        tensors = [
            {name: Tensor.from_f32(name, rng.uniform(-1, 1, shape), dtype) for name, shape in shapes.items()}
            for _ in range(3)
        ]
        views = [{name: t.array() for name, t in side.items()} for side in tensors]
        assert views[0]["w0"].dtype == dtype.array_dtype
        variants = [replace(recipe, lam=lam) for lam in (0.0, 0.7, 1.0)]
        merged = merge_transformer(recipe, *views, jobs=2, variants=variants)
        for lam, out in zip((0.0, 0.7, 1.0), merged):
            for name in shapes:
                pre, lvlm, rm = (side[name].to_f32() for side in tensors)
                expected = merge_one(replace(recipe, lam=lam), name, pre, lvlm, rm)
                assert out[name] == Tensor.from_f32(name, expected, dtype)

    def test_workspaces_are_never_shared_under_thread_churn(self, rng):
        # more workers than cores and a short switch interval: a workspace
        # handed to two workers at once would mix their tensors' values
        recipe = MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.4, seed=3)
        sizes = [int(s) for s in rng.integers(1, 400, 40)]
        maps = [{f"w{i}": rng.uniform(-1, 1, s).astype(np.float32) for i, s in enumerate(sizes)} for _ in range(3)]
        single = merge_transformer(recipe, *maps, jobs=1)[0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            for _ in range(5):
                multi = merge_transformer(recipe, *maps, jobs=8)[0]
                assert all(multi[name].data == single[name].data for name in single)
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - started < 30

    def test_input_maps_are_only_read(self, rng):
        # the inputs are views of checkpoint buffers: the call must not change them
        recipe = MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4)
        maps = [{f"w{i}": rng.uniform(-1, 1, (5, 7)).astype(np.float32) for i in range(4)} for _ in range(3)]
        before = [dict(m) for m in maps]
        copies = [{name: a.copy() for name, a in m.items()} for m in maps]
        for m in maps:
            for a in m.values():
                a.flags.writeable = False
        merged = merge_transformer(recipe, *maps, jobs=2, variants=[replace(recipe, lam=lam) for lam in (0.5, 1.0)])
        assert [sorted(m) for m in merged] == [["w0", "w1", "w2", "w3"]] * 2
        for m, kept, copy in zip(maps, before, copies):
            assert m.keys() == kept.keys()
            for name in m:
                assert m[name] is kept[name]
                assert m[name].tobytes() == copy[name].tobytes()

    @pytest.mark.parametrize("other", [
        MergeRecipe(MergeMethod.DARE_TIES, lam=0.5, density=0.4, seed=4),
        MergeRecipe(MergeMethod.DARE_TASK_ARITHMETIC, lam=0.5, density=0.4, seed=3),
    ], ids=["seed", "method"])
    def test_variants_must_share_method_and_seed(self, other):
        recipe = MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.2, seed=3)
        maps = [{"t": arr([1.0])} for _ in range(3)]
        with pytest.raises(RecipeError, match=f"recipe {other.slug()} does not share the method and seed"):
            merge_transformer(recipe, *maps, variants=[recipe, other])

    @pytest.mark.parametrize("affinity", [True, False])
    def test_default_jobs_are_the_usable_cpus(self, monkeypatch, affinity):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        else:  # a platform without CPU affinity counts every CPU
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        asked = []
        real_executor = merging.ThreadPoolExecutor

        def recording_executor(workers, **kwargs):
            asked.append(workers)
            return real_executor(workers, **kwargs)

        monkeypatch.setattr(merging, "ThreadPoolExecutor", recording_executor)
        recipe = MergeRecipe(LINEAR, lam=0.5)
        maps = [{f"t{i}": arr([1.0]) for i in range(5)} for _ in range(3)]
        merge_transformer(recipe, *maps)
        assert asked == [2]  # two helper threads beside the calling thread


def one_pass_inputs(rng, n=3000):
    """Three float32 maps whose task vectors tie in magnitude at every grid cut and hold NaN and +-0.0."""
    halves = lambda: (rng.integers(-6, 7, n) * 0.5).astype(np.float32)  # noqa: E731
    pre, lvlm, rm = {}, {}, {}
    pre["ties"] = halves()
    lvlm["ties"], rm["ties"] = pre["ties"] + halves(), pre["ties"] + halves()
    finite_or_nan = SPECIALS[~np.isinf(SPECIALS)]  # inf - inf would warn in dare-task-arithmetic's sum
    for kind, share in (("specials", 0.2), ("mostly-nan", 0.85)):
        pre[kind] = np.zeros(n, np.float32)
        for side in (lvlm, rm):
            side[kind] = rng.choice(finite_or_nan, n)
            side[kind][rng.random(n) < share] = np.nan
    for side in (pre, lvlm, rm):
        side["small"] = arr([0.5, -0.0])  # k covers every entry at some densities, not at others
        side["ties"] = side["ties"].reshape(60, 50)
    return [pre, lvlm, rm]


ONE_PASS_METHODS = [
    (MergeMethod.TIES, None),
    (MergeMethod.DARE_TIES, 11),
    (MergeMethod.DARE_TASK_ARITHMETIC, 11),
]


class TestOnePass:
    """One call over every lambda and density of a grid writes the bytes of one call per recipe."""

    @staticmethod
    def grid(method, seed, rng):
        variants = [
            MergeRecipe(method, lam=lam, density=d, seed=seed)
            for lam in (0.0, 0.5, 1.0) for d in (0.8, 0.6, 0.4, 0.2, 1.0)
        ]
        rng.shuffle(variants)  # densities interleaved, so the outputs come back out of list order
        return variants

    def test_float32_inputs_tie_at_every_cut(self, rng):
        pre, lvlm, rm = (side["ties"].ravel() for side in one_pass_inputs(rng))
        for fine in (lvlm, rm):
            ranked = np.sort(-np.abs(fine - pre))
            for density in DEFAULT_DENSITY_GRID:
                k = retained_count(density, ranked.size)
                assert ranked[k - 1] == ranked[k]  # the cut splits a run of equal magnitudes

    @pytest.mark.parametrize("method,seed", ONE_PASS_METHODS)
    def test_float32_with_nan_zeros_and_ties_matches_one_call_per_recipe(self, rng, method, seed):
        maps = one_pass_inputs(rng)
        variants = self.grid(method, seed, rng)
        together = merge_transformer(variants[0], *maps, jobs=2, variants=variants)
        for variant, merged in zip(variants, together):
            [alone] = merge_transformer(variant, *maps, jobs=1)
            assert merged.keys() == alone.keys()
            for name in alone:
                assert merged[name].data == alone[name].data, (variant.slug(), name)

    @pytest.mark.parametrize("method,seed", ONE_PASS_METHODS)
    def test_bf16_files_match_one_call_per_recipe(self, rng, tmp_path, method, seed):
        shapes = {"a": (40, 30), "b": (64,), "c": (3,)}
        views = []
        for kind in ("pre", "lvlm", "rm"):
            tensors = {name: Tensor.from_f32(name, rng.standard_normal(shape) * 0.05, Dtype.BF16)
                       for name, shape in shapes.items()}
            write_checkpoint(Checkpoint(tensors), tmp_path / f"{kind}.safetensors")
            views.append({name: t.array() for name, t in tensors.items()})
        # opened header-only, so each payload is read into a worker's staging slots
        opened = [read_checkpoint(tmp_path / f"{kind}.safetensors").tensors for kind in ("pre", "lvlm", "rm")]
        variants = self.grid(method, seed, rng)
        together = merge_transformer(variants[0], *opened, jobs=2, variants=variants)
        for variant, merged in zip(variants, together):
            [alone] = merge_transformer(variant, *views, jobs=1)
            for name in shapes:
                assert merged[name].dtype is Dtype.BF16
                assert merged[name].data == alone[name].data, (variant.slug(), name)


class TestWorkerThreads:
    """Each call starts its own helper threads and joins them; at most ``jobs`` tensors are in flight."""

    @staticmethod
    def maps(n):
        return [{f"t{i}": arr([float(i)]) for i in range(n)} for _ in range(3)]

    @staticmethod
    def merge_threads():
        return [t for t in threading.enumerate() if t.name.startswith("vlrmerge")]

    def test_no_thread_outlives_the_call(self, monkeypatch):
        recipe = MergeRecipe(LINEAR, lam=0.5)
        merge_transformer(recipe, *self.maps(8), jobs=4)
        assert self.merge_threads() == []
        real = merging._merge_per_lam

        def failing_merge(variants, name, *args):
            if name == "t5":
                raise RuntimeError("worker failed")
            time.sleep(0.001)
            yield from real(variants, name, *args)

        monkeypatch.setattr(merging, "_merge_per_lam", failing_merge)
        with pytest.raises(RuntimeError, match="worker failed"):
            merge_transformer(recipe, *self.maps(8), jobs=4)
        assert self.merge_threads() == []

    def test_one_job_runs_in_the_calling_thread(self, monkeypatch):
        threads = set()
        real = merging._merge_per_lam

        def recording(*args):
            threads.add(threading.get_ident())
            yield from real(*args)

        monkeypatch.setattr(merging, "_merge_per_lam", recording)
        merge_transformer(MergeRecipe(LINEAR, lam=0.5), *self.maps(6), jobs=1)
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_at_most_jobs_tensors_in_flight(self, monkeypatch, jobs):
        recipe = MergeRecipe(LINEAR, lam=0.5)
        lock, in_flight, peak = threading.Lock(), [0], [0]
        real = merging._merge_per_lam

        def slow_merge(*args):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            time.sleep(0.01)
            try:
                yield from real(*args)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(merging, "_merge_per_lam", slow_merge)
        [merged] = merge_transformer(recipe, *self.maps(8), jobs=jobs)
        assert sorted(merged) == sorted(f"t{i}" for i in range(8))
        assert 1 <= peak[0] <= jobs

    def test_a_failing_worker_stops_the_call_and_the_others(self, monkeypatch):
        recipe = MergeRecipe(LINEAR, lam=0.5)
        merged_names = []
        real = merging._merge_per_lam

        def failing_merge(variants, name, *args):
            if name == "t1":
                raise RuntimeError("worker failed")
            merged_names.append(name)
            yield from real(variants, name, *args)

        monkeypatch.setattr(merging, "_merge_per_lam", failing_merge)
        with pytest.raises(RuntimeError, match="worker failed"):
            merge_transformer(recipe, *self.maps(50), jobs=2)
        assert len(merged_names) < 49  # the others took few tensors after the failure


class TestRecipeValidation:
    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    @pytest.mark.parametrize("method,extra", [
        (MergeMethod.TASK_ARITHMETIC, {}),
        (MergeMethod.TIES, {"density": 0.4}),
        (MergeMethod.DARE_TASK_ARITHMETIC, {"density": 0.4, "seed": 9}),
        (MergeMethod.DARE_TIES, {"density": 0.4, "seed": 9}),
    ])
    def test_non_finite_lambda_rejected(self, method, extra, lam):
        with pytest.raises(RecipeError, match="lambda must be a finite number >= 0"):
            MergeRecipe(method, lam=lam, **extra)
