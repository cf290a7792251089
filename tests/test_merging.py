import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

import reference as ref
from vlrmerge import (
    Checkpoint,
    Dtype,
    MergeMethod,
    MergeRecipe,
    NonFiniteWeightError,
    RecipeError,
    Tensor,
    VlrmergeError,
    merge_transformer,
    merging,
    read_checkpoint,
    write_checkpoint,
)
from vlrmerge.merging import (
    _BLOCK,
    _MASK_CHUNK,
    _Buffers,
    _cuts,
    _disjoint_mean,
    _keep_mask,
    _kernel_slots,
    _trim,
    retained_count,
)
from vlrmerge.sweep import DEFAULT_DENSITY_GRID
from vlrmerge.tensorstore import narrow

from helpers import drop_step, footprint, merge_one, trim_step

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
    """The trim step, run on a copy of ``values`` ``merging._BLOCK`` elements at a time."""
    out = np.array(values, dtype=np.float32)
    flat, block = out.reshape(-1), merging._BLOCK
    with _Buffers(_kernel_slots(flat.size, block, False)) as space:
        key = space.get("key", flat.size)
        np.abs(flat, out=key.view(np.float32))
        [trim] = _cuts(key, [density], space)
        del key  # no view into the buffers may outlive them
        for start in range(0, flat.size, block):
            if trim is not None:
                trim = _trim(flat[start : start + block], *trim, space)
    return out


def argsort_trim(values, density):
    """The trim as a full stable sort on descending magnitude: the rule the
    selection-based kernel must reproduce, tie order included."""
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


# +-inf stays: no input weight may hold one, but a task vector can, where
# the float32 difference of two finite weights overflows
SPECIALS = np.array([np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45, 0.5, -0.5, 1.0, -1.0], dtype=np.float32)


def trim_inputs(kind, rng, n=3000):
    if kind == "bf16":
        return bf16_rounded(rng.standard_normal(n).astype(np.float32) * np.float32(0.01))
    if kind == "halves":
        return (rng.integers(-6, 7, n) * 0.5).astype(np.float32)
    return rng.choice(SPECIALS, n)


def ties_untrimmed(tau_l, tau_r):
    """ties at density 1 and lam 1 on a zero base: the disjoint mean under the elected sign."""
    zeros = np.zeros(len(tau_l), dtype=np.float32)
    return merge(TIES, zeros, tau_l, tau_r, 1.0, density=1.0)


def disjoint_array(tau_l, tau_r):
    """The sign election and disjoint mean of two task vectors, run ``merging._BLOCK`` elements at a time."""
    a, b = (np.array(tau, dtype=np.float32) for tau in (tau_l, tau_r))  # copies: both are overwritten
    block = merging._BLOCK
    with _Buffers(_kernel_slots(0, block, False)) as space:
        for start in range(0, a.size, block):
            _disjoint_mean(a[start : start + block], b[start : start + block], space)
    return a


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

    @pytest.mark.parametrize("block", [_BLOCK, 97])
    @pytest.mark.parametrize("density", DEFAULT_DENSITY_GRID + (1.0,))
    @pytest.mark.parametrize("kind", ["bf16", "halves", "specials"])
    def test_bytes_match_stable_argsort(self, rng, monkeypatch, kind, density, block):
        # 97 splits the 3000 entries into blocks, so the ties at the cut are counted across them
        monkeypatch.setattr(merging, "_BLOCK", block)
        values = trim_inputs(kind, rng)
        out = trim_array(values, density)
        assert out.tobytes() == argsort_trim(values, density).tobytes()

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
    # every pairing of +-inf, +-0.0, subnormals and equal magnitudes; the
    # steps are called directly, since the merge rejects an infinite input
    TAU_L, TAU_R = np.repeat(SPECIALS, len(SPECIALS)), np.tile(SPECIALS, len(SPECIALS))

    def expected(self):
        # density 1 trims nothing, and lam 1 on a zero base leaves the merged delta as it is
        return arr(ref.ties([0.0] * self.TAU_L.size, self.TAU_L.tolist(), self.TAU_R.tolist(), 1.0, 1.0))

    def test_bytes_match_scalar_loop_on_every_pair(self):
        assert disjoint_array(self.TAU_L, self.TAU_R).tobytes() == self.expected().tobytes()

    def test_bytes_do_not_depend_on_block_size(self, monkeypatch):
        # 7 splits the pairs into many blocks and leaves a partial one at the end
        assert self.TAU_L.size % 7
        monkeypatch.setattr(merging, "_BLOCK", 7)
        assert disjoint_array(self.TAU_L, self.TAU_R).tobytes() == self.expected().tobytes()

    def test_the_sign_elected_by_a_at_least_minus_b_is_that_of_the_summed_magnitudes(self):
        # the positive parts' sum against the negative parts', on every pairing of zeros of either sign,
        # exact cancellations, sums past float32's range and infinities: every sign case of the two
        values = np.float32([0.0, 1.5, 3e38, np.inf, 2.0**-149])
        values = np.concatenate([values, -values])
        a, b = np.repeat(values, values.size), np.tile(values, values.size)
        assert set(zip(np.signbit(a), np.signbit(b))) == {(False, False), (False, True), (True, False), (True, True)}
        zero = np.float32(0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            summed = np.fmax(a, zero) + np.fmax(b, zero), np.fmin(a, zero) + np.fmin(b, zero)
            sign = np.where(summed[0] >= -summed[1], np.float32(1.0), np.float32(-1.0))
            keep_a, keep_b = a * sign > 0, b * sign > 0
            total = np.where(keep_a, a, zero) + np.where(keep_b, b, zero)
            expected = total / np.maximum(keep_a.astype(np.float32) + keep_b, np.float32(1.0))
            assert disjoint_array(a, b).tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("density", [1 / 3, 0.5, 0.999999, 1e-9])
    def test_keep_decisions_across_mask_chunks(self, density):
        # several whole mask chunks and a partial one
        n = 5 * _MASK_CHUNK + 123
        out = drop_step(np.ones(n, dtype=np.float32), density, seed=5, origin="rm", name="w.big")
        kept = out != 0
        expected = ref.keep_decisions(5, "rm", "w.big", n, density)
        # every decision, those on both sides of each chunk boundary included
        assert kept.tolist() == expected
        # a window that starts mid-chunk and crosses two chunk boundaries, drawn as a block is
        start, size = _MASK_CHUNK // 2 + 7, 2 * _MASK_CHUNK + 5
        key, window = ref.stream_key(5, "rm", "w.big"), np.empty(size, bool)
        with _Buffers(_kernel_slots(0, size, False)) as space:
            _keep_mask(key, start, density, window, space.get("draws"))
        assert window.tolist() == expected[start : start + size]

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

    @pytest.mark.parametrize("dtype", [Dtype.F32, Dtype.BF16])
    @pytest.mark.parametrize("method,extra", [
        (MergeMethod.LINEAR, {}),
        (MergeMethod.TIES, {"density": 0.4}),
        (MergeMethod.DARE_TIES, {"density": 0.4, "seed": 9}),
    ])
    def test_a_strided_view_merges_as_its_contiguous_copy_and_its_file(self, rng, tmp_path, method, extra, dtype):
        recipe = MergeRecipe(method, lam=0.7, **extra)

        def stored(*shape):
            return np.frombuffer(narrow(rng.uniform(-1, 1, shape), dtype), dtype.array_dtype).reshape(shape)

        # a transposed matrix and a vector of every other element: neither is contiguous
        views = [{"w": stored(9, 6).T, "v": stored(2 * _BLOCK + 6)[::2]} for _ in range(3)]
        assert not any(view.flags.c_contiguous for side in views for view in side.values())
        copies = [{name: np.ascontiguousarray(view) for name, view in side.items()} for side in views]
        opened = []
        for kind, side in zip(("pre", "lvlm", "rm"), copies):
            tensors = {name: Tensor(name, dtype, c.shape, c.tobytes()) for name, c in side.items()}
            write_checkpoint(Checkpoint(tensors), tmp_path / kind)
            opened.append(read_checkpoint(tmp_path / kind).tensors)
        want = merge_transformer(recipe, *copies, jobs=2)[0]
        for inputs in (views, opened):
            got = merge_transformer(recipe, *inputs, jobs=2)[0]
            assert {name: t.data for name, t in got.items()} == {name: t.data for name, t in want.items()}

    def test_a_float64_array_is_a_type_error(self):
        maps = [{"w": np.zeros(4, np.float32)} for _ in range(3)]
        maps[2]["w"] = np.zeros(4, np.float64)
        with pytest.raises(TypeError, match="a float64 array is not a storage view"):
            merge_transformer(MergeRecipe(LINEAR, lam=0.5), *maps, jobs=1)

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

    def test_no_variant_rejected(self):
        maps = [{"t": arr([1.0])} for _ in range(3)]
        with pytest.raises(RecipeError, match="^no variant was given"):
            merge_transformer(MergeRecipe(LINEAR, lam=0.5), *maps, variants=[])

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
    """Three float32 maps whose task vectors tie in magnitude at every grid cut and hold +-0.0 and subnormals."""
    halves = lambda: (rng.integers(-6, 7, n) * 0.5).astype(np.float32)  # noqa: E731
    pre, lvlm, rm = {}, {}, {}
    pre["ties"] = halves()
    lvlm["ties"], rm["ties"] = pre["ties"] + halves(), pre["ties"] + halves()
    pre["specials"] = np.zeros(n, np.float32)
    lvlm["specials"], rm["specials"] = (rng.choice(SPECIALS[np.isfinite(SPECIALS)], n) for _ in range(2))
    for side in (pre, lvlm, rm):
        side["small"] = arr([0.5, -0.0])  # k covers every entry at some densities, not at others
        side["ties"] = side["ties"].reshape(60, 50)
    return [pre, lvlm, rm]


def straddling_ties(rng, n=10007, boundary=4099):
    """Three float32 maps of one tensor: at density 0.4, each task vector's cut falls in a run of
    equal magnitudes whose kept part crosses flat index ``boundary``."""
    pre = (rng.integers(-6, 7, n) * 0.5).astype(np.float32)
    k = retained_count(0.4, n)
    sides = [pre]
    for run_start in (boundary - 49, boundary - 9):
        tau = np.full(n, 0.25, np.float32)
        run = np.arange(run_start, run_start + 300)
        tau[run] = 0.5
        # k - 100 magnitudes above the run, so its first 100 entries are kept
        tau[rng.choice(np.setdiff1d(np.arange(n), run), k - 100, replace=False)] = 1.0
        sides.append(pre + tau * rng.choice(arr([-1.0, 1.0]), n))
    return [{"straddle": side} for side in sides]


ALL_METHODS = [
    (MergeMethod.LINEAR, {}),
    (MergeMethod.TASK_ARITHMETIC, {}),
    (MergeMethod.TIES, {"density": 0.4}),
    (MergeMethod.DARE_TASK_ARITHMETIC, {"density": 0.4, "seed": 9}),
    (MergeMethod.DARE_TIES, {"density": 0.4, "seed": 9}),
]


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
    def test_float32_with_zeros_subnormals_and_ties_matches_one_call_per_recipe(self, rng, method, seed):
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

    def test_straddling_ties_cross_the_boundary(self, rng):
        pre, lvlm, rm = (side["straddle"] for side in straddling_ties(rng))
        for fine in (lvlm, rm):
            kept = argsort_trim(fine - pre, 0.4) != 0
            tied = np.abs(fine - pre) == 0.5
            assert kept[4098] and kept[4099] and tied[4098] and tied[4099]
            assert tied.sum() > (kept & tied).sum() > 0  # the cut splits the run

    @pytest.mark.parametrize("block", [7, 4099])
    @pytest.mark.parametrize("method,extra", ALL_METHODS)
    def test_bytes_do_not_depend_on_block_size(self, rng, monkeypatch, method, extra, block):
        # neither block size divides a tensor's size, so every tensor ends in a partial block
        maps = [{**side, **straddle} for side, straddle in zip(one_pass_inputs(rng), straddling_ties(rng))]
        recipe = MergeRecipe(method, lam=0.7, **extra)
        if method.needs_density:
            grid = self.grid(method, recipe.seed, rng)
        else:
            grid = [replace(recipe, lam=lam) for lam in (0.0, 0.5, 1.0)]
        for variants in ([recipe], grid):
            expected = merge_transformer(recipe, *maps, jobs=2, variants=variants)
            with monkeypatch.context() as patch:
                patch.setattr(merging, "_BLOCK", block)
                blocked = merge_transformer(recipe, *maps, jobs=2, variants=variants)
            for variant, want, got in zip(variants, expected, blocked):
                for name in want:
                    assert got[name].data == want[name].data, (variant.slug(), name)


class TestWorkerBuffers:
    """A worker's buffers are one mapping, bounded by the largest tensor, and unmapped when the call returns."""

    @staticmethod
    def recorded(monkeypatch):
        made = []

        class Recorded(merging._Buffers):
            def __init__(self, *args):
                super().__init__(*args)
                self.size = len(self.mapping)
                made.append(self)

        monkeypatch.setattr(merging, "_Buffers", Recorded)
        return made

    def test_a_workers_buffers_allocate_nothing_beside_the_mapping(self):
        # the DARE mask's steps, i * gamma for each index of a chunk, are one table a process makes once
        tracemalloc.start()
        try:
            with _Buffers(_kernel_slots(0, _BLOCK, False)):
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, f"making a worker's buffers allocated {peak} bytes"

    @staticmethod
    def bf16_files(rng, tmp_path, n):
        shapes = {"big": (n,), "small": (3, 5)}
        for kind in ("pre", "lvlm", "rm"):
            tensors = {name: Tensor.from_f32(name, rng.standard_normal(shape) * 0.05, Dtype.BF16)
                       for name, shape in shapes.items()}
            write_checkpoint(Checkpoint(tensors), tmp_path / f"{kind}.safetensors")
        # opened header-only, so each payload is staged in a worker's buffers
        return [read_checkpoint(tmp_path / f"{kind}.safetensors").tensors for kind in ("pre", "lvlm", "rm")]

    @staticmethod
    def grid(recipe):
        """A 3 lambda x 4 density grid for a method that takes a density, else eleven lambdas."""
        if recipe.method.needs_density:
            return [replace(recipe, lam=lam, density=d) for lam in (0.5, 0.7, 1.0) for d in DEFAULT_DENSITY_GRID]
        return [replace(recipe, lam=lam / 10) for lam in range(11)]

    @pytest.mark.parametrize("method,extra", ALL_METHODS)
    def test_mapping_holds_the_block_slots_and_the_ties_key(self, rng, tmp_path, monkeypatch, method, extra):
        n = 3 * _BLOCK + 5
        opened = self.bf16_files(rng, tmp_path, n)
        made = self.recorded(monkeypatch)
        recipe = MergeRecipe(method, lam=0.7, **extra)
        merge_transformer(recipe, *opened, jobs=2)
        # no payload is staged and no output kept: block-sized slots, and TIES's uint32 ranking key
        bound = (4 * n if method is TIES else 0) + 42 * _BLOCK
        assert len(made) == 2
        for buffers in made:
            assert buffers.mapping.closed
            assert buffers.size <= bound

    @pytest.mark.parametrize("storage", ["bf16-files", "f32-views"])
    @pytest.mark.parametrize("method,extra", ALL_METHODS)
    def test_each_mapping_is_the_footprint_and_the_blocks_tile_each_payload(
        self, rng, tmp_path, monkeypatch, method, extra, storage
    ):
        opened = self.bf16_files(rng, tmp_path, 3 * _BLOCK + 5)
        if storage == "f32-views":
            opened = [{name: t.to_f32() for name, t in side.items()} for side in opened]
        recipe = MergeRecipe(method, lam=0.7, **extra)
        variants = self.grid(recipe)
        made = self.recorded(monkeypatch)
        lock, spans, copies = threading.Lock(), {}, {}

        def sink(i, name, block, at):
            with lock:
                spans.setdefault((i, name), []).append((at, len(block)))
                copies.setdefault((i, name), bytearray(opened[1][name].nbytes))[at : at + len(block)] = block

        merge_transformer(recipe, *opened, jobs=2, variants=variants, sink=sink)
        assert len(made) == 2
        assert [buffers.size for buffers in made] == [footprint(variants, opened[0])] * 2
        kept = merge_transformer(recipe, *opened, jobs=2, variants=variants)
        assert spans.keys() == {(i, name) for i in range(len(variants)) for name in opened[0]}
        for (i, name), pieces in spans.items():
            payload = kept[i][name].data
            # in order, each from where the last ended, none longer than a block, together the whole payload
            assert [at for at, _ in pieces] == list(itertools.accumulate((size for _, size in pieces[:-1]), initial=0))
            assert max(size for _, size in pieces) <= _BLOCK * kept[i][name].dtype.itemsize
            assert sum(size for _, size in pieces) == len(payload)
            assert copies[i, name] == payload, (variants[i].slug(), name)

    def test_a_block_kept_past_the_sink_cannot_be_read(self, rng, monkeypatch):
        # the next block overwrites the last: a kept view must fail, not read it
        monkeypatch.setattr(merging, "_BLOCK", 64)
        maps = [{"t": rng.standard_normal(300).astype(np.float32)} for _ in range(3)]
        recipe = MergeRecipe(TIES, lam=0.5, density=0.4)
        variants = [replace(recipe, lam=lam, density=d) for lam in (0.5, 1.0) for d in (0.4, 0.8)]
        kept, copies = [], [bytearray(300 * 4) for _ in variants]

        def sink(i, name, block, at):
            kept.append(block)
            copies[i][at : at + len(block)] = block

        merge_transformer(recipe, *maps, jobs=1, variants=variants, sink=sink)
        assert len(kept) == 4 * 5  # five blocks of each of the four variants
        for block in kept:
            with pytest.raises(ValueError, match="released memoryview"):
                bytes(block)
        merged = merge_transformer(recipe, *maps, jobs=1, variants=variants)
        assert [bytes(copy) for copy in copies] == [bytes(out["t"].data) for out in merged]

    @pytest.mark.parametrize("method,extra", ALL_METHODS)
    def test_the_footprint_does_not_grow_with_the_largest_tensor_but_by_the_ties_key(self, method, extra):
        recipe = MergeRecipe(method, lam=0.7, **extra)
        for variants in ([recipe], self.grid(recipe)):
            footprints = []
            for n in (16 * _BLOCK, 128 * _BLOCK):
                # read-only views of one zero: the footprint reads the shapes alone
                maps = [{"big": np.broadcast_to(np.float32(0), (n,)), "small": np.zeros(5, np.float32)}
                        for _ in range(3)]
                footprints.append(footprint(variants, maps[0]))
            # eight times the elements: only TIES's key grows, by its four bytes per element
            assert footprints[1] - footprints[0] == (4 * 112 * _BLOCK if method is TIES else 0)

    @pytest.mark.parametrize("failing", ["kernel", "sink"])
    def test_mapping_is_closed_after_a_worker_raises(self, rng, tmp_path, monkeypatch, failing):
        opened = self.bf16_files(rng, tmp_path, 3 * _BLOCK + 5)
        made = self.recorded(monkeypatch)
        sink = None
        if failing == "kernel":  # raised in the kernel's frame, which holds views into the buffers
            real, calls = merging.narrow, []

            def narrow(*args, **kwargs):
                calls.append(len(calls))
                if len(calls) == 2:
                    raise MemoryError("no room")
                return real(*args, **kwargs)

            monkeypatch.setattr(merging, "narrow", narrow)
        else:  # raised while the kernel waits at a yield

            def sink(i, name, block, at):
                raise MemoryError("no room")

        recipe = MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.4, seed=9)
        with pytest.raises(MemoryError, match="no room"):
            merge_transformer(recipe, *opened, jobs=2, sink=sink)
        assert made and all(buffers.mapping.closed for buffers in made)


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


    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_the_first_failing_item_is_reported_whatever_the_worker_count(self, jobs):
        def work(item, _):
            if item == 1:
                time.sleep(0.05)  # the later items fail first on the other workers
                raise RuntimeError("item 1 failed")
            if item > 1:
                raise RuntimeError(f"item {item} failed")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                with pytest.raises(RuntimeError, match="^item 1 failed$"):
                    merging.run_workers(range(64), jobs, work, nullcontext)
        finally:
            sys.setswitchinterval(interval)
        assert self.merge_threads() == []

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


# each method with each model it reads: linear never reads pre
READ_BY_METHOD = [
    pytest.param(method, extra, model, id=f"{method.value}-{model}")
    for method, extra in ALL_METHODS
    for model in ("pre", "lvlm", "rm")
    if not (method is LINEAR and model == "pre")
]


class TestNonFiniteWeights:
    """A NaN or infinity in an input a method reads is a NonFiniteWeightError, raised before any arithmetic on it."""

    SHAPES = {"a": (3, 5), "b": (40,)}

    def maps(self, rng, model, value):
        maps = {
            kind: {name: rng.uniform(-1, 1, shape).astype(np.float32) for name, shape in self.SHAPES.items()}
            for kind in ("pre", "lvlm", "rm")
        }
        maps[model]["b"][[29, 33]] = value  # the error names the first
        return [maps[kind] for kind in ("pre", "lvlm", "rm")]

    @staticmethod
    def bf16_files(tmp_path, maps):
        opened = []
        for kind, side in zip(("pre", "lvlm", "rm"), maps):
            write_checkpoint(Checkpoint({n: Tensor.from_f32(n, a, Dtype.BF16) for n, a in side.items()}),
                             tmp_path / f"{kind}.safetensors")
            # opened header-only, so each payload is checked where a worker stages it
            opened.append(read_checkpoint(tmp_path / f"{kind}.safetensors").tensors)
        return opened

    # a RuntimeWarning before the error would fail the test: the suite turns warnings into errors
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("method,extra,model", READ_BY_METHOD)
    @pytest.mark.parametrize("storage", ["f32-views", "bf16-files"])
    def test_rejected_by_model_tensor_and_index(self, rng, tmp_path, storage, method, extra, model, value):
        maps = self.maps(rng, model, value)
        if storage == "bf16-files":
            maps = self.bf16_files(tmp_path, maps)
        recipe = MergeRecipe(method, lam=0.7, **extra)
        message = f"^{model} tensor 'b' holds a non-finite weight at flat index 29$"
        with pytest.raises(NonFiniteWeightError, match=message):
            merge_transformer(recipe, *maps, jobs=2)

    @pytest.mark.parametrize("method,extra,model", READ_BY_METHOD)
    def test_one_value_past_the_first_block_is_named_alike_at_any_worker_count(
        self, rng, tmp_path, monkeypatch, method, extra, model
    ):
        # blocks of 7: index 29 of "b" lies in its fifth block, read from the file
        monkeypatch.setattr(merging, "_BLOCK", 7)
        maps = self.maps(rng, model, np.nan)
        maps[("pre", "lvlm", "rm").index(model)]["b"][33] = 0.5  # the NaN at 29 is the only one
        opened = self.bf16_files(tmp_path, maps)
        recipe = MergeRecipe(method, lam=0.7, **extra)
        if method.needs_density:
            variants = [replace(recipe, lam=lam, density=d) for lam in (0.5, 1.0) for d in (0.4, 0.8)]
        else:
            variants = [replace(recipe, lam=lam) for lam in (0.5, 1.0)]
        message = f"^{model} tensor 'b' holds a non-finite weight at flat index 29$"
        for jobs in (1, 2):
            with pytest.raises(NonFiniteWeightError, match=message):
                merge_transformer(recipe, *opened, jobs=jobs, variants=variants)

    def test_ties_checks_each_input_block_once(self, rng, monkeypatch):
        # blocks of 7: "a" is 3 blocks and "b" 6. The ranking keys check pre and each fine-tuned model;
        # the block pass reads all three again and checks none. Each variant's output block is checked once.
        monkeypatch.setattr(merging, "_BLOCK", 7)
        real, callers = merging.first_non_finite, []

        def spy(view, scratch):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(view, scratch)

        monkeypatch.setattr(merging, "first_non_finite", spy)
        recipe = MergeRecipe(TIES, lam=0.7, density=0.4)
        variants = [replace(recipe, lam=lam, density=d) for lam in (0.5, 1.0) for d in (0.4, 0.8)]
        merge_transformer(recipe, *self.maps(rng, "pre", 0.5), jobs=1, variants=variants)
        assert callers.count("_widened") == 3 * 9
        assert callers.count("_narrowed") == len(variants) * 9

    def test_opposite_infinite_task_vectors_under_task_arithmetic(self):
        # +inf and -inf task vectors at one position: their sum used to warn "invalid value"
        with pytest.raises(NonFiniteWeightError, match="^lvlm tensor 't' holds a non-finite weight at flat index 1$"):
            merge_map(MergeRecipe(TA, lam=0.5), [0.0, 1.0], [0.5, np.inf], [0.5, -np.inf])

    def test_linear_never_reads_pre(self, rng):
        pre, lvlm, rm = self.maps(rng, "pre", np.nan)
        recipe = MergeRecipe(LINEAR, lam=0.7)
        [merged] = merge_transformer(recipe, pre, lvlm, rm, jobs=2)
        [finite] = merge_transformer(recipe, {n: np.zeros_like(a) for n, a in pre.items()}, lvlm, rm, jobs=2)
        assert all(merged[name].data == finite[name].data for name in self.SHAPES)


BF16_MAX = float(np.uint32(0x7F7F0000).view(np.float32))


class TestNonFiniteOutputs:
    """A finite input that merges to a NaN or infinity is a NonFiniteWeightError naming the variant, the tensor
    and the flat index; no RuntimeWarning comes first, which the suite would turn into an error."""

    @staticmethod
    def message(recipe, index):
        return f"^{recipe.slug()} tensor 't' merges to a non-finite weight at flat index {index}$"

    def test_task_arithmetic_sum_of_task_vectors_overflows(self):
        recipe = MergeRecipe(TA, lam=1.0)
        with pytest.raises(NonFiniteWeightError, match=self.message(recipe, 2)):
            merge_map(recipe, [0.0] * 4, [1.0, 1.0, 2e38, 2e38], [1.0, 1.0, 2e38, 2e38])

    def test_a_finite_float32_sum_that_rounds_past_the_bf16_maximum(self):
        # 0x7F7F0000 plus 1.5 * 2**119 is finite in float32, but above the midpoint to 0x7F80, +inf in BF16
        recipe = MergeRecipe(TA, lam=1.0)
        pre, lvlm, rm = ({"t": Tensor.from_f32("t", arr(values), Dtype.BF16).array()} for values in (
            [0.0, 0.0, 0.0], [1.0, BF16_MAX, 1.0], [1.0, 1.5 * 2.0**119, 1.0]))
        assert np.isfinite(np.float32(BF16_MAX) + np.float32(1.5 * 2.0**119))
        with pytest.raises(NonFiniteWeightError, match=self.message(recipe, 1)):
            merge_transformer(recipe, pre, lvlm, rm)

    def test_ties_task_vector_overflows(self):
        # |lvlm - pre| is above the float32 maximum: an infinite task vector, kept by the trim as the largest
        recipe = MergeRecipe(TIES, lam=0.5, density=0.5)
        with pytest.raises(NonFiniteWeightError, match=self.message(recipe, 3)):
            merge_map(recipe, [0.0, 0.0, 0.0, -3e38], [0.5, 0.0, 0.0, 3e38], [0.0, 0.0, 0.0, -3e38])

    @pytest.mark.parametrize("method", [MergeMethod.DARE_TASK_ARITHMETIC, MergeMethod.DARE_TIES])
    def test_dare_rescaled_task_vector_overflows(self, method):
        # |tau| / d is above the float32 maximum wherever an entry survives: under dare-task-arithmetic
        # +inf and -inf meet at a position both keep, and their sum is NaN
        n, recipe = 64, MergeRecipe(method, lam=0.7, density=0.4, seed=1)
        lvlm, rm = [3e38] * n, [-3e38 if method is MergeMethod.DARE_TASK_ARITHMETIC else 3e38] * n
        kept = [ref.keep_decisions(1, origin, "t", n, 0.4) for origin in ("lvlm", "rm")]
        if method is MergeMethod.DARE_TASK_ARITHMETIC:
            assert any(a and b for a, b in zip(*kept))
        first = next(i for i, (a, b) in enumerate(zip(*kept)) if a or b)
        with pytest.raises(NonFiniteWeightError, match=self.message(recipe, first)):
            merge_map(recipe, [0.0] * n, lvlm, rm)

    def test_the_error_names_the_variant_of_a_grid_and_the_index_past_the_first_block(self, monkeypatch):
        monkeypatch.setattr(merging, "_BLOCK", 7)
        recipe = MergeRecipe(TA, lam=0.0)
        lvlm = np.ones(20, np.float32)
        lvlm[16] = 3e38
        variants = [replace(recipe, lam=lam) for lam in (0.0, 0.5, 1.0)]  # the summed task vectors overflow
        with pytest.raises(NonFiniteWeightError, match=self.message(variants[1], 16)):
            merge_transformer(recipe, {"t": np.zeros(20, np.float32)}, {"t": lvlm}, {"t": lvlm.copy()},
                              variants=variants, jobs=1)
