"""The merge kernel for the shared transformer weights.

``merge_tensor`` merges a single tensor of the base model and the two
fine-tuned models per a validated ``MergeRecipe``. It is the one-lambda form of
``_merge_per_lam``, the one implementation of every merge rule, which computes
the part of the rule that does not depend on lambda once and applies each of
several lambdas to it. ``merge_transformer`` checks each lambda and the
tensor alignment once, then maps ``_merge_per_lam`` over the tensor names. A
task vector is fine-tuned weights minus base weights. Five strategies are
supported:

* linear            -- elementwise weighted average of the two fine-tuned models
* task-arithmetic   -- base weights plus the scaled sum of both task vectors
* ties              -- magnitude-trim each task vector, elect a per-element
                       sign by total magnitude, average sign-matching survivors
* dare-task-arithmetic / dare-ties
                    -- random-drop task-vector entries with probability 1 - d
                       and rescale survivors by 1/d before combining

All arithmetic runs in float32 regardless of storage dtype. Randomness is
counter-based: the value drawn for element ``i`` of a tensor is a pure function
of (seed, origin tag, tensor name, i), so results do not depend on iteration
order or worker count. Element ``i`` survives the drop when its draw, a 53-bit
uniform on [0, 1), is below d; the test is made on the draw's integer bits.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import RecipeError, VlrmergeError
from .tensorstore import Dtype, Tensor

TensorMap = dict[str, np.ndarray]


class MergeMethod(str, Enum):
    LINEAR = "linear"
    TASK_ARITHMETIC = "task-arithmetic"
    TIES = "ties"
    DARE_TASK_ARITHMETIC = "dare-task-arithmetic"
    DARE_TIES = "dare-ties"

    @property
    def needs_density(self) -> bool:
        return self in (MergeMethod.TIES, MergeMethod.DARE_TASK_ARITHMETIC, MergeMethod.DARE_TIES)

    @property
    def needs_seed(self) -> bool:
        return self in (MergeMethod.DARE_TASK_ARITHMETIC, MergeMethod.DARE_TIES)


@dataclass(frozen=True)
class MergeRecipe:
    """One point in the sweep grid: method plus its hyperparameters."""

    method: MergeMethod
    lam: float
    density: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        # every recipe is checked once, when it is made
        problems = []
        if self.method is MergeMethod.LINEAR:
            if not 0.0 <= self.lam <= 1.0:
                problems.append(f"lambda must be in [0, 1] for {self.method.value}, got {self.lam}")
        elif not (math.isfinite(self.lam) and self.lam >= 0.0):
            problems.append(f"lambda must be a finite number >= 0, got {self.lam}")
        if self.method.needs_density:
            if self.density is None:
                problems.append(f"--density is required for method {self.method.value}")
            elif not 0.0 < self.density <= 1.0:
                problems.append(f"density must be in (0, 1], got {self.density}")
        elif self.density is not None:
            problems.append(f"--density is not accepted for method {self.method.value}")
        if self.method.needs_seed:
            if self.seed is None:
                problems.append(f"--seed is required for method {self.method.value}")
            elif not 0 <= self.seed < 2**64:
                problems.append("seed must be an unsigned 64-bit integer")
        if problems:
            raise RecipeError("; ".join(problems))

    def slug(self) -> str:
        parts = [self.method.value, f"l{self.lam:g}"]
        if self.density is not None:
            parts.append(f"d{self.density:g}")
        if self.seed is not None:
            parts.append(f"s{self.seed}")
        return "-".join(parts)


def _check_aligned(named_maps: dict[str, TensorMap]) -> None:
    items = list(named_maps.items())
    first_label, first = items[0]
    names = set(first)
    for label, other in items[1:]:
        if set(other) != names:
            missing = sorted(names ^ set(other))
            raise VlrmergeError(
                f"tensor name mismatch between {first_label} and {label}: {missing[:5]}"
            )
        for name in names:
            if first[name].shape != other[name].shape:
                raise VlrmergeError(
                    f"shape mismatch for {name}: {first_label} {first[name].shape} "
                    f"vs {label} {other[name].shape}"
                )


def merge_tensor(
    recipe: MergeRecipe, name: str, pre: np.ndarray, lvlm: np.ndarray, rm: np.ndarray
) -> np.ndarray:
    """Merge one same-shaped tensor of the three models per a validated recipe.

    Returns float32. ``name`` keys the DARE drop-mask random stream. ties and
    dare-ties scale the jointly merged delta by a single lam; dare-ties elects
    signs and takes the disjoint mean on the already-rescaled survivors.
    """
    return next(_merge_per_lam(recipe, (recipe.lam,), name, pre, lvlm, rm))


def _merge_per_lam(
    recipe: MergeRecipe,
    lams: Sequence[float],
    name: str,
    pre: np.ndarray,
    lvlm: np.ndarray,
    rm: np.ndarray,
) -> Iterator[np.ndarray]:
    """``merge_tensor`` for each lam in ``lams`` in turn; ``recipe.lam`` is not used.

    The part of the rule that does not depend on lam -- the widened pair for
    linear, the merged task vector for the other methods -- is computed once,
    before the first output is yielded.
    """
    pre, lvlm, rm = _as_f32(pre), _as_f32(lvlm), _as_f32(rm)
    method, density = recipe.method, recipe.density
    if method is MergeMethod.LINEAR:
        for lam in lams:
            yield _linear_array(lvlm, rm, lam)
        return
    tau_l = lvlm - pre
    tau_r = rm - pre
    if method is MergeMethod.TASK_ARITHMETIC:
        delta = tau_l + tau_r
    else:
        if method is MergeMethod.TIES:
            a = _trim_array(tau_l, density)
            b = _trim_array(tau_r, density)
        else:
            a = _dare_array(tau_l, density, recipe.seed, "lvlm", name)
            b = _dare_array(tau_r, density, recipe.seed, "rm", name)
        if method is MergeMethod.DARE_TASK_ARITHMETIC:
            delta = a + b
        else:
            delta = _disjoint_arrays(a, b, _elect_arrays(a, b))
        del a, b
    # the generator is suspended between lams: keep only pre and delta alive
    del tau_l, tau_r
    for lam in lams:
        yield _apply_delta(pre, delta, lam)


def default_jobs() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def merge_transformer(
    recipe: MergeRecipe,
    pre_trans: TensorMap,
    lvlm_trans: TensorMap,
    rm_trans: TensorMap,
    jobs: int | None = None,
    lams: Sequence[float] | None = None,
    dtypes: dict[str, Dtype] | None = None,
) -> list[dict[str, Tensor]]:
    """Merge the shared transformer weights per the recipe, once per lam.

    ``lams`` defaults to the recipe's own lam; the result holds one map per
    lam, in order. Checks the recipe at every lam and the tensor alignment
    once, then merges every name on ``jobs`` worker threads (None takes
    ``default_jobs()``). A worker computes each tensor's lam-independent part
    once, every lam's output from it, and packs each output as a Tensor of its
    storage dtype, ``dtypes[name]`` (float32 when ``dtypes`` is None), so no
    float32 copy of a whole output exists. The call takes the three input
    maps over: each worker pops its tensor from them, so an input's memory is
    freed once it is merged, and the maps are empty on return. Tensors are
    independent, so results are identical for any worker count.
    """
    if jobs is not None and jobs < 1:
        raise VlrmergeError(f"jobs must be at least 1, got {jobs}")
    lams = (recipe.lam,) if lams is None else tuple(lams)
    for lam in lams:
        replace(recipe, lam=lam)  # building the recipe checks its lambda
    _check_aligned({"pre": pre_trans, "lvlm": lvlm_trans, "rm": rm_trans})

    def merge_one(name: str) -> list[Tensor]:
        dtype = Dtype.F32 if dtypes is None else dtypes[name]
        inputs = [trans.pop(name) for trans in (pre_trans, lvlm_trans, rm_trans)]
        outs = _merge_per_lam(recipe, lams, name, *inputs)
        return [Tensor.from_f32(name, out, dtype) for out in outs]

    names = list(pre_trans)
    per_name: dict[str, list[Tensor]] = {}
    with ThreadPoolExecutor(max_workers=jobs or default_jobs()) as pool:
        for name, outs in zip(names, pool.map(merge_one, names)):
            # copy each payload as it arrives, on this thread: the outputs then
            # outlive the call in this thread's heap, where consumed inputs were
            # freed, and the workers' allocator arenas hold only temporaries
            per_name[name] = [replace(out, data=bytes(memoryview(out.data))) for out in outs]
    return [{name: outs[i] for name, outs in per_name.items()} for i in range(len(lams))]


# ---------------------------------------------------------------------------
# per-array kernels (float32 in, float32 out)


def _as_f32(arr: np.ndarray) -> np.ndarray:
    return arr.astype(np.float32) if arr.dtype != np.float32 else arr


def _linear_array(lvlm: np.ndarray, rm: np.ndarray, lam: float) -> np.ndarray:
    # exact identities at the endpoints, untouched by rounding
    if lam == 1.0:
        return lvlm.copy()
    if lam == 0.0:
        return rm.copy()
    return lam * lvlm + (1.0 - lam) * rm


def _apply_delta(pre: np.ndarray, delta: np.ndarray, lam: float) -> np.ndarray:
    if lam == 0.0:
        return pre.copy()
    return pre + lam * delta


def retained_count(density: float, n: int) -> int:
    """ceil(density * n), at least 1 when density > 0 and n > 0.

    The tiny nudge cancels binary-float noise so grid densities behave like the
    exact decimals they denote (0.2 * 100 keeps 20 entries, not 21).
    """
    if n == 0:
        return 0
    k = math.ceil(density * n - 1e-9)
    return min(max(k, 1), n)


def _trim_array(arr: np.ndarray, density: float) -> np.ndarray:
    """Keep the ``retained_count`` entries of largest magnitude, zero the rest.

    The kept set is the first k of a stable sort on descending magnitude:
    equal magnitudes at the cut are kept in ascending flat-index order, and
    NaN ranks after every number. It is found by selection, not by sorting.
    """
    flat = arr.ravel()
    k = retained_count(density, flat.size)
    if k >= flat.size:
        return arr.copy()
    key = np.negative(np.abs(flat))
    cut = np.partition(key, k - 1)[k - 1]
    if np.isnan(cut):
        # fewer than k numbers: all of them, then the first NaNs
        at_cut = np.isnan(key)
        keep = ~at_cut
    else:
        keep = key < cut
        at_cut = key == cut
    keep[np.flatnonzero(at_cut)[: k - np.count_nonzero(keep)]] = True
    return _select(keep, flat).reshape(arr.shape)


def _select(keep: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """``arr`` where ``keep``, +0.0 elsewhere: ``np.where`` by a bit mask.

    Same bytes as ``np.where(keep, arr, 0)``, NaN payloads and -0.0 included,
    without the per-element branch that makes ``np.where`` slow on an
    irregular mask.
    """
    bits = np.negative(keep.astype(np.uint32))
    return (arr.view(np.uint32) & bits).view(np.float32)


def _elect_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per element, True where the positive total magnitude wins; ties elect +.

    fmax/fmin skip NaN, so a NaN entry counts toward neither direction.
    """
    zero = np.float32(0.0)
    pos = np.fmax(a, zero) + np.fmax(b, zero)
    neg = np.fmin(a, zero) + np.fmin(b, zero)
    return pos >= -neg


def _disjoint_arrays(a: np.ndarray, b: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Mean of the nonzero values that match the elected sign; 0 where none do."""
    down = ~up
    match_a = (up & (a > 0)) | (down & (a < 0))
    match_b = (up & (b > 0)) | (down & (b < 0))
    total = _select(match_a, a) + _select(match_b, b)
    count = np.add(match_a, match_b, dtype=np.float32)
    # where nothing matches, total is 0 and so is the mean
    return total / np.maximum(count, np.float32(1.0))


# ---------------------------------------------------------------------------
# counter-based random stream for the drop masks

_GAMMA = 0x9E3779B97F4A7C15
_MIX_GAMMA = np.uint64(_GAMMA)
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)
_MASK_CHUNK = 1 << 14


def stream_key(seed: int, origin: str, name: str) -> int:
    """64-bit stream key derived from (seed, origin tag, tensor name)."""
    digest = hashlib.sha256(
        b"dare\x00" + seed.to_bytes(8, "little") + b"\x00"
        + origin.encode("utf-8") + b"\x00" + name.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def _keep_mask(key: int, n: int, density: float) -> np.ndarray:
    """Drop-mask decisions for flat indices 0..n-1 of one stream; True keeps.

    Draw i mixes ``key + i * gamma`` through the splitmix64 finalizer, so any
    element's decision can be made independently of the others. Its top 53
    bits m stand for the uniform m * 2**-53, which is kept when below density.
    The test is made on the integer, m < ceil(density * 2**53), which is exact
    because scaling by 2**53 is exact in float64. The draws are made
    ``_MASK_CHUNK`` at a time, so no full-size integer temporary exists.
    """
    limit = np.uint64(math.ceil(density * 2.0**53))
    steps = np.arange(min(n, _MASK_CHUNK), dtype=np.uint64) * _MIX_GAMMA
    keep = np.empty(n, dtype=bool)
    with np.errstate(over="ignore"):
        for start in range(0, n, _MASK_CHUNK):
            stop = min(start + _MASK_CHUNK, n)
            z = steps[: stop - start] + np.uint64((key + start * _GAMMA) % 2**64)
            z ^= z >> np.uint64(30)
            z *= _MIX_M1
            z ^= z >> np.uint64(27)
            z *= _MIX_M2
            z ^= z >> np.uint64(31)
            np.less(z >> np.uint64(11), limit, out=keep[start:stop])
    return keep


def _dare_array(arr: np.ndarray, density: float, seed: int, origin: str, name: str) -> np.ndarray:
    if density == 1.0:
        return arr.copy()
    keep = _keep_mask(stream_key(seed, origin, name), arr.size, density).reshape(arr.shape)
    return _select(keep, arr * (1.0 / density))
