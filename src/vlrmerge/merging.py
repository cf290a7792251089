"""The merge kernel for the shared transformer weights.

``merge_tensor`` is the one implementation of every merge rule: it merges a
single tensor of the base model and the two fine-tuned models per a validated
``MergeRecipe``. ``merge_transformer`` validates the recipe and the tensor
alignment once, then maps ``merge_tensor`` over the tensor names. A task
vector is fine-tuned weights minus base weights. Five strategies are
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
order or worker count.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import RecipeError, VlrmergeError

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

    def validate(self) -> None:
        problems = []
        if self.method is MergeMethod.LINEAR:
            if not 0.0 <= self.lam <= 1.0:
                problems.append(f"lambda must be in [0, 1] for {self.method.value}, got {self.lam}")
        elif self.lam < 0.0:
            problems.append(f"lambda must be >= 0, got {self.lam}")
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
    pre, lvlm, rm = _as_f32(pre), _as_f32(lvlm), _as_f32(rm)
    method, lam, density = recipe.method, recipe.lam, recipe.density
    if method is MergeMethod.LINEAR:
        return _linear_array(lvlm, rm, lam)
    tau_l = lvlm - pre
    tau_r = rm - pre
    if method is MergeMethod.TASK_ARITHMETIC:
        return _apply_delta(pre, tau_l + tau_r, lam)
    if method is MergeMethod.TIES:
        a = _trim_array(tau_l, density)
        b = _trim_array(tau_r, density)
    else:
        a = _dare_array(tau_l, density, recipe.seed, "lvlm", name)
        b = _dare_array(tau_r, density, recipe.seed, "rm", name)
        if method is MergeMethod.DARE_TASK_ARITHMETIC:
            return _apply_delta(pre, a + b, lam)
    return _apply_delta(pre, _disjoint_arrays(a, b, _elect_arrays(a, b)), lam)


def merge_transformer(
    recipe: MergeRecipe,
    pre_trans: TensorMap,
    lvlm_trans: TensorMap,
    rm_trans: TensorMap,
    jobs: int | None = None,
) -> TensorMap:
    """Merge the shared transformer weights per the recipe.

    Validates the recipe and the tensor alignment once, then applies
    ``merge_tensor`` to every name. Tensors are independent, so they are
    processed in parallel when jobs > 1; results are identical for any worker
    count.
    """
    recipe.validate()
    _check_aligned({"pre": pre_trans, "lvlm": lvlm_trans, "rm": rm_trans})

    def merge_one(name: str) -> np.ndarray:
        return merge_tensor(recipe, name, pre_trans[name], lvlm_trans[name], rm_trans[name])

    names = list(pre_trans)
    if jobs is not None and jobs <= 1:
        return {name: merge_one(name) for name in names}
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = pool.map(merge_one, names)
        return dict(zip(names, results))


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
    flat = arr.ravel()
    k = retained_count(density, flat.size)
    if k >= flat.size:
        return arr.copy()
    # stable sort on descending magnitude keeps the lower flat index on ties
    order = np.argsort(-np.abs(flat), kind="stable")
    out = np.zeros_like(flat)
    keep = order[:k]
    out[keep] = flat[keep]
    return out.reshape(arr.shape)


def _elect_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per element, the direction with the larger total magnitude; ties give +1."""
    pos = np.zeros(a.shape, dtype=np.float32)
    neg = np.zeros(a.shape, dtype=np.float32)
    for arr in (a, b):
        pos += np.where(arr > 0, arr, np.float32(0.0))
        neg += np.where(arr < 0, -arr, np.float32(0.0))
    return np.where(pos >= neg, np.float32(1.0), np.float32(-1.0))


def _disjoint_arrays(a: np.ndarray, b: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Mean of the nonzero, sign-matching values per element; 0 when none qualify."""
    total = np.zeros(a.shape, dtype=np.float32)
    count = np.zeros(a.shape, dtype=np.int32)
    for arr in (a, b):
        match = ((arr > 0) & (sign > 0)) | ((arr < 0) & (sign < 0))
        total += np.where(match, arr, np.float32(0.0))
        count += match
    return np.divide(
        total,
        count.astype(np.float32),
        out=np.zeros_like(total),
        where=count > 0,
    )


# ---------------------------------------------------------------------------
# counter-based random stream for the drop masks

_MIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)


def stream_key(seed: int, origin: str, name: str) -> int:
    """64-bit stream key derived from (seed, origin tag, tensor name)."""
    digest = hashlib.sha256(
        b"dare\x00" + seed.to_bytes(8, "little") + b"\x00"
        + origin.encode("utf-8") + b"\x00" + name.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def element_uniforms(key: int, n: int) -> np.ndarray:
    """Uniform [0, 1) draws for flat indices 0..n-1 of one stream.

    Draw i mixes ``key + i * gamma`` through the splitmix64 finalizer, so any
    element's value can be produced independently of the others.
    """
    idx = np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(key) + idx * _MIX_GAMMA
        z ^= z >> np.uint64(30)
        z *= _MIX_M1
        z ^= z >> np.uint64(27)
        z *= _MIX_M2
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _dare_array(arr: np.ndarray, density: float, seed: int, origin: str, name: str) -> np.ndarray:
    if density == 1.0:
        return arr.copy()
    uniforms = element_uniforms(stream_key(seed, origin, name), arr.size)
    keep = (uniforms < density).reshape(arr.shape)
    return np.where(keep, arr * (1.0 / density), np.float32(0.0))
