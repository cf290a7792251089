"""The merge kernel for the shared transformer weights.

``merge_transformer`` merges the shared transformer tensors of the base model
and the two fine-tuned models per a validated ``MergeRecipe``, at one lambda
or several. It checks each lambda and the tensor alignment once, then maps
``_merge_per_lam``, the one implementation of every merge rule, over the
tensor names; that generator computes the part of the rule that does not
depend on lambda once and applies each lambda to it. A task vector is
fine-tuned weights minus base weights. Five strategies are supported:

* linear            -- elementwise weighted average of the two fine-tuned models
* task-arithmetic   -- base weights plus the scaled sum of both task vectors
* ties              -- magnitude-trim each task vector, elect a per-element
                       sign by total magnitude, average sign-matching survivors
* dare-task-arithmetic / dare-ties
                    -- random-drop task-vector entries with probability 1 - d
                       and rescale survivors by 1/d before combining

The inputs are storage views and each output has its lvlm input's storage
dtype; all arithmetic runs in float32 in between: the inputs are widened into
a workspace of reused buffers, and every step runs in place there.
Randomness is counter-based: the value drawn for element ``i`` of a tensor is
a pure function of (seed, origin tag, tensor name, i), so results do not
depend on iteration order or worker count. Element ``i`` survives the drop
when its draw, a 53-bit uniform on [0, 1), is below d; the test is made on the
draw's integer bits.
"""

from __future__ import annotations

import hashlib
import math
import os
import queue
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import RecipeError, VlrmergeError
from .tensorstore import Dtype, Tensor, narrow, widen

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


class _Workspace:
    """One worker's float32, uint32 and bool buffers, reused from tensor to tensor.

    Each slot is allocated on first use with room for ``capacity`` elements;
    a request hands out the first ``n`` of them.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._slots: dict[str, np.ndarray] = {}

    def get(self, slot: str, n: int, dtype=np.float32) -> np.ndarray:
        buffer = self._slots.get(slot)
        if buffer is None:
            buffer = self._slots[slot] = np.empty(self.capacity, dtype=dtype)
        return buffer[:n]


def _merge_per_lam(
    recipe: MergeRecipe,
    lams: Sequence[float],
    name: str,
    pre: np.ndarray,
    lvlm: np.ndarray,
    rm: np.ndarray,
    space: _Workspace,
) -> Iterator[np.ndarray]:
    """Merge one same-shaped tensor at each lam in ``lams`` in turn; ``recipe.lam`` is not used.

    ``name`` keys the DARE drop-mask random stream. ties and dare-ties scale
    the jointly merged delta by lam; dare-ties elects signs and takes the
    disjoint mean on the already-rescaled survivors. The inputs are widened
    into ``space`` and every step runs in place there. Each output is a flat
    float32 view into ``space`` that stays valid until the next one is asked
    for. The part of the rule that does not depend on lam -- the widened
    pair for linear, the merged task vector for the other methods -- is
    computed once, before the first output is yielded.
    """
    n = pre.size
    method, density = recipe.method, recipe.density
    lvlm = widen(np.ravel(lvlm), space.get("lvlm", n))
    rm = widen(np.ravel(rm), space.get("rm", n))
    if method is MergeMethod.LINEAR:
        for lam in lams:
            # exact identities at the endpoints, untouched by rounding
            if lam == 1.0:
                yield lvlm
            elif lam == 0.0:
                yield rm
            else:
                out, scaled = space.get("out", n), space.get("tmp", n)
                np.multiply(lam, lvlm, out=out)
                np.multiply(1.0 - lam, rm, out=scaled)
                yield np.add(out, scaled, out=out)
        return
    pre = widen(np.ravel(pre), space.get("pre", n))
    # the task vectors, then the merged delta, overwrite the fine-tuned weights
    delta = np.subtract(lvlm, pre, out=lvlm)
    tau_r = np.subtract(rm, pre, out=rm)
    if method is MergeMethod.TASK_ARITHMETIC:
        np.add(delta, tau_r, out=delta)
    else:
        if method is MergeMethod.TIES:
            _trim(delta, density, space)
            _trim(tau_r, density, space)
        else:
            _drop(delta, density, recipe.seed, "lvlm", name, space)
            _drop(tau_r, density, recipe.seed, "rm", name, space)
        if method is MergeMethod.DARE_TASK_ARITHMETIC:
            np.add(delta, tau_r, out=delta)
        else:
            _disjoint_mean(delta, tau_r, space)
    for lam in lams:
        if lam == 0.0:
            yield pre
        else:
            out = np.multiply(lam, delta, out=space.get("out", n))
            yield np.add(pre, out, out=out)


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
) -> list[dict[str, Tensor]]:
    """Merge the shared transformer weights per the recipe, once per lam.

    The input maps hold zero-copy storage views (``Tensor.array``; a float32
    array is the F32 view); they are only read. ``lams`` defaults to the
    recipe's own lam; the result holds one map per lam, in order. Checks the
    recipe at every lam and the tensor alignment once, then merges every name
    on ``jobs`` worker threads (None takes ``default_jobs()``). Each worker
    widens a tensor's three inputs into its own workspace, at most about
    eight float32 copies of the largest tensor, runs the rule there, and
    narrows every lam's output straight into that output's payload, of the
    storage dtype of the tensor's lvlm view (``Dtype.of``). Workspaces are
    reused from tensor to tensor and freed when the call returns, so its
    memory is the outputs plus jobs workspaces. Tensors are independent, so
    results are identical for any worker count.
    """
    if jobs is not None and jobs < 1:
        raise VlrmergeError(f"jobs must be at least 1, got {jobs}")
    lams = (recipe.lam,) if lams is None else tuple(lams)
    for lam in lams:
        replace(recipe, lam=lam)  # building the recipe checks its lambda
    _check_aligned({"pre": pre_trans, "lvlm": lvlm_trans, "rm": rm_trans})
    capacity = max((arr.size for arr in pre_trans.values()), default=0)
    idle: queue.SimpleQueue[_Workspace] = queue.SimpleQueue()

    def merge_one(name: str) -> list[Tensor]:
        dtype = Dtype.of(lvlm_trans[name])
        shape = pre_trans[name].shape
        try:
            space = idle.get_nowait()
        except queue.Empty:  # at most one workspace per worker is ever made
            space = _Workspace(capacity)
        try:
            outs = _merge_per_lam(
                recipe, lams, name, pre_trans[name], lvlm_trans[name], rm_trans[name], space
            )
            scratch = space.get("bits", capacity, np.uint32)
            return [Tensor(name, dtype, shape, narrow(out, dtype, scratch)) for out in outs]
        finally:
            idle.put(space)

    names = list(pre_trans)
    with ThreadPoolExecutor(max_workers=jobs or default_jobs()) as pool:
        per_name = dict(zip(names, pool.map(merge_one, names)))
    return [{name: outs[i] for name, outs in per_name.items()} for i in range(len(lams))]


# ---------------------------------------------------------------------------
# in-place steps on flat float32 arrays, with temporaries from a workspace


def retained_count(density: float, n: int) -> int:
    """ceil(density * n), at least 1 when density > 0 and n > 0.

    The tiny nudge cancels binary-float noise so grid densities behave like the
    exact decimals they denote (0.2 * 100 keeps 20 entries, not 21).
    """
    if n == 0:
        return 0
    k = math.ceil(density * n - 1e-9)
    return min(max(k, 1), n)


def _trim(arr: np.ndarray, density: float, space: _Workspace) -> None:
    """Keep the ``retained_count`` entries of largest magnitude, zero the rest.

    The kept set is the first k of a stable sort on descending magnitude:
    equal magnitudes at the cut are kept in ascending flat-index order, and
    NaN ranks after every number. It is found by selection, not by sorting.
    """
    n = arr.size
    k = retained_count(density, n)
    if k >= n:
        return
    key, ranked = space.get("key", n), space.get("tmp", n)
    np.negative(np.abs(arr, out=key), out=key)
    np.copyto(ranked, key)
    ranked.partition(k - 1)
    cut = ranked[k - 1]
    keep, at_cut = space.get("keep", n, bool), space.get("at_cut", n, bool)
    if np.isnan(cut):
        # fewer than k numbers: all of them, then the first NaNs
        np.logical_not(np.isnan(key, out=at_cut), out=keep)
    else:
        np.less(key, cut, out=keep)
        np.equal(key, cut, out=at_cut)
    keep[np.flatnonzero(at_cut)[: k - np.count_nonzero(keep)]] = True
    _select(keep, arr)


def _select(keep: np.ndarray, arr: np.ndarray) -> None:
    """Zero ``arr`` (to +0.0) where not ``keep``, in place, by its bits.

    Same bytes as ``np.where(keep, arr, 0)``, NaN payloads and -0.0 included:
    each entry's bit pattern is multiplied by 1 or 0 as an integer, without
    the per-element branch that makes ``np.where`` slow on an irregular mask.
    """
    bits = arr.view(np.uint32)
    np.multiply(bits, keep, out=bits)


def _drop(arr: np.ndarray, density: float, seed: int, origin: str, name: str, space: _Workspace) -> None:
    """DARE in place: drop entries by the (seed, origin, name) stream, rescale survivors by 1/d."""
    if density == 1.0:
        return
    keep = _keep_mask(stream_key(seed, origin, name), arr.size, density, space.get("keep", arr.size, bool))
    np.multiply(arr, 1.0 / density, out=arr)
    _select(keep, arr)


_BLOCK = 1 << 16


def _disjoint_mean(a: np.ndarray, b: np.ndarray, space: _Workspace) -> None:
    """Write into ``a`` the mean of the nonzero entries of ``a`` and ``b`` that
    match the elected sign, 0 where none do; ``b`` is overwritten.

    The elected sign is + where the positive total magnitude wins, ties
    included. fmax/fmin skip NaN, so a NaN entry counts toward neither
    direction. Every step is elementwise, so the work runs ``_BLOCK``
    elements at a time: the temporaries stay in cache, and the bytes do not
    depend on the block size.
    """
    zero = np.float32(0.0)
    for start in range(0, a.size, _BLOCK):
        x, y = a[start : start + _BLOCK], b[start : start + _BLOCK]
        n = x.size
        pos, neg, tmp = space.get("key", n), space.get("out", n), space.get("tmp", n)
        np.add(np.fmax(x, zero, out=pos), np.fmax(y, zero, out=tmp), out=pos)
        np.add(np.fmin(x, zero, out=neg), np.fmin(y, zero, out=tmp), out=neg)
        up = np.greater_equal(pos, np.negative(neg, out=neg), out=space.get("up", n, bool))
        down = np.logical_not(up, out=space.get("down", n, bool))
        count = pos
        match, against = space.get("keep", n, bool), space.get("at_cut", n, bool)
        for i, arr in enumerate((x, y)):
            np.logical_and(up, np.greater(arr, zero, out=match), out=match)
            np.logical_and(down, np.less(arr, zero, out=against), out=against)
            np.logical_or(match, against, out=match)
            if i == 0:
                np.copyto(count, match)
            else:
                np.add(count, match, out=count)
            _select(match, arr)
        # where nothing matches, the total is 0 and so is the mean
        np.divide(np.add(x, y, out=x), np.maximum(count, np.float32(1.0), out=count), out=x)


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


def _keep_mask(key: int, n: int, density: float, out: np.ndarray) -> np.ndarray:
    """Drop-mask decisions for flat indices 0..n-1 of one stream; True keeps.

    Draw i mixes ``key + i * gamma`` through the splitmix64 finalizer, so any
    element's decision can be made independently of the others. Its top 53
    bits m stand for the uniform m * 2**-53, which is kept when below density.
    The test is made on the integer, m < ceil(density * 2**53), which is exact
    because scaling by 2**53 is exact in float64. The draws are made
    ``_MASK_CHUNK`` at a time, so no full-size integer temporary exists, and
    the decisions are written to ``out``, a bool array of n elements.
    """
    limit = np.uint64(math.ceil(density * 2.0**53))
    steps = np.arange(min(n, _MASK_CHUNK), dtype=np.uint64) * _MIX_GAMMA
    with np.errstate(over="ignore"):
        for start in range(0, n, _MASK_CHUNK):
            stop = min(start + _MASK_CHUNK, n)
            z = steps[: stop - start] + np.uint64((key + start * _GAMMA) % 2**64)
            z ^= z >> np.uint64(30)
            z *= _MIX_M1
            z ^= z >> np.uint64(27)
            z *= _MIX_M2
            z ^= z >> np.uint64(31)
            np.less(z >> np.uint64(11), limit, out=out[start:stop])
    return out

