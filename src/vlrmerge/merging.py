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
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import RecipeError, VlrmergeError
from .tensorstore import Dtype, Tensor, narrow, widen

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


def _check_aligned(named_maps: dict[str, dict]) -> None:
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


Source = np.ndarray | Tensor  # a storage view, or a tensor whose payload is read when it is merged


def _widened(source: Source, out: np.ndarray, space: _Workspace) -> np.ndarray:
    """``source`` widened into ``out``, flat; a tensor is first read into ``space``'s staging buffer."""
    if isinstance(source, Tensor):
        # a float32 slot has room for the payload of any storage dtype
        source = source.load(space.get("staging", source.size))
    return widen(np.ravel(source), out)


def _merge_per_lam(
    recipe: MergeRecipe,
    lams: Sequence[float],
    name: str,
    pre: Source,
    lvlm: Source,
    rm: Source,
    space: _Workspace,
) -> Iterator[np.ndarray]:
    """Merge one same-shaped tensor at each lam in ``lams`` in turn; ``recipe.lam`` is not used.

    ``name`` keys the DARE drop-mask random stream. ties and dare-ties scale
    the jointly merged delta by lam; dare-ties elects signs and takes the
    disjoint mean on the already-rescaled survivors. The inputs are widened
    into ``space`` (linear never reads ``pre``) and every step runs in place
    there. Each output is a flat float32 view into ``space`` that stays
    valid until the next one is asked for. The part of the rule that does
    not depend on lam -- the widened pair for linear, the merged task vector
    for the other methods -- is computed once, before the first output is
    yielded.
    """
    n = pre.size
    method, density = recipe.method, recipe.density
    lvlm = _widened(lvlm, space.get("lvlm", n), space)
    rm = _widened(rm, space.get("rm", n), space)
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
    pre = _widened(pre, space.get("pre", n), space)
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


_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def _executor(workers: int) -> ThreadPoolExecutor:
    """The process's one thread pool, with room for at least ``workers`` threads.

    It is made on first use, not at import, and replaced by a larger one when
    a call asks for more threads than it has; work already handed to the old
    pool still runs to its end.
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < workers:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool, _pool_size = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="vlrmerge"), workers
        return _pool


def _forget_pool() -> None:
    # a forked child has none of its parent's threads, so it makes its own pool
    global _pool, _pool_size, _pool_lock
    _pool, _pool_size, _pool_lock = None, 0, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def merge_transformer(
    recipe: MergeRecipe,
    pre_trans: dict[str, Source],
    lvlm_trans: dict[str, Source],
    rm_trans: dict[str, Source],
    jobs: int | None = None,
    lams: Sequence[float] | None = None,
    sink: Callable[[int, Tensor], None] | None = None,
) -> list[dict[str, Tensor]] | None:
    """Merge the shared transformer weights per the recipe, once per lam.

    The input maps hold, per tensor name, a storage view (``Tensor.array``;
    a float32 array is the F32 view) or a ``Tensor``, whose payload is read
    from its file only when a worker merges it; inputs are only read.
    ``lams`` defaults to the recipe's own lam. Checks the recipe at every lam
    and the tensor alignment once, then merges every name on ``jobs``
    workers (None takes ``default_jobs()``): the calling thread and
    ``jobs - 1`` threads of the process's one pool, so at most ``jobs``
    tensors are in flight. Each worker reads and widens a tensor's inputs
    into its own workspace, at most about eight float32 copies of the
    largest tensor, runs the rule there, and narrows each lam's output into
    a new payload of the storage dtype of the tensor's lvlm input. With a ``sink``, the worker hands it each output at once as
    ``sink(lam_index, tensor)`` and keeps none, and the call returns None;
    without one, the outputs are returned, one map per lam, in order.
    Workspaces are reused from tensor to tensor and freed when the call
    returns. Tensors are independent, so results are identical for any
    worker count.
    """
    if jobs is not None and jobs < 1:
        raise VlrmergeError(f"jobs must be at least 1, got {jobs}")
    lams = (recipe.lam,) if lams is None else tuple(lams)
    for lam in lams:
        replace(recipe, lam=lam)  # building the recipe checks its lambda
    _check_aligned({"pre": pre_trans, "lvlm": lvlm_trans, "rm": rm_trans})
    capacity = max((source.size for source in pre_trans.values()), default=0)
    names = list(pre_trans)
    kept: dict[str, list[Tensor]] = {name: [] for name in names}
    emit = sink or (lambda i, tensor: kept[tensor.name].append(tensor))
    todo = iter(names)
    todo_lock = threading.Lock()
    stop = threading.Event()

    def merge_one(name: str, space: _Workspace) -> None:
        lvlm = lvlm_trans[name]
        dtype = lvlm.dtype if isinstance(lvlm, Tensor) else Dtype.of(lvlm)
        shape = pre_trans[name].shape
        outs = _merge_per_lam(recipe, lams, name, pre_trans[name], lvlm, rm_trans[name], space)
        scratch = space.get("bits", capacity, np.uint32)
        for i, out in enumerate(outs):
            emit(i, Tensor(name, dtype, shape, narrow(out, dtype, scratch)))

    def work() -> None:
        space = _Workspace(capacity)
        try:
            while not stop.is_set():
                with todo_lock:
                    name = next(todo, None)
                if name is None:
                    return
                merge_one(name, space)
        except BaseException:
            stop.set()  # the other workers take no further tensor
            raise

    # the calling thread is one of the workers, so jobs=1 hands nothing to the pool
    helpers = min(jobs or default_jobs(), len(names)) - 1
    futures = [_executor(helpers).submit(work) for _ in range(helpers)]
    try:
        work()
        for future in futures:
            future.result()
    finally:
        stop.set()
        wait(futures)  # no worker may outlive the call, on error too
    if sink is not None:
        return None
    return [{name: outs[i] for name, outs in kept.items()} for i in range(len(lams))]


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

