"""The merge kernel for the shared transformer weights.

``merge_transformer`` merges the shared transformer tensors of the base model
and the two fine-tuned models per validated ``MergeRecipe``s that share a
method and seed: one recipe, or every lambda and density of a sweep. It
checks the recipes and the tensor alignment once, then maps
``_merge_per_lam``, the one implementation of every merge rule, over the
tensor names; that generator reads each tensor's inputs once, computes the
part of the rule that does not depend on lambda once per density and
applies each lambda to it. A task vector is fine-tuned weights minus base
weights. Five strategies are supported:

* linear            -- elementwise weighted average of the two fine-tuned models
* task-arithmetic   -- base weights plus the scaled sum of both task vectors
* ties              -- magnitude-trim each task vector, elect a per-element
                       sign by total magnitude, average sign-matching survivors
* dare-task-arithmetic / dare-ties
                    -- random-drop task-vector entries with probability 1 - d
                       and rescale survivors by 1/d before combining

The inputs are tensors, in memory or read from their files, and each
output has its lvlm input's storage dtype; all arithmetic runs in float32 in
between, a block of elements at a time: each worker reads a block of each
input into its own block-sized buffers, widens it, runs every step in place
there and narrows the block into each output block. Only the TIES cut needs
the whole tensor, in one ranking key of magnitude bit patterns. A NaN or
infinity in an input that a method reads is rejected with
NonFiniteWeightError before any arithmetic reads that input's block.
Randomness is counter-based: the value drawn for element ``i`` of a tensor is
a pure function of (seed, origin tag, tensor name, i), so results do not
depend on iteration order or worker count. Element ``i`` survives the drop
when its draw, a 53-bit uniform on [0, 1), is below d; the test is made on the
draw's integer bits.
"""

from __future__ import annotations

import functools
import hashlib
import math
import mmap
import os
import threading
import traceback
from collections.abc import Callable, Iterator, Sequence
from contextlib import AbstractContextManager
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .components import alignment_problems
from .errors import NonFiniteWeightError, RecipeError, VlrmergeError
from .tensorstore import Dtype, Tensor, as_tensor, first_non_finite, narrow, widen

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


# Elements per step of the merge kernel. Measured at two workers: smaller
# blocks stay in a core's cache, but their many short numpy calls pass the
# interpreter lock back and forth between the workers.
_BLOCK = 1 << 17

Slots = dict[str, tuple[type, int]]  # each slot's dtype and element count


def _kernel_slots(key: int, block: int, grid: bool) -> Slots:
    """The slots of a merge worker's buffers; see ``_merge_per_lam``.

    ``key`` uint32 elements for TIES's ranking key, and room for ``block``
    elements in every other slot: ``storage`` holds a block in its storage
    dtype, each input block as it is read and then each output block as it
    is narrowed. ``tau_l`` and ``tau_r`` are empty unless the variants span
    several densities (``grid``). ``draws`` is the DARE mask's scratch (see
    ``_keep_mask``). The embedding blocks and the copies that follow the
    merge use the same slots (see ``embeddings._array``).
    """
    floats = ("pre", "lvlm", "rm", "out", "tmp", "neg")  # the widened inputs, the results and scratch
    return {
        "key": (np.uint32, key),
        **{slot: (np.float32, block) for slot in floats},
        **{slot: (np.float32, block if grid else 0) for slot in ("tau_l", "tau_r")},
        "storage": (np.uint8, 4 * block),
        "bits": (np.uint32, block),
        **{slot: (np.bool_, block) for slot in ("keep", "tied", "up")},
        "draws": (np.uint64, 2 * min(block, _MASK_CHUNK)),
    }


class _Buffers:
    """One worker's buffers, all cut from one anonymous mapping that is unmapped on exit.

    ``slots`` gives each slot's dtype and element count. Arrays from
    numpy's allocator stay resident in malloc's arenas once freed; the
    mapping gives its pages back when it is unmapped. Used as a context
    manager: on exit, an error's finished frames are cleared of the views
    they hold into the mapping, so that it can be unmapped.
    """

    def __init__(self, slots: Slots):
        placed, size = self.layout(slots)
        self.mapping = mmap.mmap(-1, max(size, 1))
        self._slots = {
            slot: np.frombuffer(self.mapping, dtype, count, offset) for slot, (dtype, count, offset) in placed.items()
        }

    @staticmethod
    def layout(slots: Slots) -> tuple[dict[str, tuple[type, int, int]], int]:
        """Each slot's dtype, element count and byte offset in the mapping, and the mapping's size in bytes."""
        placed, size = {}, 0
        for slot, (dtype, count) in slots.items():
            placed[slot] = (dtype, count, size)
            size += -(-count * np.dtype(dtype).itemsize // 64) * 64  # each slot starts on a cache line
        return placed, size

    def get(self, slot: str, n: int | None = None) -> np.ndarray:
        """The first ``n`` elements of ``slot`` (all of it when None)."""
        return self._slots[slot][:n]

    def __enter__(self) -> "_Buffers":
        return self

    def __exit__(self, kind, error, tb) -> None:
        if tb is not None:
            traceback.clear_frames(tb)
        self._slots.clear()
        self.mapping.close()


def _widened(
    source: Tensor, role: str, name: str, start: int, out: np.ndarray, space: _Buffers, check: bool
) -> np.ndarray:
    """Flat elements ``start:start + out.size`` of ``source``, widened into the float32 ``out``.

    The elements are viewed in memory or read from the tensor's file, with
    one read, into ``space``'s ``storage`` slot (``Tensor.load_range``).
    With ``check``, a NaN or infinity is a NonFiniteWeightError naming
    ``role``, the tensor and the flat index, raised before any arithmetic
    reads the block; without it, the caller has checked that block before.
    """
    view = source.load_range(start, start + out.size, space.get("storage"))
    if check and (at := first_non_finite(view, space.get("bits"))) is not None:
        raise NonFiniteWeightError(f"{role} tensor {name!r} holds a non-finite weight at flat index {start + at}")
    return widen(view, out)


def _narrowed(
    merged: np.ndarray, dtype: Dtype, recipe: MergeRecipe, name: str, start: int, space: _Buffers
) -> np.ndarray:
    """The float32 block ``merged``, elements ``start:`` of ``recipe``'s output of ``name``, narrowed to ``dtype``.

    The block is written to ``space``'s ``storage`` slot. A narrowed weight
    that is NaN or infinite, from arithmetic that overflowed or from
    rounding past the storage dtype's largest value, is a
    NonFiniteWeightError naming the recipe, the tensor and the flat index.
    """
    bits = space.get("bits")
    out = space.get("storage", merged.size * dtype.itemsize).view(dtype.array_dtype)
    narrow(merged, dtype, bits, out=out)
    if (at := first_non_finite(out, bits)) is not None:
        raise NonFiniteWeightError(
            f"{recipe.slug()} tensor {name!r} merges to a non-finite weight at flat index {start + at}"
        )
    return out


def _merge_per_lam(
    variants: Sequence[MergeRecipe],
    name: str,
    pre: Tensor,
    lvlm: Tensor,
    rm: Tensor,
    space: _Buffers,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Merge one same-shaped tensor for each recipe of ``variants``, which share method and seed.

    Yields ``(index into variants, start, block)`` once per recipe and
    block of ``_BLOCK`` elements, in block order: ``block`` holds flat
    elements ``start:`` of that recipe's output, in the storage dtype of
    ``lvlm``, in ``space``'s ``storage`` slot, which the next read or
    output overwrites: it is valid until the generator resumes. Within a
    block the recipes come grouped by density, in the order each density is
    first seen, and by lambda in list order within a density. ``name`` keys
    the DARE drop-mask random stream. ties and dare-ties scale the jointly
    merged delta by lam; dare-ties elects signs and takes the disjoint mean
    on the already-rescaled survivors. Each block of each input is read
    once (linear never reads ``pre``) and widened into ``space``'s block
    slots (``_widened``), checked finite there, except for ties, whose
    ranking keys checked every input block before. Then, once per density, in the
    block slots: form the task vectors, trim or drop, elect and take the
    disjoint mean, apply each lambda and narrow (``_narrowed``). With
    several densities the task vectors go to the ``tau_l`` and ``tau_r``
    slots, so that the widened inputs serve every density; with one they
    overwrite the widened fine-tuned weights. An overflow on the way warns
    of nothing: it is trimmed or dropped, or reaches an output and is
    raised there. Only ties needs the whole tensor: it first ranks each
    task vector's magnitudes once in the full-size ``key`` slot
    (``_ranking_key``, which reads ``pre`` and that fine-tuned model block
    by block), for every density's cut, and trims each block with a running
    count of the entries tied at the cut. No step crosses a block, so the
    bytes do not depend on the block size.
    """
    n, dtype = pre.numel, lvlm.dtype
    method, seed = variants[0].method, variants[0].seed
    by_density: dict[float | None, list[int]] = {}
    for i, recipe in enumerate(variants):
        by_density.setdefault(recipe.density, []).append(i)
    taus = ("lvlm", "rm") if len(by_density) == 1 else ("tau_l", "tau_r")
    if method is MergeMethod.TIES:
        with np.errstate(over="ignore"):
            # the first key checks pre's blocks, and each key its fine-tuned model's
            keys = (_ranking_key(pre, fine, role, name, space, check_pre=role == "lvlm")
                    for role, fine in (("lvlm", lvlm), ("rm", rm)))
            cuts = [_cuts(key, list(by_density), space) for key in keys]
        # per density, per task vector: (threshold, entries tied at it still to keep), or None
        trims = [list(pair) for pair in zip(*cuts)]
    elif method.needs_seed:
        streams = [stream_key(seed, origin, name) for origin in ("lvlm", "rm")]
    check = method is not MergeMethod.TIES  # the ranking keys checked every input block
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            a = _widened(lvlm, "lvlm", name, start, space.get("lvlm", m), space, check)
            b = _widened(rm, "rm", name, start, space.get("rm", m), space, check)
            if method is not MergeMethod.LINEAR:
                base = _widened(pre, "pre", name, start, space.get("pre", m), space, check)
            for j, (density, indices) in enumerate(by_density.items()):
                if method is not MergeMethod.LINEAR:
                    # the task vectors, then the merged delta
                    delta, tau_r = (np.subtract(fine, base, out=space.get(slot, m)) for fine, slot in zip((a, b), taus))
                    if method is MergeMethod.TASK_ARITHMETIC:
                        np.add(delta, tau_r, out=delta)
                    else:
                        if method is MergeMethod.TIES:
                            for side, tau in enumerate((delta, tau_r)):
                                if trims[j][side] is not None:
                                    trims[j][side] = _trim(tau, *trims[j][side], space)
                        else:
                            for stream, tau in zip(streams, (delta, tau_r)):
                                _drop(tau, density, stream, start, space)
                        if method is MergeMethod.DARE_TASK_ARITHMETIC:
                            np.add(delta, tau_r, out=delta)
                        else:
                            _disjoint_mean(delta, tau_r, space)
                for i in indices:
                    lam = variants[i].lam
                    if method is MergeMethod.LINEAR and lam in (0.0, 1.0):
                        merged = a if lam == 1.0 else b  # exact identities at the endpoints, untouched by rounding
                    elif method is MergeMethod.LINEAR:
                        merged = np.multiply(lam, a, out=space.get("out", m))
                        np.add(merged, np.multiply(1.0 - lam, b, out=space.get("tmp", m)), out=merged)
                    elif lam == 0.0:
                        merged = base
                    else:
                        merged = np.multiply(lam, delta, out=space.get("out", m))
                        np.add(base, merged, out=merged)
                    yield i, start, _narrowed(merged, dtype, variants[i], name, start, space)


def default_jobs() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def run_workers(
    items: Sequence, jobs: int, work: Callable[[object, object], None], state: Callable[[], AbstractContextManager]
) -> None:
    """Call ``work(item, own)`` for every item on up to ``jobs`` workers, each with its own ``state()``.

    ``own`` is what entering the worker's ``state()`` gives; the worker
    exits it when it ends, on error too. The calling thread is one worker;
    the others are the ``min(jobs, len(items)) - 1`` threads started for
    this call and joined before it returns, on error too, so one job or one
    item starts no thread. Each worker takes the next item, in order, until
    none is left; once a ``work`` call has raised, no worker takes another.
    When all have ended, the error of the first item in ``items`` whose
    call raised is raised here. Every item before it was taken, so that is
    the error a single worker would raise, whatever the worker count.
    """
    todo = enumerate(items)
    done = (len(items), None)
    todo_lock = threading.Lock()
    stop = threading.Event()
    errors: list[tuple[int, BaseException]] = []

    def worker() -> None:
        at = -1  # a failing state() comes before every item
        try:
            with state() as own:
                while not stop.is_set():
                    with todo_lock:
                        at, item = next(todo, done)
                    if at == len(items):
                        return
                    try:
                        work(item, own)
                    except BaseException:
                        stop.set()  # the other workers take no further item, even while this one exits its state
                        raise
        except BaseException as error:
            stop.set()
            errors.append((at, error))

    helpers = min(jobs, len(items)) - 1
    with ThreadPoolExecutor(max(helpers, 1), thread_name_prefix="vlrmerge") as pool:
        futures = [pool.submit(worker) for _ in range(helpers)]
        try:
            worker()
            for future in futures:
                future.result()  # None: a worker keeps its error in errors
        finally:
            stop.set()  # an interrupt while waiting stops the helpers too
    if errors:
        raise min(errors, key=lambda entry: entry[0])[1]


def check_variants(variants: Sequence[MergeRecipe], recipe: MergeRecipe | None = None) -> None:
    """RecipeError unless ``variants`` are one merge: some, of the method and seed of ``recipe`` (or the first)."""
    if not variants:
        raise RecipeError("no variant was given: variants must hold at least one recipe")
    recipe = recipe or variants[0]
    for variant in variants:
        if (variant.method, variant.seed) != (recipe.method, recipe.seed):
            raise RecipeError(f"recipe {variant.slug()} does not share the method and seed of {recipe.slug()}")


def _buffer_sizes(
    variants: Sequence[MergeRecipe], pre_trans: dict[str, np.ndarray | Tensor], row: int = 0
) -> tuple[int, int, bool]:
    """A worker's ``_kernel_slots`` sizes for ``variants`` on tensors of ``pre_trans``'s sizes.

    The ties key's elements (the largest tensor's), the block's (``_BLOCK``,
    or the largest tensor's, but at least ``row``) and whether the variants
    span several densities.
    """
    capacity = max((source.size for source in pre_trans.values()), default=0)
    key = capacity if variants[0].method is MergeMethod.TIES else 0
    grid = len({recipe.density for recipe in variants}) > 1
    return key, max(min(_BLOCK, capacity), row, 1), grid


def _cgroup_free(group: Path) -> int | None:
    """``memory.max`` minus ``memory.current`` plus the file cache of the cgroup v2 ``group``, or None without a limit.

    The file cache is ``active_file`` plus ``inactive_file`` in its
    ``memory.stat``: ``memory.current`` counts those pages, but the kernel
    takes them back when the group needs the memory, as ``MemAvailable``
    counts them free.
    """
    try:
        limit = (group / "memory.max").read_text(encoding="ascii").strip()
        if limit == "max":
            return None
        free = int(limit) - int((group / "memory.current").read_text(encoding="ascii"))
    except (OSError, ValueError):
        return None
    try:
        with open(group / "memory.stat", encoding="ascii") as f:
            free += sum(int(line.split()[1]) for line in f if line.split()[0] in ("active_file", "inactive_file"))
    except (OSError, ValueError, IndexError):
        pass
    return max(free, 0)


def available_memory(root: Path = Path("/")) -> int | None:
    """The bytes this process may still take, or None when the system does not say; only reads.

    The least of ``MemAvailable`` in /proc/meminfo and, for this process's
    cgroup v2 group and each group above it that sets a limit, that group's
    free memory (``_cgroup_free``). ``root`` is the directory that holds
    ``proc`` and ``sys``.
    """
    figures, groups = [], []
    try:
        with open(root / "proc/meminfo", encoding="ascii") as f:
            figures += [int(line.split()[1]) * 1024 for line in f if line.startswith("MemAvailable:")]
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(root / "proc/self/cgroup", encoding="utf-8") as f:
            groups = [line[3:].strip() for line in f if line.startswith("0::")]
    except OSError:
        pass
    top = root / "sys/fs/cgroup"
    for group in (top / g.strip("/") for g in groups):
        # up to and including the top: in a cgroup namespace the top is the container's own group
        for level in (group, *group.parents[: len(group.relative_to(top).parts)]):
            if (free := _cgroup_free(level)) is not None:
                figures.append(free)
    return min(figures, default=None)


def merge_transformer(
    recipe: MergeRecipe,
    pre_trans: dict[str, np.ndarray | Tensor],
    lvlm_trans: dict[str, np.ndarray | Tensor],
    rm_trans: dict[str, np.ndarray | Tensor],
    jobs: int | None = None,
    variants: Sequence[MergeRecipe] | None = None,
    sink: Callable[[int, str, memoryview, int], None] | None = None,
) -> list[dict[str, Tensor]] | None:
    """Merge the shared transformer weights once per recipe of ``variants``.

    The input maps hold, per tensor name, a storage view (``Tensor.array``;
    a float32 array is the F32 view), made an in-memory ``Tensor`` first
    (``as_tensor``), or a ``Tensor``, whose payload is read from its file, a
    block at a time (``Tensor.load_range``), only when a worker merges it;
    inputs are only read. ``variants`` defaults to ``(recipe,)``; it must not be
    empty, and each must share ``recipe``'s method and seed (``check_variants``
    raises RecipeError otherwise), and may differ in lambda and density. Checks the recipes
    and the tensor alignment once (the first problem
    ``components.alignment_problems`` finds is a VlrmergeError), then merges
    every name on ``jobs`` workers (``run_workers``; None takes
    ``default_jobs()``), so at most ``jobs`` tensors are in flight and a
    call with one job or one tensor starts no thread. Each worker reads a
    tensor's inputs a block at a time into its own buffers, checks each
    block finite (NonFiniteWeightError names the model, tensor and flat
    index of the first NaN or infinity), and runs the rule on it once per
    density (for ties, one ranking of each task vector in a key of the
    tensor's size gives every density's cut), narrowing it into each
    variant's output block, of the storage dtype of the tensor's lvlm input,
    and checking that finite (NonFiniteWeightError names the variant's slug,
    the tensor and the flat index). A worker's buffers are one anonymous
    mapping of the ``_kernel_slots`` table, mapped when it starts and
    unmapped when it ends, on error too: a few blocks, two more for a grid
    of densities, and for ties the key of the largest tensor. With a
    ``sink``, the worker hands it each output block at once as
    ``sink(variant_index, name, block, at)``: ``block`` is a read-only byte
    view of those buffers, the payload's bytes from byte ``at``, valid
    until the sink returns (a view kept past that raises ValueError when
    read); the blocks of each variant's payload tile it once, and the call
    returns None. Without one, a copy of each output is returned, one map
    per variant, in order. The bytes of each output are those of a call
    with that recipe alone, for any worker count.
    """
    if jobs is not None and jobs < 1:
        raise VlrmergeError(f"jobs must be at least 1, got {jobs}")
    variants = (recipe,) if variants is None else tuple(variants)
    check_variants(variants, recipe)
    pre_trans, lvlm_trans, rm_trans = (
        {name: as_tensor(name, source) for name, source in side.items()} for side in (pre_trans, lvlm_trans, rm_trans)
    )
    if problems := alignment_problems({"pre": pre_trans, "lvlm": lvlm_trans, "rm": rm_trans}):
        raise VlrmergeError(problems[0])
    slots = _kernel_slots(*_buffer_sizes(variants, pre_trans))
    names = list(pre_trans)
    kept = {} if sink is not None else {name: [bytearray(lvlm_trans[name].nbytes) for _ in variants] for name in names}

    def keep(i: int, name: str, block: memoryview, at: int) -> None:
        kept[name][i][at : at + len(block)] = block

    emit = sink or keep

    def merge_one(name: str, space: _Buffers) -> None:
        for i, start, block in _merge_per_lam(variants, name, pre_trans[name], lvlm_trans[name], rm_trans[name], space):
            data = memoryview(block.view(np.uint8)).toreadonly()
            emit(i, name, data, start * block.itemsize)
            data.release()  # the next block overwrites this one: a view kept past emit raises, never misreads

    run_workers(names, jobs or default_jobs(), merge_one, lambda: _Buffers(slots))
    if sink is not None:
        return None
    return [
        {name: Tensor(name, lvlm_trans[name].dtype, lvlm_trans[name].shape, bytes(outs[i])) for name, outs in kept.items()}
        for i in range(len(variants))
    ]


# ---------------------------------------------------------------------------
# the steps of the merge rules, on flat float32 arrays, with scratch from a worker's buffers


def retained_count(density: float, n: int) -> int:
    """ceil(density * n), at least 1 when density > 0 and n > 0.

    The tiny nudge cancels binary-float noise so grid densities behave like the
    exact decimals they denote (0.2 * 100 keeps 20 entries, not 21).
    """
    if n == 0:
        return 0
    k = math.ceil(density * n - 1e-9)
    return min(max(k, 1), n)


def _ranking_key(pre: Tensor, fine: Tensor, role: str, name: str, space: _Buffers, check_pre: bool) -> np.ndarray:
    """|fine - pre| as uint32 bit patterns, the ranking key of ``role``'s task vector, in ``space``'s ``key`` slot.

    Both inputs are read block by block (``_widened``). Each block of
    ``fine``, and with ``check_pre`` each block of ``pre`` before it, is
    checked finite before it is subtracted; without ``check_pre``, an
    earlier key checked ``pre``. A non-negative float32 orders as its bit
    pattern does, and a task vector is never NaN, so the key ranks the
    magnitudes as integers.
    """
    n = pre.numel
    key = space.get("key", n)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        base = _widened(pre, "pre", name, start, space.get("pre", stop - start), space, check=check_pre)
        block = _widened(fine, role, name, start, key[start:stop].view(np.float32), space, check=True)
        np.subtract(block, base, out=block)
        np.bitwise_and(key[start:stop], np.uint32(0x7FFFFFFF), out=key[start:stop])  # |x| is x without its sign bit
    return key


def _cuts(key: np.ndarray, densities: Sequence[float], space: _Buffers) -> list[tuple[np.float32, int] | None]:
    """For each density, the trim of the task vector whose ranking key is ``key``, reordered here.

    The trim keeps k = retained_count(density, n) entries: the first k of a
    stable sort on descending magnitude. Each density's trim is
    ``(threshold, ties)``: every entry whose magnitude is above
    ``threshold``, the k-th largest, is kept, and so are the first ``ties``
    entries in flat order whose magnitude equals it. It is None when k
    keeps every entry. One ascending sort of ``key`` ranks every entry, so
    every density's cut, at n - k, is read from it; a single cut is placed
    by selection instead, in less time. The entries that rank above the cut
    are then found by a binary search of the sorted key, or counted a block
    at a time among the k - 1 that selection put after it.
    """
    n = key.size
    ks = [retained_count(density, n) for density in densities]
    cuts = {n - k for k in ks if k < n}
    sort = len(cuts) > 1
    if sort:
        key.sort()
    elif cuts:
        key.partition(cuts.pop())
    trims = []
    for k in ks:
        if k == n:
            trims.append(None)
            continue
        cut = key[n - k]
        if sort:
            above = n - int(np.searchsorted(key, cut, side="right"))
        else:
            above = 0
            for start in range(n - k + 1, n, _BLOCK):
                ranked = key[start : min(start + _BLOCK, n)]
                above += np.count_nonzero(np.greater(ranked, cut, out=space.get("keep", ranked.size)))
        trims.append((cut.view(np.float32), k - above))
    return trims


def _trim(tau: np.ndarray, threshold: np.float32, ties: int, space: _Buffers) -> tuple[np.float32, int]:
    """Zero the entries of the block ``tau`` that a trim ``(threshold, ties)`` from ``_cuts`` drops.

    ``ties`` counts the entries tied at the threshold that are still to be
    kept, in flat order; returns the trim for the next block, with the
    ones kept here taken off.
    """
    m = tau.size
    magnitude = np.abs(tau, out=space.get("tmp", m))
    keep, tied = space.get("keep", m), space.get("tied", m)
    np.greater(magnitude, threshold, out=keep)
    if ties:
        np.equal(magnitude, threshold, out=tied)
        here = np.count_nonzero(tied)
        if here <= ties:
            np.logical_or(keep, tied, out=keep)
        else:
            keep[np.flatnonzero(tied)[:ties]] = True
        ties -= min(here, ties)
    _select(keep, tau)
    return threshold, ties


def _select(keep: np.ndarray, arr: np.ndarray) -> None:
    """Zero ``arr`` (to +0.0) where not ``keep``, in place, by its bits.

    Same bytes as ``np.where(keep, arr, 0)``, -0.0 included:
    each entry's bit pattern is multiplied by 1 or 0 as an integer, without
    the per-element branch that makes ``np.where`` slow on an irregular mask.
    """
    bits = arr.view(np.uint32)
    np.multiply(bits, keep, out=bits)


def _drop(tau: np.ndarray, density: float, stream: int, start: int, space: _Buffers) -> None:
    """DARE on the block ``tau`` at flat offset ``start``: drop entries by ``stream``, rescale survivors by 1/d."""
    if density == 1.0:
        return
    keep = _keep_mask(stream, start, density, space.get("keep", tau.size), space.get("draws"))
    np.multiply(tau, 1.0 / density, out=tau)
    _select(keep, tau)


def _disjoint_mean(a: np.ndarray, b: np.ndarray, space: _Buffers) -> None:
    """Write into the block ``a`` the mean of the nonzero entries of ``a`` and ``b``
    that match the elected sign, 0 where none do; ``b`` is overwritten.

    The elected sign is + where the positive total magnitude wins, ties
    included: exactly where a >= -b, for zeros and infinities of either sign
    too. An entry matches when its product with the elected sign, a sign
    flip or none, is above 0: never for 0.
    """
    zero = np.float32(0.0)
    n = a.size
    neg, tmp = space.get("neg", n), space.get("tmp", n)
    up = np.greater_equal(a, np.negative(b, out=neg), out=space.get("up", n))
    sign = np.subtract(np.multiply(up, np.float32(2.0), out=neg), np.float32(1.0), out=neg)
    matches = space.get("keep", n), space.get("tied", n)
    for arr, match in zip((a, b), matches):
        np.greater(np.multiply(arr, sign, out=tmp), zero, out=match)
        _select(match, arr)
    # where nothing matches, the total is 0 and so is the mean
    count = np.add(*matches, out=space.get("out", n), dtype=np.float32)
    np.divide(np.add(a, b, out=a), np.maximum(count, np.float32(1.0), out=count), out=a)


# ---------------------------------------------------------------------------
# counter-based random stream for the drop masks

_GAMMA = 0x9E3779B97F4A7C15
_MIX_GAMMA = np.uint64(_GAMMA)
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)
_MASK_CHUNK = 1 << 15


def stream_key(seed: int, origin: str, name: str) -> int:
    """64-bit stream key derived from (seed, origin tag, tensor name)."""
    digest = hashlib.sha256(
        b"dare\x00" + seed.to_bytes(8, "little") + b"\x00"
        + origin.encode("utf-8") + b"\x00" + name.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


@functools.cache
def _mask_steps() -> np.ndarray:
    """i * gamma (mod 2**64) for each index i of a mask chunk, read-only, made once per process."""
    steps = np.multiply(np.arange(_MASK_CHUNK, dtype=np.uint64), _MIX_GAMMA)
    steps.flags.writeable = False
    return steps


def _keep_mask(key: int, start: int, density: float, out: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Drop-mask decisions of one stream for the ``out.size`` flat indices from ``start``, into ``out``; True keeps.

    Draw i mixes ``key + i * gamma`` through the splitmix64 finalizer, so any
    element's decision can be made independently of the others. Its top 53
    bits m stand for the uniform m * 2**-53, which is kept when below
    density: m < ceil(density * 2**53), tested as the whole draw below that
    limit shifted left by 11 bits. Scaling by 2**53 is exact in float64, and
    the shifted limit fits 64 bits because it is below 2**53 whenever
    density < 1 (density 1 draws no mask). The draws are made
    ``_MASK_CHUNK`` at a time in ``draws``, a worker's uint64 slot of two
    rows of at least min(out.size, _MASK_CHUNK), so no integer temporary
    exists, from i * gamma for each i of a chunk (``_mask_steps``).
    """
    limit = np.uint64(math.ceil(density * 2.0**53) << 11)
    z, shifted = draws.reshape(2, -1)
    steps = _mask_steps()
    with np.errstate(over="ignore"):
        for at in range(0, out.size, _MASK_CHUNK):
            m = min(_MASK_CHUNK, out.size - at)
            mixed, bits = z[:m], shifted[:m]
            np.add(steps[:m], np.uint64((key + (start + at) * _GAMMA) % 2**64), out=mixed)
            np.bitwise_xor(mixed, np.right_shift(mixed, np.uint64(30), out=bits), out=mixed)
            np.multiply(mixed, _MIX_M1, out=mixed)
            np.bitwise_xor(mixed, np.right_shift(mixed, np.uint64(27), out=bits), out=mixed)
            np.multiply(mixed, _MIX_M2, out=mixed)
            np.bitwise_xor(mixed, np.right_shift(mixed, np.uint64(31), out=bits), out=mixed)
            np.less(mixed, limit, out=out[at : at + m])
    return out
