"""Row-by-row merging of embedding matrices keyed on token membership.

For every output token the first applicable rule wins:

1. token known to the pre-trained base -> its base-model row
   (skipped entirely for the linear method, which does not use the base)
2. token known to exactly one fine-tuned model -> that model's row
3. token known to both fine-tuned models -> unweighted mean of the two rows

The matrices are merged in their storage dtype: rows of rules 1 and 2 are
copied as stored, and only rule 3 rows pass through float32. The assembly
merges a matrix a block of output rows at a time, on any number of workers,
each block reading from the inputs only the rows it takes; the functions
here are its block steps, on inputs ``components.validate_triple`` checked.

The output vocabulary is the LVLM vocabulary in order, followed by RM-only
tokens in RM order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .components import vocab_row_problems
from .errors import NonFiniteWeightError, VocabError
from .merging import MergeMethod, _Buffers
from .tensorstore import Dtype, Tensor, first_non_finite, narrow, widen


@dataclass
class AlignedVocab:
    """The output tokens in order and, per model, each token's row in it.

    Each ``*_rows`` array is int64 with one entry per output token: that
    model's row for the token, or -1 when the model lacks it.
    """

    tokens: list[str]
    pre_rows: np.ndarray
    lvlm_rows: np.ndarray
    rm_rows: np.ndarray

    def output_vocab(self) -> dict[str, int]:
        return {token: i for i, token in enumerate(self.tokens)}


def align_vocab(
    pre_vocab: dict[str, int], lvlm_vocab: dict[str, int], rm_vocab: dict[str, int]
) -> AlignedVocab:
    """Union of the two fine-tuned vocabularies with per-model row indices.

    Base-model membership is recorded so rule 1 can fire; tokens known only to
    the base model are excluded from the output.
    """
    for label, vocab in (("pre", pre_vocab), ("lvlm", lvlm_vocab), ("rm", rm_vocab)):
        if problems := vocab_row_problems(label, vocab.values()):
            raise VocabError(problems[0])
    tokens = sorted(lvlm_vocab, key=lvlm_vocab.get)
    tokens += [token for token in sorted(rm_vocab, key=rm_vocab.get) if token not in lvlm_vocab]

    def rows(vocab: dict[str, int]) -> np.ndarray:
        return np.fromiter((vocab.get(t, -1) for t in tokens), dtype=np.int64, count=len(tokens))

    return AlignedVocab(tokens, rows(pre_vocab), rows(lvlm_vocab), rows(rm_vocab))


def _array(space: _Buffers, slot: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """An array of ``shape`` and ``dtype``, cut from the bytes of ``space``'s ``slot``.

    ``space`` is a worker's ``merging._kernel_slots`` for a block of at least
    ``shape``'s elements: gathered rows go in ``storage``, merged rows in
    ``out``, the float32 rows averaged in ``lvlm`` and ``rm``, scratch in ``bits``.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    return space.get(slot).view(np.uint8)[:nbytes].view(dtype).reshape(shape)


def _gather_arrays(space: _Buffers, n: int, width: int, dtype: Dtype) -> tuple[np.ndarray, np.ndarray]:
    """A gather's arrays in ``space`` for ``n`` rows of ``width``: the rows, in ``dtype``, and the check's scratch."""
    rows = _array(space, "storage", (n, width), dtype.array_dtype)
    return rows, _array(space, "bits", (max(n * width, 1),), np.uint32)


def _rules(pre_idx: np.ndarray, lv_idx: np.ndarray, rm_idx: np.ndarray, method: MergeMethod) -> tuple[np.ndarray, ...]:
    """Per output row, whether it is the base row (rule 1), the lvlm's or rm's alone (rule 2) or their mean (rule 3)."""
    use_pre = (pre_idx >= 0) & (method is not MergeMethod.LINEAR)
    lv, rm = ~use_pre & (lv_idx >= 0), ~use_pre & (rm_idx >= 0)
    return use_pre, lv & ~rm, rm & ~lv, lv & rm


def _checked_rows(label: str, source: Tensor, rows: np.ndarray, buffer: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of ``label``'s matrix, gathered into ``buffer`` and checked finite; ``scratch`` is uint32."""
    block = source.load_rows(rows, buffer)
    if (at := first_non_finite(block, scratch)) is not None:
        raise NonFiniteWeightError(f"{label} embedding row {rows[at // block.shape[1]]} holds a non-finite weight")
    return block


def check_embedding_rows(label: str, source: Tensor, rows: np.ndarray, space: _Buffers) -> None:
    """Raise NonFiniteWeightError if a row ``rows`` of ``label``'s 2-D embedding ``source`` holds a NaN or infinity.

    The error names the model and the first such row in ``rows``. The rows
    are read in one gather in ``space``, a worker's buffers for a block of
    at least ``len(rows)`` rows (see ``_array``).
    """
    _checked_rows(label, source, rows, *_gather_arrays(space, len(rows), source.shape[1], source.dtype))


def unread_rows(aligned: AlignedVocab, method: MergeMethod, n_rows: dict[str, int]) -> dict[str, np.ndarray]:
    """For each matrix ``method`` reads, the rows no output row is taken from; ``n_rows`` gives each one's row count.

    ``merge_embedding_rows`` checks the rows it takes; checking these as well
    (``check_embedding_rows``) covers every row of every matrix the method
    reads. ``linear`` never reads ``pre``.
    """
    use_pre, only_lv, only_rm, both = _rules(aligned.pre_rows, aligned.lvlm_rows, aligned.rm_rows, method)
    taken = {
        "pre": aligned.pre_rows[use_pre],
        "lvlm": aligned.lvlm_rows[only_lv | both],
        "rm": aligned.rm_rows[only_rm | both],
    }
    if method is MergeMethod.LINEAR:
        del taken["pre"]
    unread = {}
    for label, rows in taken.items():
        free = np.ones(n_rows[label], bool)
        free[rows] = False
        unread[label] = np.flatnonzero(free)
    return unread


def merge_embedding_rows(
    aligned: AlignedVocab, pre: Tensor, lvlm: Tensor, rm: Tensor, method: MergeMethod, rows: range, space: _Buffers
) -> np.ndarray:
    """Build the output rows ``rows``, a range of step 1, of the merged embedding matrix, in ``space``.

    The inputs are the triple's 2-D ``Tensor``s of one embedding, as
    ``validate_triple`` accepts them: of one width and dtype, with every
    aligned row inside its matrix. The output is of that dtype, one row per
    output token of ``rows``. Each input row an output row takes is read
    (from a tensor's file, only those rows, see ``Tensor.load_rows``) and
    checked finite, one gather per rule: rows of rules 1 and 2 are copied
    as stored, and the rule 3 rows alone are widened to float32, averaged
    and narrowed. The bytes are those of widening every input, merging in
    float32 and narrowing the output, since widening and narrowing
    round-trip every stored bit pattern, and do not depend on how the
    output rows are split. A NaN or infinity in a row read raises
    NonFiniteWeightError, naming the model and row, before any arithmetic
    reads it; the rows no block reads are checked with ``unread_rows`` and
    ``check_embedding_rows``. ``space`` is a worker's buffers for a block of
    at least ``len(rows)`` rows (see ``_array``): every array is cut from
    it, the returned rows too, which the worker's next use of ``space``
    overwrites.
    """
    span = slice(rows.start, rows.stop)
    pre_idx, lv_idx, rm_idx = aligned.pre_rows[span], aligned.lvlm_rows[span], aligned.rm_rows[span]
    n, width, dtype = len(rows), lvlm.shape[1], lvlm.dtype
    buffer, scratch = _gather_arrays(space, n, width, dtype)
    out = _array(space, "out", (n, width), dtype.array_dtype)
    use_pre, only_lv, only_rm, both = _rules(pre_idx, lv_idx, rm_idx, method)
    sources = (("pre", pre_idx, pre), ("lvlm", lv_idx, lvlm), ("rm", rm_idx, rm))
    for mask, (label, idx, source) in zip((use_pre, only_lv, only_rm), sources):
        at = np.flatnonzero(mask)
        out[at] = _checked_rows(label, source, idx[at], buffer, scratch)
    at = np.flatnonzero(both)
    x, y = (_array(space, slot, (at.size, width), np.float32) for slot in ("lvlm", "rm"))
    widen(_checked_rows("lvlm", lvlm, lv_idx[at], buffer, scratch), x)
    widen(_checked_rows("rm", rm, rm_idx[at], buffer, scratch), y)
    # halves first: the sum of two finite rows may overflow, their mean cannot
    half = np.float32(0.5)
    np.add(np.multiply(x, half, out=x), np.multiply(y, half, out=y), out=x)
    narrow(x, dtype, scratch, out=buffer[: at.size].reshape(-1))
    out[at] = buffer[: at.size]
    return out
