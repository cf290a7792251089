"""Row-by-row merging of embedding matrices keyed on token membership.

For every output token the first applicable rule wins:

1. token known to the pre-trained base -> its base-model row
   (skipped entirely for the linear method, which does not use the base)
2. token known to exactly one fine-tuned model -> that model's row
3. token known to both fine-tuned models -> unweighted mean of the two rows

The matrices are merged in their storage dtype: rows of rules 1 and 2 are
copied as stored, and only rule 3 rows pass through float32.

The output vocabulary is the LVLM vocabulary in order, followed by RM-only
tokens in RM order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import embedding_problems, vocab_row_problems
from .errors import NonFiniteWeightError, VocabError
from .merging import MergeMethod
from .tensorstore import Dtype, first_non_finite, narrow, widen

_BLOCK = 1 << 16  # elements per block of rows widened at once


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


def merge_embedding_rows(
    aligned: AlignedVocab,
    pre_emb: np.ndarray,
    lvlm_emb: np.ndarray,
    rm_emb: np.ndarray,
    method: MergeMethod,
) -> np.ndarray:
    """Build the merged embedding matrix, one output row per aligned token.

    The inputs are storage views of one dtype (``Dtype.of``), and so is the
    output. Rows of rules 1 and 2 are copied as stored; the rule 3 rows alone
    are widened to float32, averaged and narrowed, a block of rows at a time,
    so no float32 copy of a whole matrix is made. The bytes are those of
    widening every input, merging in float32 and narrowing the output, since
    widening and narrowing round-trip every stored bit pattern. First, the
    matrices must be 2-D, of one width and dtype, with every aligned row
    inside its matrix (VocabError, with ``validate_triple``'s message for the
    same fault), and a NaN or infinity in a matrix the method reads (linear
    never reads ``pre``) raises NonFiniteWeightError, naming the model and row.
    """
    pre_idx, lv_idx, rm_idx = aligned.pre_rows, aligned.lvlm_rows, aligned.rm_rows
    sources = (("pre", pre_idx, pre_emb), ("lvlm", lv_idx, lvlm_emb), ("rm", rm_idx, rm_emb))
    matrices = {label: (Dtype.of(source), source.shape) for label, _, source in sources}
    problems = embedding_problems(matrices) or [
        problem for label, idx, source in sources for problem in vocab_row_problems(label, idx[idx >= 0], len(source))
    ]
    if problems:
        raise VocabError(problems[0])
    dtype, width = Dtype.of(lvlm_emb), lvlm_emb.shape[1]
    neither = (lv_idx < 0) & (rm_idx < 0)
    if neither.any():
        token = aligned.tokens[int(neither.argmax())]
        raise VocabError(f"token {token!r} is in neither fine-tuned vocabulary")
    # each gather copies one block of rows, so no temporary outgrows a block
    step = max(1, _BLOCK // max(width, 1))
    scratch = np.empty(step * max(width, 1), np.uint32)
    for label, _, source in sources[1:] if method is MergeMethod.LINEAR else sources:
        if (at := first_non_finite(source, scratch)) is not None:
            raise NonFiniteWeightError(f"{label} embedding row {at // width} holds a non-finite weight")

    use_pre = (pre_idx >= 0) & (method is not MergeMethod.LINEAR)
    both = ~use_pre & (lv_idx >= 0) & (rm_idx >= 0)
    only_lv = ~use_pre & (lv_idx >= 0) & (rm_idx < 0)
    only_rm = ~use_pre & (lv_idx < 0) & (rm_idx >= 0)

    out = np.empty((len(aligned.tokens), width), dtype=dtype.array_dtype)
    for mask, (_, idx, source) in zip((use_pre, only_lv, only_rm), sources):
        rows = np.flatnonzero(mask)
        for start in range(0, rows.size, step):
            at = rows[start : start + step]
            out[at] = source[idx[at]]
    rows = np.flatnonzero(both)
    a, b = (np.empty((min(step, rows.size), width), np.float32) for _ in range(2))
    for start in range(0, rows.size, step):
        at = rows[start : start + step]
        x = widen(lvlm_emb[lv_idx[at]], a[: at.size])
        y = widen(rm_emb[rm_idx[at]], b[: at.size])
        # halves first: the sum of two finite rows may overflow, their mean cannot
        half = np.float32(0.5)
        np.add(np.multiply(x, half, out=x), np.multiply(y, half, out=y), out=x)
        out[at] = np.frombuffer(narrow(x, dtype, scratch), dtype.array_dtype).reshape(x.shape)
    return out
