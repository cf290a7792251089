"""Row-by-row merging of embedding matrices keyed on token membership.

For every output token the first applicable rule wins:

1. token known to the pre-trained base -> its base-model row
   (skipped entirely for the linear method, which does not use the base)
2. token known to exactly one fine-tuned model -> that model's row
3. token known to both fine-tuned models -> unweighted mean of the two rows

The output vocabulary is the LVLM vocabulary in order, followed by RM-only
tokens in RM order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VocabError
from .merging import MergeMethod


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


def _check_rows(label: str, vocab: dict[str, int]) -> None:
    indices = list(vocab.values())
    if len(set(indices)) != len(indices):
        raise VocabError(f"{label} vocabulary maps multiple tokens to the same row")
    if any(i < 0 for i in indices):
        raise VocabError(f"{label} vocabulary contains a negative row index")


def align_vocab(
    pre_vocab: dict[str, int], lvlm_vocab: dict[str, int], rm_vocab: dict[str, int]
) -> AlignedVocab:
    """Union of the two fine-tuned vocabularies with per-model row indices.

    Base-model membership is recorded so rule 1 can fire; tokens known only to
    the base model are excluded from the output.
    """
    for label, vocab in (("pre", pre_vocab), ("lvlm", lvlm_vocab), ("rm", rm_vocab)):
        _check_rows(label, vocab)
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
    """Build the merged embedding matrix, one output row per aligned token."""
    width = lvlm_emb.shape[1]
    if rm_emb.shape[1] != width or pre_emb.shape[1] != width:
        raise VocabError(
            f"embedding width mismatch: pre {pre_emb.shape[1]}, "
            f"lvlm {width}, rm {rm_emb.shape[1]}"
        )
    pre_idx, lv_idx, rm_idx = aligned.pre_rows, aligned.lvlm_rows, aligned.rm_rows
    sources = (("pre", pre_idx, pre_emb), ("lvlm", lv_idx, lvlm_emb), ("rm", rm_idx, rm_emb))
    for label, idx, source in sources:
        if idx.size and (top := int(idx.max())) >= source.shape[0]:
            raise VocabError(f"{label} row index {top} out of range ({source.shape[0]} rows)")
    neither = (lv_idx < 0) & (rm_idx < 0)
    if neither.any():
        token = aligned.tokens[int(neither.argmax())]
        raise VocabError(f"token {token!r} is in neither fine-tuned vocabulary")
    pre_emb = pre_emb.astype(np.float32, copy=False)
    lvlm_emb = lvlm_emb.astype(np.float32, copy=False)
    rm_emb = rm_emb.astype(np.float32, copy=False)

    use_pre = (pre_idx >= 0) & (method is not MergeMethod.LINEAR)
    both = ~use_pre & (lv_idx >= 0) & (rm_idx >= 0)
    only_lv = ~use_pre & (lv_idx >= 0) & (rm_idx < 0)
    only_rm = ~use_pre & (lv_idx < 0) & (rm_idx >= 0)

    out = np.empty((len(aligned.tokens), width), dtype=np.float32)
    out[use_pre] = pre_emb[pre_idx[use_pre]]
    out[only_lv] = lvlm_emb[lv_idx[only_lv]]
    out[only_rm] = rm_emb[rm_idx[only_rm]]
    out[both] = (lvlm_emb[lv_idx[both]] + rm_emb[rm_idx[both]]) * np.float32(0.5)
    return out
