import tracemalloc

import numpy as np
import pytest

from vlrmerge import AlignedVocab, Dtype, MergeMethod, VocabError, align_vocab, embeddings, merge_embedding_rows
from vlrmerge.tensorstore import narrow, widen

import reference as ref


def emb(rows):
    return np.asarray(rows, dtype=np.float32)


class TestAlignVocab:
    def test_union_and_ordering(self):
        aligned = align_vocab(pre_vocab={"b": 0}, lvlm_vocab={"a": 0, "b": 1}, rm_vocab={"b": 0, "c": 1})
        assert aligned.tokens == ["a", "b", "c"]
        assert aligned.pre_rows.tolist() == [-1, 0, -1]
        assert aligned.lvlm_rows.tolist() == [0, 1, -1]
        assert aligned.rm_rows.tolist() == [-1, 0, 1]
        for rows in (aligned.pre_rows, aligned.lvlm_rows, aligned.rm_rows):
            assert rows.dtype == np.int64

    def test_identical_vocabs(self):
        vocab = {"x": 0, "y": 1, "z": 2}
        aligned = align_vocab(vocab, dict(vocab), dict(vocab))
        assert aligned.tokens == ["x", "y", "z"]
        assert (aligned.pre_rows >= 0).all() and (aligned.rm_rows >= 0).all()

    def test_pre_only_token_excluded(self):
        aligned = align_vocab({"ghost": 0}, {"a": 0}, {"a": 0})
        assert aligned.tokens == ["a"]

    def test_output_order_follows_row_indices_not_dict_order(self):
        aligned = align_vocab({}, {"second": 1, "first": 0}, {})
        assert aligned.tokens == ["first", "second"]

    def test_duplicate_row_index_rejected(self):
        with pytest.raises(VocabError, match="same row"):
            align_vocab({}, {"a": 0, "b": 0}, {})


class TestMergeRules:
    def setup_method(self):
        self.pre_vocab = {"p": 0}
        self.lvlm_vocab = {"p": 0, "both": 1, "only-lvlm": 2}
        self.rm_vocab = {"p": 0, "both": 1, "only-rm": 2}
        self.pre_emb = emb([[10.0, 10.0]])
        self.lvlm_emb = emb([[1.0, 1.0], [1.0, 3.0], [5.0, 5.0]])
        self.rm_emb = emb([[2.0, 2.0], [3.0, 1.0], [7.0, 7.0]])
        self.aligned = align_vocab(self.pre_vocab, self.lvlm_vocab, self.rm_vocab)

    def test_rule_three_mean_of_two_rows(self):
        out = merge_embedding_rows(
            self.aligned, self.pre_emb, self.lvlm_emb, self.rm_emb, MergeMethod.TASK_ARITHMETIC
        )
        assert out[1].tolist() == [2.0, 2.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [Dtype.F32, Dtype.BF16])
    def test_mean_of_rows_near_the_float32_maximum_does_not_overflow(self, dtype):
        vocab = {"both": 0}
        rows = np.frombuffer(narrow(emb([[3e38, -3e38]]), dtype), dtype.array_dtype).reshape(1, 2)
        out = merge_embedding_rows(align_vocab({}, vocab, vocab), rows, rows, rows, MergeMethod.TIES)
        assert out.tobytes() == rows.tobytes()
        assert np.isfinite(widen(out)).all()

    def test_rule_two_single_model_row_verbatim(self):
        out = merge_embedding_rows(
            self.aligned, self.pre_emb, self.lvlm_emb, self.rm_emb, MergeMethod.TASK_ARITHMETIC
        )
        assert out[2].tolist() == [5.0, 5.0]
        assert out[3].tolist() == [7.0, 7.0]

    def test_rule_one_pre_row_and_linear_exception(self):
        non_linear = merge_embedding_rows(
            self.aligned, self.pre_emb, self.lvlm_emb, self.rm_emb, MergeMethod.TASK_ARITHMETIC
        )
        assert non_linear[0].tolist() == [10.0, 10.0]
        linear = merge_embedding_rows(
            self.aligned, self.pre_emb, self.lvlm_emb, self.rm_emb, MergeMethod.LINEAR
        )
        assert linear[0].tolist() == [1.5, 1.5]  # mean of lvlm/rm rows, pre skipped

    def test_output_shape(self):
        out = merge_embedding_rows(
            self.aligned, self.pre_emb, self.lvlm_emb, self.rm_emb, MergeMethod.TIES
        )
        assert out.shape == (4, 2)

    def test_width_mismatch_rejected(self):
        with pytest.raises(VocabError, match="width mismatch"):
            merge_embedding_rows(
                self.aligned, emb([[1.0, 2.0, 3.0]]), self.lvlm_emb, self.rm_emb, MergeMethod.TIES
            )

    def test_row_index_out_of_range_rejected(self):
        aligned = align_vocab({}, {"a": 5}, {})
        with pytest.raises(VocabError, match="out of range"):
            merge_embedding_rows(aligned, emb([[0.0]]), emb([[1.0]]), emb([[2.0]]), MergeMethod.TIES)

    def test_token_in_neither_fine_tuned_vocabulary_rejected(self):
        none = np.array([-1], dtype=np.int64)
        aligned = AlignedVocab(["ghost"], np.array([0], dtype=np.int64), none, none)
        with pytest.raises(VocabError, match="'ghost' is in neither fine-tuned vocabulary"):
            merge_embedding_rows(aligned, emb([[0.0]]), emb([[1.0]]), emb([[2.0]]), MergeMethod.TIES)


class TestInvariants:
    def test_row_count_is_union_size(self, rng):
        lvlm_vocab = {f"t{i}": i for i in range(30)}
        rm_vocab = {f"t{i}": i for i in range(20)} | {f"r{i}": 20 + i for i in range(7)}
        pre_vocab = {f"t{i}": i for i in range(10)}
        aligned = align_vocab(pre_vocab, lvlm_vocab, rm_vocab)
        out = merge_embedding_rows(
            aligned,
            rng.standard_normal((10, 4)).astype(np.float32),
            rng.standard_normal((30, 4)).astype(np.float32),
            rng.standard_normal((27, 4)).astype(np.float32),
            MergeMethod.TIES,
        )
        assert out.shape[0] == len(set(lvlm_vocab) | set(rm_vocab)) == 37
        assert np.isfinite(out).all()

    def test_identical_vocabs_non_linear_returns_pre_matrix(self, rng):
        vocab = {f"t{i}": i for i in range(12)}
        pre = rng.standard_normal((12, 6)).astype(np.float32)
        aligned = align_vocab(vocab, dict(vocab), dict(vocab))
        out = merge_embedding_rows(
            aligned,
            pre,
            rng.standard_normal((12, 6)).astype(np.float32),
            rng.standard_normal((12, 6)).astype(np.float32),
            MergeMethod.DARE_TIES,
        )
        assert out.tobytes() == pre.tobytes()

    def test_rows_are_independent_of_other_tokens(self, rng):
        # merging a single token alone gives the same row as inside the full vocab
        pre_vocab = {"a": 0}
        lvlm_vocab = {"a": 0, "b": 1}
        rm_vocab = {"b": 0, "a": 1}
        pre, lvlm, rm = (
            rng.standard_normal((1, 3)).astype(np.float32),
            rng.standard_normal((2, 3)).astype(np.float32),
            rng.standard_normal((2, 3)).astype(np.float32),
        )
        full = merge_embedding_rows(
            align_vocab(pre_vocab, lvlm_vocab, rm_vocab), pre, lvlm, rm, MergeMethod.LINEAR
        )
        solo = merge_embedding_rows(
            align_vocab(pre_vocab, {"a": 0}, {"a": 1}), pre, lvlm, rm, MergeMethod.LINEAR
        )
        assert full[0].tolist() == solo[0].tolist()


def random_vocabs(rng, n_tokens: int, with_rm: bool):
    """Vocabularies over one token pool, each with shuffled row indices.

    Every token falls in one of the lvlm-only, rm-only, shared or base-only
    classes; the base also knows about half of the fine-tuned tokens.
    """
    kinds = rng.integers(0, 4 if with_rm else 2, size=n_tokens)  # lvlm, base-only, rm, shared
    pools = {"pre": [], "lvlm": [], "rm": []}
    for i, kind in enumerate(kinds):
        token = f"tok{i}"
        if kind in (0, 3):
            pools["lvlm"].append(token)
        if kind in (2, 3):
            pools["rm"].append(token)
        if kind == 1 or rng.random() < 0.5:
            pools["pre"].append(token)
    # rows in shuffled order, so neither dict order nor pool order is row order
    return {
        label: dict(zip(pool, rng.permutation(len(pool)).tolist()))
        for label, pool in pools.items()
    }


class TestAgainstReference:
    @pytest.mark.parametrize("method", [MergeMethod.LINEAR, MergeMethod.TIES])
    @pytest.mark.parametrize("seed,with_rm", [(0, True), (1, True), (2, False)])
    def test_matches_per_token_loop(self, method, seed, with_rm):
        rng = np.random.default_rng(seed)
        vocabs = random_vocabs(rng, 120, with_rm)
        pre_v, lvlm_v, rm_v = vocabs["pre"], vocabs["lvlm"], vocabs["rm"]
        pre_t, lvlm_t, rm_t = set(pre_v), set(lvlm_v), set(rm_v)
        assert lvlm_t - rm_t and pre_t & lvlm_t and pre_t - lvlm_t - rm_t
        if with_rm:  # rm-only rows and shared rows the base lacks, so every rule fires
            assert rm_t - lvlm_t and (lvlm_t & rm_t) - pre_t
        else:
            assert not rm_v
        # two spare rows past each vocabulary, as in a padded embedding matrix
        pre, lvlm, rm = (
            rng.standard_normal((len(v) + 2, 5)).astype(np.float32) for v in (pre_v, lvlm_v, rm_v)
        )
        aligned = align_vocab(pre_v, lvlm_v, rm_v)
        out = merge_embedding_rows(aligned, pre, lvlm, rm, method)
        tokens, rows = ref.embedding_rows(method.value, pre_v, lvlm_v, rm_v, pre, lvlm, rm)
        assert aligned.tokens == tokens
        assert aligned.output_vocab() == {token: i for i, token in enumerate(tokens)}
        assert out.dtype == np.float32
        assert out.tobytes() == np.asarray(rows, dtype=np.float32).reshape(len(tokens), 5).tobytes()


# bit patterns of a NaN with a payload, a negative NaN with another one, -0.0, +inf and -inf
SPECIAL_BITS = {
    Dtype.BF16: [0x7FC5, 0xFF83, 0x8000, 0x7F80, 0xFF80],
    Dtype.F16: [0x7E05, 0xFE03, 0x8000, 0x7C00, 0xFC00],
    Dtype.F32: [0x7FC00005, 0xFFC00003, 0x80000000, 0x7F800000, 0xFF800000],
}


def storage_matrix(rng, rows: int, width: int, dtype: Dtype) -> np.ndarray:
    """A storage view of ``dtype`` whose first five columns hold every special value in every row.

    Each row rotates the specials, so a mean row pairs them in many ways
    (NaN with a number, inf with -inf, -0.0 with -0.0, ...).
    """
    values = rng.standard_normal((rows, width)).astype(np.float32)
    view = np.frombuffer(narrow(values, dtype), dtype.array_dtype).reshape(rows, width).copy()
    bits = view.view(np.uint32 if dtype is Dtype.F32 else np.uint16)
    specials = np.array(SPECIAL_BITS[dtype], dtype=bits.dtype)
    for r in range(rows):
        bits[r, :5] = np.roll(specials, r)
    return view


def widened_route(aligned, pre, lvlm, rm, method, dtype):
    """Widen all three matrices whole, merge in float32, narrow the output."""
    pre, lvlm, rm = widen(pre), widen(lvlm), widen(rm)
    pre_idx, lv_idx, rm_idx = aligned.pre_rows, aligned.lvlm_rows, aligned.rm_rows
    use_pre = (pre_idx >= 0) & (method is not MergeMethod.LINEAR)
    both = ~use_pre & (lv_idx >= 0) & (rm_idx >= 0)
    only_lv = ~use_pre & (lv_idx >= 0) & (rm_idx < 0)
    only_rm = ~use_pre & (lv_idx < 0) & (rm_idx >= 0)
    out = np.empty((len(aligned.tokens), lvlm.shape[1]), dtype=np.float32)
    out[use_pre] = pre[pre_idx[use_pre]]
    out[only_lv] = lvlm[lv_idx[only_lv]]
    out[only_rm] = rm[rm_idx[only_rm]]
    out[both] = lvlm[lv_idx[both]] * np.float32(0.5) + rm[rm_idx[both]] * np.float32(0.5)
    return narrow(out, dtype)


class TestStorageDtype:
    @pytest.mark.parametrize("block", [None, 20])
    @pytest.mark.parametrize("method", [MergeMethod.LINEAR, MergeMethod.TIES])
    @pytest.mark.parametrize("dtype", [Dtype.F16, Dtype.BF16, Dtype.F32])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
    def test_same_bytes_as_widened_route(self, monkeypatch, dtype, method, block):
        if block is not None:  # two rows of width 7 a block, so every rule spans many blocks
            monkeypatch.setattr(embeddings, "_BLOCK", block)
        rng = np.random.default_rng(7)
        vocabs = random_vocabs(rng, 120, with_rm=True)
        pre, lvlm, rm = (storage_matrix(rng, len(vocabs[k]) + 2, 7, dtype) for k in ("pre", "lvlm", "rm"))
        aligned = align_vocab(vocabs["pre"], vocabs["lvlm"], vocabs["rm"])
        base = (aligned.pre_rows >= 0) & (method is not MergeMethod.LINEAR)
        in_lv, in_rm = ~base & (aligned.lvlm_rows >= 0), ~base & (aligned.rm_rows >= 0)
        # every rule fires (the base rule only for ties) and each rule spans many blocks
        assert (in_lv & in_rm).sum() > 10 and (in_lv & ~in_rm).sum() > 10 and (~in_lv & in_rm).sum() > 10
        assert base.sum() > 10 or method is MergeMethod.LINEAR
        out = merge_embedding_rows(aligned, pre, lvlm, rm, method)
        assert out.dtype == dtype.array_dtype
        assert out.shape == (len(aligned.tokens), 7)
        assert out.tobytes() == widened_route(aligned, pre, lvlm, rm, method, dtype).tobytes()

    def test_copied_rows_keep_their_bits(self):
        # one token per rule: the base row, the lvlm-only row, the mean row, the rm-only row
        bits = np.array(SPECIAL_BITS[Dtype.BF16], dtype=np.uint16)
        aligned = align_vocab({"p": 0}, {"p": 0, "l": 1, "b": 2}, {"p": 0, "r": 1, "b": 2})
        pre = bits[None, :].copy()
        lvlm = np.stack([bits, np.roll(bits, 1), np.full(5, 0x3F80, np.uint16)])  # 1.0
        rm = np.stack([bits, np.roll(bits, 2), np.full(5, 0x4000, np.uint16)])  # 2.0
        out = merge_embedding_rows(aligned, pre, lvlm, rm, MergeMethod.TIES)
        assert out.dtype == np.uint16
        assert out[0].tolist() == pre[0].tolist()
        assert out[1].tolist() == lvlm[1].tolist()
        assert out[2].tolist() == [0x3FC0] * 5  # bf16 1.5
        assert out[3].tolist() == rm[1].tolist()

    @pytest.mark.parametrize("odd", ["pre", "lvlm", "rm"])
    def test_mixed_dtypes_rejected(self, odd):
        aligned = align_vocab({"a": 0}, {"a": 0}, {"a": 0})
        views = {label: np.zeros((1, 2), np.uint16) for label in ("pre", "lvlm", "rm")}
        views[odd] = np.zeros((1, 2), np.float32)
        with pytest.raises(VocabError, match=f"embedding dtype mismatch: .*{odd} F32"):
            merge_embedding_rows(aligned, views["pre"], views["lvlm"], views["rm"], MergeMethod.LINEAR)

    def test_non_storage_view_rejected(self):
        aligned = align_vocab({"a": 0}, {"a": 0}, {"a": 0})
        wide = np.zeros((1, 2), np.float64)
        with pytest.raises(TypeError, match="not a storage view"):
            merge_embedding_rows(aligned, wide, wide, wide, MergeMethod.LINEAR)

    @pytest.mark.parametrize("method", [MergeMethod.LINEAR, MergeMethod.TIES])
    def test_bf16_merge_peaks_below_two_output_matrices(self, rng, method):
        rows, width = 4096, 512
        vocab = {f"t{i}": i for i in range(rows)}
        # half the rows shared with the base, so ties both copies and averages
        aligned = align_vocab({f"t{i}": i for i in range(rows // 2)}, vocab, dict(vocab))
        pre, lvlm, rm = (rng.integers(0, 0x7F00, (rows, width), dtype=np.uint16) for _ in range(3))
        tracemalloc.start()
        try:
            out = merge_embedding_rows(aligned, pre, lvlm, rm, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = rows * width * 2
        assert peak < 2 * output, f"peak {peak} bytes for a {output}-byte output"
        assert out.dtype == np.uint16
