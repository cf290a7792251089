import tracemalloc

import numpy as np
import pytest

from vlrmerge import (
    Checkpoint,
    Dtype,
    MergeMethod,
    NonFiniteWeightError,
    VocabError,
    align_vocab,
    merging,
    read_checkpoint,
    write_checkpoint,
)
from vlrmerge.embeddings import check_embedding_rows, merge_embedding_rows, unread_rows
from vlrmerge.tensorstore import Tensor, as_tensor, narrow, widen

import reference as ref
from helpers import merge_embedding


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
        with pytest.raises(VocabError, match="^lvlm: vocabulary row index 0 is not unique$"):
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
        out = merge_embedding(
            self.aligned, self.pre_emb, self.lvlm_emb, self.rm_emb, MergeMethod.TASK_ARITHMETIC
        )
        assert out[1].tolist() == [2.0, 2.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [Dtype.F32, Dtype.BF16])
    def test_mean_of_rows_near_the_float32_maximum_does_not_overflow(self, dtype):
        vocab = {"both": 0}
        rows = np.frombuffer(narrow(emb([[3e38, -3e38]]), dtype), dtype.array_dtype).reshape(1, 2)
        out = merge_embedding(align_vocab({}, vocab, vocab), rows, rows, rows, MergeMethod.TIES)
        assert out.tobytes() == rows.tobytes()
        assert np.isfinite(widen(out)).all()

    def test_rule_two_single_model_row_verbatim(self):
        out = merge_embedding(
            self.aligned, self.pre_emb, self.lvlm_emb, self.rm_emb, MergeMethod.TASK_ARITHMETIC
        )
        assert out[2].tolist() == [5.0, 5.0]
        assert out[3].tolist() == [7.0, 7.0]

    def test_rule_one_pre_row_and_linear_exception(self):
        non_linear = merge_embedding(
            self.aligned, self.pre_emb, self.lvlm_emb, self.rm_emb, MergeMethod.TASK_ARITHMETIC
        )
        assert non_linear[0].tolist() == [10.0, 10.0]
        linear = merge_embedding(
            self.aligned, self.pre_emb, self.lvlm_emb, self.rm_emb, MergeMethod.LINEAR
        )
        assert linear[0].tolist() == [1.5, 1.5]  # mean of lvlm/rm rows, pre skipped

    def test_output_shape(self):
        out = merge_embedding(
            self.aligned, self.pre_emb, self.lvlm_emb, self.rm_emb, MergeMethod.TIES
        )
        assert out.shape == (4, 2)


class TestInvariants:
    def test_row_count_is_union_size(self, rng):
        lvlm_vocab = {f"t{i}": i for i in range(30)}
        rm_vocab = {f"t{i}": i for i in range(20)} | {f"r{i}": 20 + i for i in range(7)}
        pre_vocab = {f"t{i}": i for i in range(10)}
        aligned = align_vocab(pre_vocab, lvlm_vocab, rm_vocab)
        out = merge_embedding(
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
        out = merge_embedding(
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
        full = merge_embedding(
            align_vocab(pre_vocab, lvlm_vocab, rm_vocab), pre, lvlm, rm, MergeMethod.LINEAR
        )
        solo = merge_embedding(
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
        out = merge_embedding(aligned, pre, lvlm, rm, method)
        tokens, rows = ref.embedding_rows(method.value, pre_v, lvlm_v, rm_v, pre, lvlm, rm)
        assert aligned.tokens == tokens
        assert aligned.output_vocab() == {token: i for i, token in enumerate(tokens)}
        assert out.dtype == np.float32
        assert out.tobytes() == np.asarray(rows, dtype=np.float32).reshape(len(tokens), 5).tobytes()


# bit patterns of -0.0, the smallest subnormal, a negative subnormal, the largest subnormal and the lowest number
SPECIAL_BITS = {
    Dtype.BF16: [0x8000, 0x0001, 0x8005, 0x007F, 0xFF7F],
    Dtype.F16: [0x8000, 0x0001, 0x8005, 0x03FF, 0xFBFF],
    Dtype.F32: [0x80000000, 0x00000001, 0x80000005, 0x007FFFFF, 0xFF7FFFFF],
}
# bit patterns of a NaN with a payload, +inf and -inf
NON_FINITE_BITS = {
    Dtype.BF16: [0x7FC5, 0x7F80, 0xFF80],
    Dtype.F16: [0x7E05, 0x7C00, 0xFC00],
    Dtype.F32: [0x7FC00005, 0x7F800000, 0xFF800000],
}


def storage_matrix(rng, rows: int, width: int, dtype: Dtype) -> np.ndarray:
    """A storage view of ``dtype`` whose first five columns hold every special value in every row.

    Each row rotates the specials, so a mean row pairs them in many ways
    (a subnormal with -0.0, -0.0 with -0.0, the lowest number with a subnormal, ...).
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
    def test_same_bytes_as_widened_route(self, monkeypatch, dtype, method, block):
        if block is not None:  # two rows of width 7 a block, so every rule spans many blocks
            monkeypatch.setattr(merging, "_BLOCK", block)
        rng = np.random.default_rng(7)
        vocabs = random_vocabs(rng, 120, with_rm=True)
        pre, lvlm, rm = (storage_matrix(rng, len(vocabs[k]) + 2, 7, dtype) for k in ("pre", "lvlm", "rm"))
        aligned = align_vocab(vocabs["pre"], vocabs["lvlm"], vocabs["rm"])
        base = (aligned.pre_rows >= 0) & (method is not MergeMethod.LINEAR)
        in_lv, in_rm = ~base & (aligned.lvlm_rows >= 0), ~base & (aligned.rm_rows >= 0)
        # every rule fires (the base rule only for ties) and each rule spans many blocks
        assert (in_lv & in_rm).sum() > 10 and (in_lv & ~in_rm).sum() > 10 and (~in_lv & in_rm).sum() > 10
        assert base.sum() > 10 or method is MergeMethod.LINEAR
        out = merge_embedding(aligned, pre, lvlm, rm, method)
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
        out = merge_embedding(aligned, pre, lvlm, rm, MergeMethod.TIES)
        assert out.dtype == np.uint16
        assert out[0].tolist() == pre[0].tolist()
        assert out[1].tolist() == lvlm[1].tolist()
        assert out[2].tolist() == [0x3FC0] * 5  # bf16 1.5
        assert out[3].tolist() == rm[1].tolist()

    @pytest.mark.parametrize("method", [MergeMethod.LINEAR, MergeMethod.TIES])
    def test_bf16_merge_peaks_near_the_output_bytes(self, rng, method):
        rows, width = 4096, 512
        vocab = {f"t{i}": i for i in range(rows)}
        # half the rows shared with the base, so ties both copies and averages
        aligned = align_vocab({f"t{i}": i for i in range(rows // 2)}, vocab, dict(vocab))
        pre, lvlm, rm = (rng.integers(0, 0x7F00, (rows, width), dtype=np.uint16) for _ in range(3))
        merge_embedding(aligned, pre, lvlm, rm, method)  # the pool and lazy imports exist
        tracemalloc.start()
        try:
            out = merge_embedding(aligned, pre, lvlm, rm, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the blocks live in the workers' mappings: beside the collected 4 MiB output, 0.29 to 0.37 MiB was
        # measured at two workers, where a matrix-sized temporary adds 4 MiB
        output = rows * width * 2
        assert peak < output * 1.25, f"peak {peak} bytes for a {output}-byte output"
        assert out.dtype == np.uint16


class TestNonFiniteRows:
    """A NaN or infinity in a matrix the merge reads is a NonFiniteWeightError naming the model and row."""

    @staticmethod
    def matrices(rng, vocabs, dtype):
        return {k: storage_matrix(rng, len(vocabs[k]) + 2, 7, dtype) for k in ("pre", "lvlm", "rm")}

    @pytest.mark.parametrize("bad", ["taken", "taken-and-unread", "unread"])
    @pytest.mark.parametrize("model", ["pre", "lvlm", "rm"])
    @pytest.mark.parametrize("dtype", [Dtype.F16, Dtype.BF16, Dtype.F32])
    def test_rejected_by_model_and_row(self, rng, monkeypatch, dtype, model, bad):
        vocabs = random_vocabs(rng, 40, with_rm=True)
        aligned = align_vocab(vocabs["pre"], vocabs["lvlm"], vocabs["rm"])
        monkeypatch.setattr(merging, "_BLOCK", 1)  # one output row a block
        # the error names the first failing piece's row: the blocks come in output order, then the checks
        # of the rows no output row takes, in row order
        unread = unread_rows(aligned, MergeMethod.TIES, {k: len(v) + 2 for k, v in vocabs.items()})[model]
        rows = {"pre": aligned.pre_rows, "lvlm": aligned.lvlm_rows, "rm": aligned.rm_rows}[model]
        taken = [row for row in rows.tolist() if row >= 0 and row not in unread]  # in output order
        if bad == "taken":  # the first row taken, and the lowest row taken after it
            named, other = taken[0], min(taken[1:])
        elif bad == "taken-and-unread":
            named, other = taken[-1], unread[0]
        else:
            named, other = unread[0], unread[-1]
        for pattern in NON_FINITE_BITS[dtype]:
            views = self.matrices(rng, vocabs, dtype)
            bits = views[model].view(np.uint32 if dtype is Dtype.F32 else np.uint16)
            bits[named, 6] = bits[other, 0] = pattern
            for jobs in (1, 2):
                with pytest.raises(NonFiniteWeightError, match=f"^{model} embedding row {named} holds a non-finite"):
                    merge_embedding(aligned, *views.values(), MergeMethod.TIES, jobs=jobs)

    def test_linear_never_reads_the_base_matrix(self, rng):
        vocabs = random_vocabs(rng, 40, with_rm=True)
        aligned = align_vocab(vocabs["pre"], vocabs["lvlm"], vocabs["rm"])
        views = self.matrices(rng, vocabs, Dtype.BF16)
        finite = merge_embedding(aligned, *views.values(), MergeMethod.LINEAR)
        views["pre"][:] = NON_FINITE_BITS[Dtype.BF16][0]
        assert merge_embedding(aligned, *views.values(), MergeMethod.LINEAR).tobytes() == finite.tobytes()


def block_space(rows: int, width: int) -> merging._Buffers:
    """A worker's buffers, the kernel's slots, for a block of ``rows`` rows of ``width``."""
    return merging._Buffers(merging._kernel_slots(0, rows * width, False))


class TestRowRanges:
    """A range of output rows merges alone to the same bytes as inside the whole matrix."""

    @pytest.mark.parametrize("method", list(MergeMethod))
    def test_any_split_gives_the_whole_matrix(self, rng, method):
        vocabs = random_vocabs(rng, 120, with_rm=True)
        views = {k: storage_matrix(rng, len(vocabs[k]) + 2, 7, Dtype.BF16) for k in ("pre", "lvlm", "rm")}
        aligned = align_vocab(vocabs["pre"], vocabs["lvlm"], vocabs["rm"])
        whole = merge_embedding(aligned, *views.values(), method)
        sources = [as_tensor(k, view) for k, view in views.items()]
        bounds = [0, 1, 2, 17, 50, 51, len(aligned.tokens)]
        ranges = [range(a, b) for a, b in zip(bounds, bounds[1:])]
        with block_space(max(map(len, ranges)), 7) as space:
            parts = [merge_embedding_rows(aligned, *sources, method, rows, space).copy() for rows in ranges]
        assert [len(part) for part in parts] == [len(rows) for rows in ranges]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("dtype", [Dtype.BF16, Dtype.F32])
    @pytest.mark.parametrize("method", list(MergeMethod))
    def test_blocks_in_one_worker_mapping_give_the_whole_matrix(self, rng, method, dtype):
        vocabs = random_vocabs(rng, 120, with_rm=True)
        views = {k: storage_matrix(rng, len(vocabs[k]) + 2, 7, dtype) for k in ("pre", "lvlm", "rm")}
        aligned = align_vocab(vocabs["pre"], vocabs["lvlm"], vocabs["rm"])
        whole = merge_embedding(aligned, *views.values(), method)
        sources = {k: as_tensor(k, view) for k, view in views.items()}
        step, parts = 2, []
        with block_space(step, 7) as space:
            mapping = space.mapping
            n = len(aligned.tokens)
            for rows in (range(start, min(start + step, n)) for start in range(0, n, step)):
                block = merge_embedding_rows(aligned, *sources.values(), method, rows, space)
                assert np.shares_memory(block, np.frombuffer(mapping, np.uint8))
                parts.append(block.copy())  # the next block overwrites it
                del block  # no view into the mapping may outlive it
            for label, rows in unread_rows(aligned, method, {k: len(v) for k, v in views.items()}).items():
                check_embedding_rows(label, sources[label], rows[:step], space)
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("method", [MergeMethod.LINEAR, MergeMethod.TIES])
    def test_ranges_and_unread_rows_check_every_row_the_method_reads(self, rng, method):
        vocabs = random_vocabs(rng, 40, with_rm=True)
        aligned = align_vocab(vocabs["pre"], vocabs["lvlm"], vocabs["rm"])
        views = {k: storage_matrix(rng, len(vocabs[k]) + 2, 7, Dtype.BF16) for k in ("pre", "lvlm", "rm")}
        unread = unread_rows(aligned, method, {k: len(v) for k, v in views.items()})
        assert set(unread) == ({"lvlm", "rm"} if method is MergeMethod.LINEAR else {"pre", "lvlm", "rm"})
        # each padding row is read by no output row
        assert all({len(views[k]) - 2, len(views[k]) - 1} <= set(rows.tolist()) for k, rows in unread.items())
        for label, view in views.items():
            for row in range(len(view)):
                bad = dict(views, **{label: view.copy()})
                bad[label][row, 3] = NON_FINITE_BITS[Dtype.BF16][1]
                if label not in unread:  # linear never reads the base matrix
                    merge_embedding(aligned, *bad.values(), method)
                    continue
                with pytest.raises(NonFiniteWeightError, match=f"^{label} embedding row {row} holds"):
                    merge_embedding(aligned, *bad.values(), method)
                sources = {k: as_tensor(k, matrix) for k, matrix in bad.items()}
                with pytest.raises(NonFiniteWeightError, match=f"^{label} embedding row {row} holds"), \
                        block_space(len(view), 7) as space:
                    for start in range(len(aligned.tokens)):
                        merge_embedding_rows(aligned, *sources.values(), method, range(start, start + 1), space)
                    check_embedding_rows(label, sources[label], unread[label], space)

    def test_check_names_the_first_bad_row_in_the_order_given(self, rng):
        view = storage_matrix(rng, 9, 7, Dtype.F16)
        view.view(np.uint16)[3, 6] = view.view(np.uint16)[5, 0] = NON_FINITE_BITS[Dtype.F16][0]
        source = as_tensor("rm", view)
        with block_space(3, 7) as space:
            check_embedding_rows("rm", source, np.array([0, 1, 2]), space)
        with pytest.raises(NonFiniteWeightError, match="^rm embedding row 5 holds"), block_space(3, 7) as space:
            check_embedding_rows("rm", source, np.array([8, 5, 3]), space)


class TestFileTensors:
    """An embedding read from its file merges to the bytes of the same matrix in memory."""

    @pytest.mark.parametrize("dtype", [Dtype.F32, Dtype.BF16])
    def test_a_file_tensor_merges_as_its_in_memory_copy(self, rng, tmp_path, dtype):
        vocabs = random_vocabs(rng, 60, with_rm=True)
        aligned = align_vocab(vocabs["pre"], vocabs["lvlm"], vocabs["rm"])
        views = {k: storage_matrix(rng, len(vocabs[k]) + 2, 7, dtype) for k in ("pre", "lvlm", "rm")}
        path = tmp_path / "emb.safetensors"
        write_checkpoint(Checkpoint({k: Tensor(k, dtype, v.shape, v.tobytes()) for k, v in views.items()}), path)
        opened = [read_checkpoint(path).tensors[k] for k in ("pre", "lvlm", "rm")]
        assert all(t._data is None for t in opened)  # each holds only its place in the file
        for method in (MergeMethod.LINEAR, MergeMethod.TIES):
            want = merge_embedding(aligned, *views.values(), method).tobytes()
            assert merge_embedding(aligned, *opened, method).tobytes() == want
