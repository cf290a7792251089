import numpy as np
import pytest

from vlrmerge import AlignedVocab, MergeMethod, VocabError, align_vocab, merge_embedding_rows

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
