import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from vlrmerge.tensorstore import checkpoint_writer, widen
from vlrmerge import (
    Checkpoint,
    CheckpointFormatError,
    Dtype,
    InputChangedError,
    Tensor,
    VocabError,
    read_checkpoint,
    read_metadata,
    read_vocab,
    write_checkpoint,
    write_vocab,
)

from helpers import make_tensor


def build_file(path, header: dict, data: bytes):
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + data)
    return path


def random_checkpoint(rng, n_tensors: int) -> Checkpoint:
    tensors = {}
    for i in range(n_tensors):
        name = f"tensor.{i}"
        dtype = [Dtype.F32, Dtype.F16, Dtype.BF16][int(rng.integers(3))]
        ndim = int(rng.integers(0, 3))
        shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
        values = rng.uniform(-4.0, 4.0, size=shape).astype(np.float32)
        tensors[name] = Tensor.from_f32(name, values, dtype)
    return Checkpoint(tensors=tensors, metadata={"origin": "random"})


class TestRoundTrip:
    def test_single_tensor_hand_built_file(self, tmp_path):
        data = struct.pack("<2f", 1.0, 2.0)
        header = {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}
        path = build_file(tmp_path / "one.safetensors", header, data)
        ckpt = read_checkpoint(path)
        assert list(ckpt.tensors) == ["w"]
        assert ckpt.tensors["w"].to_f32().tolist() == [1.0, 2.0]

    def test_empty_checkpoint(self, tmp_path):
        path = tmp_path / "empty.safetensors"
        write_checkpoint(Checkpoint(tensors={}), path)
        ckpt = read_checkpoint(path)
        assert ckpt.tensors == {}

    def test_offsets_are_contiguous_in_sorted_order(self, tmp_path):
        ckpt = Checkpoint(
            tensors={
                "b": make_tensor("b", np.ones(3)),
                "a": make_tensor("a", np.ones(2)),
            }
        )
        path = tmp_path / "two.safetensors"
        write_checkpoint(ckpt, path)
        raw = path.read_bytes()
        (n,) = struct.unpack("<Q", raw[:8])
        header = json.loads(raw[8 : 8 + n])
        assert header["a"]["data_offsets"] == [0, 8]
        assert header["b"]["data_offsets"] == [8, 20]

    def test_random_tensors_round_trip(self, rng, tmp_path):
        ckpt = random_checkpoint(rng, 100)
        path = tmp_path / "many.safetensors"
        write_checkpoint(ckpt, path)
        loaded = read_checkpoint(path)
        assert loaded.tensors == ckpt.tensors
        assert loaded.metadata == ckpt.metadata

    def test_rewrite_is_byte_identical(self, rng, tmp_path):
        ckpt = random_checkpoint(rng, 50)
        first = tmp_path / "first.safetensors"
        second = tmp_path / "second.safetensors"
        write_checkpoint(ckpt, first)
        write_checkpoint(read_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_declared_bytes_cover_data_region(self, rng, tmp_path):
        ckpt = random_checkpoint(rng, 20)
        path = tmp_path / "cover.safetensors"
        write_checkpoint(ckpt, path)
        raw = path.read_bytes()
        (n,) = struct.unpack("<Q", raw[:8])
        declared = sum(len(t.data) for t in ckpt.tensors.values())
        assert len(raw) - 8 - n == declared


class TestOneCopyRead:
    def test_data_reads_its_own_payload_once_and_keeps_it(self, rng, tmp_path):
        # 8 MiB of payload: one tensor's ``data`` reads a quarter of it, not the whole file
        values = rng.standard_normal((4, 1 << 19)).astype(np.float32)
        tensors = {f"w{i}": Tensor.from_f32(f"w{i}", values[i], Dtype.F32) for i in range(4)}
        path = tmp_path / "big.safetensors"
        write_checkpoint(Checkpoint(tensors=tensors), path)
        size = path.stat().st_size
        ckpt = read_checkpoint(path)
        tracemalloc.start()
        try:
            data = ckpt.tensors["w2"].data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * size / 4
        assert isinstance(data, memoryview) and data.readonly
        assert bytes(data) == values[2].tobytes()
        path.write_bytes(b"")  # kept: asked again, it is not read from the now empty file
        assert ckpt.tensors["w2"].data is data

    def test_peak_memory_is_about_one_file(self, rng, tmp_path):
        # 8 MiB of payload: each ``data`` reads its payload once; copies would peak at 2-3 times it
        values = rng.standard_normal((4, 1 << 19)).astype(np.float32)
        tensors = {f"w{i}": Tensor.from_f32(f"w{i}", values[i], Dtype.F32) for i in range(4)}
        path = tmp_path / "big.safetensors"
        write_checkpoint(Checkpoint(tensors=tensors), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            ckpt = read_checkpoint(path)
            for t in ckpt.tensors.values():
                t.data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size <= peak < 1.1 * size
        assert ckpt.tensors["w3"].to_f32().tobytes() == values[3].tobytes()


class TestHeaderOnlyRead:
    def test_opening_reads_the_header_only(self, rng, tmp_path):
        # 8 MiB of payload: opening allocates a sliver of it, and ``load`` one tensor
        values = rng.standard_normal((4, 1 << 19)).astype(np.float32)
        tensors = {f"w{i}": Tensor.from_f32(f"w{i}", values[i], Dtype.F32) for i in range(4)}
        path = tmp_path / "big.safetensors"
        write_checkpoint(Checkpoint(tensors=tensors), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            ckpt = read_checkpoint(path)
            opened = tracemalloc.get_traced_memory()[1]
            loaded = ckpt.tensors["w3"].load()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opened < size / 100
        assert peak < 1.1 * size / 4
        assert loaded.tobytes() == values[3].tobytes()

    def test_load_and_chunks_keep_nothing(self, rng, tmp_path):
        ckpt = random_checkpoint(rng, 3)
        path = tmp_path / "ckpt.safetensors"
        write_checkpoint(ckpt, path)
        opened = read_checkpoint(path).tensors
        for name, t in opened.items():
            assert t.load().tobytes() == bytes(ckpt.tensors[name].data)
            assert b"".join(bytes(piece) for piece in t.chunks(7)) == bytes(ckpt.tensors[name].data)
        # nothing was kept, so every payload is read again from the now empty file
        path.write_bytes(b"")
        for t in opened.values():
            with pytest.raises(CheckpointFormatError, match="cut short after it was opened"):
                t.data

    def test_load_into_a_buffer(self, rng, tmp_path):
        ckpt = random_checkpoint(rng, 4)
        path = tmp_path / "ckpt.safetensors"
        write_checkpoint(ckpt, path)
        buffer = np.empty(64, np.float32)
        for name, t in read_checkpoint(path).tensors.items():
            view = t.load(buffer)
            assert np.shares_memory(view, buffer)
            assert view.shape == t.shape and view.tobytes() == bytes(ckpt.tensors[name].data)
        with pytest.raises(ValueError, match="cannot hold"):
            t.load(np.empty(0, np.float32))  # every tensor here holds at least one element

    def test_file_cut_short_after_opening_is_a_named_error(self, rng, tmp_path):
        path = tmp_path / "ckpt.safetensors"
        write_checkpoint(random_checkpoint(rng, 2), path)
        last = read_checkpoint(path).tensors["tensor.1"]
        size = path.stat().st_size
        os.truncate(path, size - 2)
        for read in (lambda: last.load(), lambda: list(last.chunks()), lambda: last.data):
            with pytest.raises(CheckpointFormatError, match=f"file ends at byte {size - 2}"):
                read()

    @pytest.mark.parametrize("change", ["rewritten", "replaced", "removed"])
    def test_changed_file_is_a_named_error(self, rng, tmp_path, change):
        path = tmp_path / "ckpt.safetensors"
        write_checkpoint(random_checkpoint(rng, 2), path)
        ckpt = read_checkpoint(path)
        ckpt.check_unchanged()
        if change == "rewritten":  # in place, one byte longer
            with open(path, "ab") as f:
                f.write(b"\x00")
        elif change == "replaced":
            write_checkpoint(random_checkpoint(rng, 2), path)
        else:
            path.unlink()
        with pytest.raises(InputChangedError, match="changed while it was being read"):
            ckpt.check_unchanged()

    def test_directory_is_an_os_error(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            read_checkpoint(tmp_path)


class TestStreamedWriter:
    LAYOUT = {"b": (Dtype.F32, (3,)), "a": (Dtype.BF16, (2, 2))}

    def test_pieces_in_any_order_give_write_checkpoint_bytes(self, rng, tmp_path):
        tensors = {name: Tensor.from_f32(name, rng.standard_normal(shape), dtype)
                   for name, (dtype, shape) in self.LAYOUT.items()}
        write_checkpoint(Checkpoint(tensors=tensors, metadata={"k": "v"}), tmp_path / "whole")
        with checkpoint_writer(tmp_path / "streamed", self.LAYOUT, {"k": "v"}) as writer:
            writer.write("b", tensors["b"].data[4:], at=4)
            writer.write("a", tensors["a"].data)
            writer.write("b", tensors["b"].data[:4])
        assert (tmp_path / "streamed").read_bytes() == (tmp_path / "whole").read_bytes()

    def test_unwritten_payload_leaves_no_file(self, tmp_path):
        with pytest.raises(CheckpointFormatError, match="1 tensor payload.s. not fully written, the first 'b'"):
            with checkpoint_writer(tmp_path / "out", self.LAYOUT, {}) as writer:
                writer.write("a", b"\x00" * 8)
        assert list(tmp_path.iterdir()) == []

    def test_overrun_is_rejected(self, tmp_path):
        with pytest.raises(CheckpointFormatError, match="overrun its 8-byte payload"):
            with checkpoint_writer(tmp_path / "out", self.LAYOUT, {}) as writer:
                writer.write("a", b"\x00" * 4, at=6)
        assert list(tmp_path.iterdir()) == []


class TestMalformed:
    def test_truncated_header_length(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(CheckpointFormatError, match="too short"):
            read_checkpoint(path)

    def test_header_length_past_eof(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(struct.pack("<Q", 1000) + b"{}")
        with pytest.raises(CheckpointFormatError, match="exceeds file size"):
            read_checkpoint(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "x"
        blob = b"not json at all"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(CheckpointFormatError, match="not valid UTF-8 JSON"):
            read_checkpoint(path)

    def test_header_not_object(self, tmp_path):
        path = tmp_path / "x"
        blob = b"[1,2]"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(CheckpointFormatError, match="must be an object"):
            read_checkpoint(path)

    def test_unknown_dtype(self, tmp_path):
        header = {"w": {"dtype": "I8", "shape": [2], "data_offsets": [0, 2]}}
        path = build_file(tmp_path / "x", header, b"\x00\x00")
        with pytest.raises(CheckpointFormatError, match="unknown dtype 'I8'"):
            read_checkpoint(path)

    def test_negative_shape(self, tmp_path):
        header = {"w": {"dtype": "F32", "shape": [-2], "data_offsets": [0, 8]}}
        path = build_file(tmp_path / "x", header, b"\x00" * 8)
        with pytest.raises(CheckpointFormatError, match="non-negative"):
            read_checkpoint(path)

    def test_out_of_bounds_offsets(self, tmp_path):
        header = {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}
        path = build_file(tmp_path / "x", header, b"\x00" * 4)
        with pytest.raises(CheckpointFormatError, match="out-of-bounds data offsets"):
            read_checkpoint(path)

    def test_overlapping_offsets(self, tmp_path):
        header = {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        }
        path = build_file(tmp_path / "x", header, b"\x00" * 12)
        with pytest.raises(CheckpointFormatError, match="overlaps"):
            read_checkpoint(path)

    def test_length_mismatch_with_shape(self, tmp_path):
        header = {"w": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}
        path = build_file(tmp_path / "x", header, b"\x00" * 8)
        with pytest.raises(CheckpointFormatError, match="expected 12"):
            read_checkpoint(path)

    def test_duplicate_tensor_name(self, tmp_path):
        blob = (
            b'{"w": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},'
            b' "w": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]}}'
        )
        path = tmp_path / "x"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * 8)
        with pytest.raises(CheckpointFormatError, match="duplicate tensor name 'w'"):
            read_checkpoint(path)

    def test_gap_in_data_region(self, tmp_path):
        header = {
            "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
        }
        path = build_file(tmp_path / "x", header, b"\x00" * 12)
        with pytest.raises(CheckpointFormatError, match="unaccounted bytes"):
            read_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        header = {"w": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}}
        path = build_file(tmp_path / "x", header, b"\x00" * 10)
        with pytest.raises(CheckpointFormatError, match="trailing bytes"):
            read_checkpoint(path)


class TestReadMetadata:
    def test_matches_read_checkpoint(self, rng, tmp_path):
        ckpt = random_checkpoint(rng, 4)
        ckpt.metadata = {"recipe.method": "ties", "input.pre.sha256": "ab" * 32}
        path = tmp_path / "x"
        write_checkpoint(ckpt, path)
        assert read_metadata(path) == read_checkpoint(path).metadata == ckpt.metadata

    def test_reads_the_header_only(self, tmp_path):
        header = {"__metadata__": {"k": "v"}, "w": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}}
        path = build_file(tmp_path / "x", header, b"\x00" * 10)
        # the header is checked against the file's size, not against bytes read
        for read in (read_metadata, read_checkpoint):
            with pytest.raises(CheckpointFormatError, match="6 trailing bytes"):
                read(path)

    @pytest.mark.parametrize("raw,message", [
        (b"\x01\x02", "too short"),
        (struct.pack("<Q", 1000) + b"{}", "exceeds file size"),
        (struct.pack("<Q", 8) + b"not json", "not valid UTF-8 JSON"),
        (struct.pack("<Q", 5) + b"[1,2]", "must be an object"),
        (struct.pack("<Q", 26) + b'{"__metadata__": {"k": 1}}', "must map strings to strings"),
    ])
    def test_malformed_header_rejected_as_by_read_checkpoint(self, tmp_path, raw, message):
        path = tmp_path / "x"
        path.write_bytes(raw)
        for read in (read_metadata, read_checkpoint):
            with pytest.raises(CheckpointFormatError, match=message):
                read(path)


def f16_reference(value: float) -> float:
    # independent binary16 narrowing via the stdlib soft-float codec;
    # beyond-range values saturate to +-inf per the documented cast contract
    try:
        return struct.unpack("<e", struct.pack("<e", value))[0]
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def bf16_reference(value: float) -> float:
    # independent round-to-nearest-even narrowing done with integer math
    (bits,) = struct.unpack("<I", struct.pack("<f", value))
    low = bits & 0xFFFF
    bits >>= 16
    if low > 0x8000 or (low == 0x8000 and bits & 1):
        bits += 1
    (out,) = struct.unpack("<f", struct.pack("<I", (bits & 0xFFFF) << 16))
    return out


class TestCasts:
    def test_exact_value_survives_bf16(self):
        t = make_tensor("w", [1.0], Dtype.F32)
        narrowed = Tensor.from_f32(t.name, t.to_f32(), Dtype.BF16)
        back = Tensor.from_f32(t.name, narrowed.to_f32(), Dtype.F32)
        assert back.to_f32().tolist() == [1.0]

    def test_f16_narrowing_matches_soft_float(self):
        t = make_tensor("w", [0.1], Dtype.F32)
        narrowed = Tensor.from_f32(t.name, t.to_f32(), Dtype.F16)
        assert narrowed.to_f32().tolist() == [f16_reference(0.1)]

    def test_f16_narrowing_random_values_match_soft_float(self, rng):
        values = rng.uniform(-70000.0, 70000.0, size=256).astype(np.float32)
        t = make_tensor("w", values)
        narrowed = Tensor.from_f32(t.name, t.to_f32(), Dtype.F16).to_f32()
        expected = [f16_reference(float(v)) for v in values]
        assert narrowed.tolist() == expected

    def test_bf16_narrowing_random_values_match_reference(self, rng):
        values = rng.standard_normal(256).astype(np.float32) * 1e3
        t = make_tensor("w", values)
        narrowed = Tensor.from_f32(t.name, t.to_f32(), Dtype.BF16).to_f32()
        expected = [bf16_reference(float(v)) for v in values]
        assert narrowed.tolist() == expected

    def test_f16_overflow_saturates_to_infinity(self):
        t = make_tensor("w", [1e6, -1e6], Dtype.F32)
        assert Tensor.from_f32(t.name, t.to_f32(), Dtype.F16).to_f32().tolist() == [np.inf, -np.inf]

    def test_all_f16_bit_patterns_round_trip(self):
        bits = np.arange(65536, dtype=np.uint16)
        t = Tensor(name="w", dtype=Dtype.F16, shape=(65536,), data=bits.tobytes())
        widened = Tensor.from_f32(t.name, t.to_f32(), Dtype.F32)
        back = Tensor.from_f32(t.name, widened.to_f32(), Dtype.F16)
        assert back.data == t.data

    def test_all_bf16_bit_patterns_round_trip(self):
        bits = np.arange(65536, dtype=np.uint16)
        t = Tensor(name="w", dtype=Dtype.BF16, shape=(65536,), data=bits.tobytes())
        widened = Tensor.from_f32(t.name, t.to_f32(), Dtype.F32)
        back = Tensor.from_f32(t.name, widened.to_f32(), Dtype.BF16)
        assert back.data == t.data

    def test_widening_is_injective_on_finite_values(self):
        bits = np.arange(65536, dtype=np.uint16)
        for dtype in (Dtype.F16, Dtype.BF16):
            t = Tensor(name="w", dtype=dtype, shape=(65536,), data=bits.tobytes())
            widened = t.to_f32()
            finite = widened[np.isfinite(widened)]
            assert len(np.unique(finite)) == len(finite) - 1  # +0.0 and -0.0 compare equal

    @pytest.mark.parametrize("dtype", list(Dtype))
    def test_dtype_of_inverts_array_dtype(self, dtype):
        assert Dtype.of(np.zeros(3, dtype.array_dtype)) is dtype
        assert Dtype.of(make_tensor("w", [1.0, 2.0], dtype).array()) is dtype

    @pytest.mark.parametrize("array_dtype", [np.float64, np.int16, ">f4"])
    def test_arrays_that_are_no_storage_view_rejected(self, array_dtype):
        array = np.zeros(3, array_dtype)
        with pytest.raises(TypeError, match="not a storage view"):
            Dtype.of(array)
        with pytest.raises(TypeError, match="not a storage view"):
            widen(array)

    def test_cast_preserves_name_and_shape(self, rng):
        t = make_tensor("layer.w", rng.standard_normal((3, 4)), Dtype.F32)
        cast = Tensor.from_f32(t.name, t.to_f32(), Dtype.BF16)
        assert cast.name == t.name and cast.shape == t.shape


class TestVocabSidecar:
    def test_round_trip(self, tmp_path):
        vocab = {"hello": 0, "world": 1, "<eos>": 2}
        path = tmp_path / "v.vocab"
        write_vocab(vocab, path)
        assert read_vocab(path) == vocab

    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_text("a\nb\na\n", encoding="utf-8")
        with pytest.raises(VocabError, match="duplicate token 'a'"):
            read_vocab(path)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_bytes(b"a\n\xff\n")
        with pytest.raises(VocabError, match="v.vocab: not UTF-8 text: invalid start byte"):
            read_vocab(path)

    def test_non_contiguous_indices_rejected(self, tmp_path):
        with pytest.raises(VocabError, match="0..n-1"):
            write_vocab({"a": 0, "b": 2}, tmp_path / "v.vocab")

    def test_sidecar_auto_loaded(self, tmp_path, rng):
        ckpt = random_checkpoint(rng, 2)
        path = tmp_path / "m.safetensors"
        write_checkpoint(ckpt, path)
        write_vocab({"x": 0}, tmp_path / "m.safetensors.vocab")
        assert read_checkpoint(path).vocab == {"x": 0}


def test_tensor_invariant_rejects_wrong_payload_size():
    with pytest.raises(CheckpointFormatError, match="needs 8"):
        Tensor(name="w", dtype=Dtype.F32, shape=(2,), data=b"\x00" * 7)


def test_zero_dim_tensor_holds_one_element():
    t = make_tensor("s", np.float32(3.5))
    assert t.shape == () and t.numel == 1
    assert t.to_f32().item() == 3.5
