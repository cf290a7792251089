import hashlib
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from vlrmerge.tensorstore import (
    CheckpointFile,
    checkpoint_writer,
    count_vocab,
    default_vocab_path,
    first_non_finite,
    read_header,
    widen,
)
from vlrmerge import (
    Checkpoint,
    CheckpointFormatError,
    Dtype,
    InputChangedError,
    MergeMethod,
    MergeRecipe,
    Tensor,
    VocabError,
    read_checkpoint,
    read_metadata,
    read_vocab,
    write_checkpoint,
    write_vocab,
)

from helpers import JSON_PAST_THE_PARSER, assemble, classified_toy_triple, make_tensor


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

    @pytest.mark.parametrize("dtype", [Dtype.BF16, Dtype.F32])
    def test_load_rows_reads_one_run_at_a_time(self, rng, tmp_path, monkeypatch, dtype):
        values = rng.standard_normal((20, 3)).astype(np.float32)
        tensor = Tensor.from_f32("emb", values, dtype)
        path = tmp_path / "emb.safetensors"
        write_checkpoint(Checkpoint(tensors={"emb": tensor}), path)
        opened = read_checkpoint(path).tensors["emb"]
        real, reads = CheckpointFile.read_into, []

        def spy(self, buffer, offset):
            reads.append((offset, memoryview(buffer).nbytes))
            return real(self, buffer, offset)

        monkeypatch.setattr(CheckpointFile, "read_into", spy)
        rows = np.array([4, 5, 6, 2, 3, 19, 0])  # runs 4-6, 2-3, 19 and 0
        buffer = np.empty(64, np.float32)
        for source in (opened, tensor):  # in a file, in memory
            reads.clear()
            got = source.load_rows(rows, buffer)
            assert np.shares_memory(got, buffer)
            assert got.tobytes() == tensor.array()[rows].tobytes()
        row = 3 * dtype.itemsize
        first = opened._place[1]
        assert reads == []  # the tensor in memory reads no file
        opened.load_rows(rows)
        assert [(offset - first) // row for offset, _ in reads] == [4, 2, 19, 0]
        assert [size // row for _, size in reads] == [3, 2, 1, 1]
        assert opened.load_rows(np.array([], np.int64)).shape == (0, 3)
        with pytest.raises(IndexError, match="not all inside the 20"):
            opened.load_rows(np.array([3, 20]))

    @pytest.mark.parametrize("dtype", [Dtype.BF16, Dtype.F32])
    def test_load_range_reads_a_flat_range_with_one_read(self, rng, tmp_path, monkeypatch, dtype):
        tensor = Tensor.from_f32("w", rng.standard_normal((6, 5)).astype(np.float32), dtype)
        path = tmp_path / "w.safetensors"
        write_checkpoint(Checkpoint(tensors={"w": tensor}), path)
        opened = read_checkpoint(path).tensors["w"]
        reads = []
        real = CheckpointFile.read_into
        monkeypatch.setattr(CheckpointFile, "read_into",
                            lambda self, buffer, offset: reads.append(offset) or real(self, buffer, offset))
        buffer = np.empty(64, np.float32)
        flat = tensor.array().reshape(-1)
        for start, stop in ((0, 30), (7, 23), (29, 30)):
            reads.clear()
            got = opened.load_range(start, stop, buffer)
            assert np.shares_memory(got, buffer) and got.dtype == dtype.array_dtype
            assert got.tobytes() == flat[start:stop].tobytes()
            assert reads == [opened._place[1] + start * dtype.itemsize]
            in_memory = tensor.load_range(start, stop, buffer)
            assert np.shares_memory(in_memory, flat) and in_memory.tobytes() == got.tobytes()
        assert opened.load_range(12, 12).size == 0
        for start, stop in ((-1, 3), (4, 3), (0, 31)):
            with pytest.raises(IndexError, match="not inside the 30 of w"):
                opened.load_range(start, stop)

    def test_chunks_reuse_a_given_buffer(self, rng, tmp_path):
        ckpt = random_checkpoint(rng, 3)
        path = tmp_path / "ckpt.safetensors"
        write_checkpoint(ckpt, path)
        buffer = np.empty(16, np.uint8)
        for name, t in read_checkpoint(path).tensors.items():
            pieces = []
            for piece in t.chunks(7, buffer):
                assert np.shares_memory(np.frombuffer(piece, np.uint8), buffer)
                pieces.append(bytes(piece))
            assert b"".join(pieces) == bytes(ckpt.tensors[name].data)

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


class TestEquality:
    def test_a_tensor_equals_itself_without_reading_its_payload(self, rng, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.safetensors"
        write_checkpoint(random_checkpoint(rng, 3), path)
        opened = read_checkpoint(path).tensors
        monkeypatch.setattr(CheckpointFile, "read_into", lambda *args: pytest.fail("a payload was read"))
        for t in opened.values():
            assert t == t and not t != t

    def test_name_dtype_shape_and_payload_bytes_are_compared_whatever_holds_them(self, rng):
        payload = rng.standard_normal(6).astype(np.float32).tobytes()
        t = Tensor("t", Dtype.F32, (6,), memoryview(payload).toreadonly())
        flipped = bytearray(payload)
        flipped[-1] ^= 1
        assert t == Tensor("t", Dtype.F32, (6,), payload)
        for other in (Tensor("t", Dtype.F32, (6,), bytes(flipped)), Tensor("u", Dtype.F32, (6,), payload),
                      Tensor("t", Dtype.F32, (2, 3), payload), Tensor("t", Dtype.BF16, (12,), payload)):
            assert t != other and other != t
        assert Tensor("e", Dtype.F16, (0,), b"") == Tensor("e", Dtype.F16, (0,), memoryview(b""))


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

    @pytest.mark.parametrize("text", list(JSON_PAST_THE_PARSER))
    def test_a_header_past_the_json_parsers_limits_is_a_format_error(self, tmp_path, text):
        blob = JSON_PAST_THE_PARSER[text].encode("utf-8")
        path = tmp_path / "x"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(CheckpointFormatError, match="^header is not valid UTF-8 JSON: "):
            read_header(path)


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


class TestFirstNonFinite:
    @pytest.mark.parametrize("dtype", [Dtype.F16, Dtype.BF16])
    def test_finds_every_nan_and_infinity_of_a_16_bit_dtype(self, dtype):
        view = np.arange(1 << 16, dtype=np.uint16).view(dtype.array_dtype)
        expected = np.flatnonzero(~np.isfinite(widen(view))).tolist()
        found, start, scratch = [], 0, np.empty(1000, np.uint32)  # blocks of 2000 elements
        while (at := first_non_finite(view[start:], scratch)) is not None:
            found.append(start + at)
            start += at + 1
        mantissa_bits = 10 if dtype is Dtype.F16 else 7
        assert found == expected and len(found) == 2 << mantissa_bits  # both signs, every mantissa

    def test_float32_bits_across_blocks(self):
        finite = np.array([0x7F7FFFFF, 0xFF7FFFFF, 0x00000001, 0x80000000, 0x3F800000], np.uint32)
        scratch = np.empty(4, np.uint32)
        for bad in (0x7F800000, 0xFF800000, 0x7FC00000, 0x7F800001, 0xFFFFFFFF):
            bits = np.resize(finite, (3, 7))
            bits[2, 3] = bits[2, 5] = bad
            assert first_non_finite(bits.view(np.float32), scratch) == 17
        assert first_non_finite(finite.view(np.float32), scratch) is None
        assert first_non_finite(np.empty(0, np.float32), scratch) is None


class TestVocabSidecar:
    def test_round_trip(self, tmp_path):
        vocab = {"hello": 0, "world": 1, "<eos>": 2}
        path = tmp_path / "v.vocab"
        write_vocab(vocab, path)
        assert read_vocab(path) == vocab

    @pytest.mark.parametrize("vocab", [{"": 0}, {"a": 0, "": 1}], ids=["alone", "last"])
    def test_empty_token_round_trip(self, tmp_path, vocab):
        path = tmp_path / "v.vocab"
        write_vocab(vocab, path)
        assert read_vocab(path) == vocab

    def test_empty_file_holds_no_token(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_bytes(b"")
        assert read_vocab(path) == {}

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

    def test_carriage_return_inside_a_token_rejected(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_bytes(b"a\nb\rc\nd\n")
        with pytest.raises(VocabError, match=r"v\.vocab: line 2: token 'b\\rc' contains a line break$"):
            read_vocab(path)

    def test_crlf_file_reads_as_its_lf_twin(self, tmp_path):
        lf, crlf = tmp_path / "lf.vocab", tmp_path / "crlf.vocab"
        lf.write_bytes(b"a\nb\n\nc\n")
        crlf.write_bytes(b"a\r\nb\r\n\r\nc\r\n")
        assert read_vocab(crlf) == read_vocab(lf) == {"a": 0, "b": 1, "": 2, "c": 3}

    @pytest.mark.parametrize("brk", ["\n", "\r"])
    def test_line_break_inside_a_token_not_written(self, tmp_path, brk):
        path = tmp_path / "v.vocab"
        with pytest.raises(VocabError, match=rf"v\.vocab: token {re.escape(repr(f'x{brk}y'))} contains a line break$"):
            write_vocab({"a": 0, f"x{brk}y": 1}, path)
        assert not path.exists()

    def test_bytes_are_one_line_per_token_in_row_order(self, tmp_path):
        # rows given out of order; unicode, an empty token and a token of spaces
        vocab = {"\u00e9t\u00e9": 2, "": 0, "\u2581the": 1, "  ": 4, "\U0001f600": 3}
        path = tmp_path / "v.vocab"
        write_vocab(vocab, path)
        tokens = sorted(vocab, key=vocab.get)
        assert path.read_bytes() == b"".join(token.encode("utf-8") + b"\n" for token in tokens)
        write_vocab({}, path)
        assert path.read_bytes() == b""

    def test_a_duplicate_row_is_rejected_before_any_token_check(self, tmp_path):
        with pytest.raises(VocabError, match="0..n-1"):
            write_vocab({"a": 0, "b\n": 0}, tmp_path / "v.vocab")

    def test_non_contiguous_indices_rejected(self, tmp_path):
        with pytest.raises(VocabError, match="0..n-1"):
            write_vocab({"a": 0, "b": 2}, tmp_path / "v.vocab")

    def test_sidecar_auto_loaded(self, tmp_path, rng):
        ckpt = random_checkpoint(rng, 2)
        path = tmp_path / "m.safetensors"
        write_checkpoint(ckpt, path)
        write_vocab({"x": 0}, tmp_path / "m.safetensors.vocab")
        opened = read_checkpoint(path)
        assert opened.vocab == {"x": 0}
        assert opened.vocab_sha256 == hashlib.sha256(b"x\n").hexdigest()
        assert read_checkpoint(path, tmp_path / "m.safetensors.vocab").vocab_sha256 == opened.vocab_sha256
        assert read_checkpoint(path.rename(tmp_path / "alone.safetensors")).vocab_sha256 is None


class TestVocabCount:
    @pytest.mark.parametrize("data,tokens", [
        (b"", 0),
        (b"\n", 1),
        (b"a\nb\n\nc", 4),
        (b"a\r\nb\r\n\r\nc\r\n", 4),
        (b"a\r\nb", 2),
        ("\u00e9t\u00e9\n\u2581the\n\U0001f600\n\u4e2d\u6587".encode("utf-8"), 4),
    ], ids=["empty", "empty-token", "no-final-lf", "crlf", "crlf-no-final-lf", "multi-byte-utf8"])
    def test_equals_the_tokens_read(self, tmp_path, data, tokens):
        path = tmp_path / "v.vocab"
        path.write_bytes(data)
        assert count_vocab(path) == len(read_vocab(path)) == tokens

    def test_a_merged_outputs_sidecar(self, rng, tmp_path):
        out = tmp_path / "merged.safetensors"
        assemble([MergeRecipe(MergeMethod.LINEAR, lam=0.5)], classified_toy_triple(rng), [out], jobs=1)
        sidecar = default_vocab_path(out)
        assert count_vocab(sidecar) == len(read_vocab(sidecar)) > 0

    def test_a_sidecar_read_vocab_rejects_is_counted_unchecked(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_bytes(b"a\na\n\xff\rb\n")
        with pytest.raises(VocabError):
            read_vocab(path)
        assert count_vocab(path) == 3


class TestReadHeader:
    def test_the_checkpoint_without_its_sidecar(self, rng, tmp_path):
        ckpt = random_checkpoint(rng, 3)
        ckpt.metadata = {"k": "v"}
        path = tmp_path / "m.safetensors"
        write_checkpoint(ckpt, path)
        (tmp_path / "m.safetensors.vocab").write_bytes(b"a\na\n")  # a duplicate token: read_checkpoint rejects it
        opened = read_header(path)
        assert opened.vocab is None and opened.vocab_sha256 is None
        assert opened.metadata == {"k": "v"}
        assert opened.tensors == ckpt.tensors and opened.file.path == path
        with pytest.raises(VocabError, match="duplicate token 'a'"):
            read_checkpoint(path)


def test_tensor_invariant_rejects_wrong_payload_size():
    with pytest.raises(CheckpointFormatError, match="needs 8"):
        Tensor(name="w", dtype=Dtype.F32, shape=(2,), data=b"\x00" * 7)


def test_zero_dim_tensor_holds_one_element():
    t = make_tensor("s", np.float32(3.5))
    assert t.shape == () and t.numel == 1
    assert t.to_f32().item() == 3.5
