"""Bit-exact reading, writing and dtype conversion of tensor checkpoint files.

File layout: 8-byte little-endian header length N, then N bytes of UTF-8 JSON
mapping tensor names to ``{"dtype", "shape", "data_offsets"}`` (offsets relative
to the end of the header), then the raw data region. An optional
``"__metadata__"`` key carries string-to-string pairs. Vocabulary maps live in
a sidecar text file, one token per line, line number = embedding row.

A file is opened by reading its header alone; each tensor's payload is read
from the file when it is used, never through a memory map, so a file cut
short fails a read with a named error. A file is written through a
``CheckpointWriter``: header first, then each payload at its offset.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
import struct
import threading
import weakref
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CheckpointFormatError, InputChangedError, VocabError


class Dtype(str, Enum):
    F32 = "F32"
    F16 = "F16"
    BF16 = "BF16"

    @property
    def itemsize(self) -> int:
        return 4 if self is Dtype.F32 else 2

    @property
    def array_dtype(self) -> np.dtype:
        """The numpy dtype of a storage view; numpy has no bfloat16, so BF16 is its uint16 bits."""
        return _ARRAY_DTYPES[self]

    @staticmethod
    def of(array: np.ndarray) -> "Dtype":
        """The dtype whose storage view ``array`` is: the inverse of ``array_dtype``.

        Raises TypeError for an array that is no storage view.
        """
        try:
            return _STORAGE_DTYPES[array.dtype]
        except KeyError:
            raise TypeError(f"a {array.dtype} array is not a storage view") from None


_ARRAY_DTYPES = {Dtype.F32: np.dtype("<f4"), Dtype.F16: np.dtype("<f2"), Dtype.BF16: np.dtype("<u2")}
_STORAGE_DTYPES = {array_dtype: dtype for dtype, array_dtype in _ARRAY_DTYPES.items()}


def widen(src: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Widen a storage view (see ``Dtype.of``) to float32, into ``out`` if given.

    Returns ``out``, or a new array of ``src``'s shape. Widening is exact for
    every F16 and BF16 bit pattern.
    """
    dtype = Dtype.of(src)
    if out is None:
        out = np.empty(src.shape, dtype=np.float32)
    if dtype is Dtype.BF16:
        np.left_shift(src, 16, out=out.view(np.uint32), dtype=np.uint32)
    else:
        np.copyto(out, src)
    return out


def narrow(values: np.ndarray, dtype: Dtype, scratch: np.ndarray | None = None) -> memoryview:
    """A new read-only payload of ``dtype`` holding the float32 ``values``, in flat order.

    Narrowing rounds to nearest even; values beyond the F16 range saturate to
    +-infinity, and a NaN stays a NaN with its sign and payload. Widening is
    exact, so widen-then-narrow round-trips every F16 and BF16 bit pattern.
    ``scratch``, a uint32 array of at least ``values.size`` elements, spares
    the BF16 rounding an allocation.
    """
    values = np.ravel(np.asarray(values, dtype="<f4"))
    out = np.empty(values.size, dtype=dtype.array_dtype)
    if dtype is Dtype.BF16:
        scratch = np.empty(values.size, np.uint32) if scratch is None else scratch[: values.size]
        _round_bf16(values, out, scratch)
    else:
        # numpy's cast is round-to-nearest-even and saturates to +-inf; it also
        # round-trips every F16 bit pattern (NaN payloads included)
        with np.errstate(over="ignore"):
            np.copyto(out, values, casting="same_kind")
    return memoryview(out.view(np.uint8)).toreadonly()


def _round_bf16(values: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    bits = values.view(np.uint32)
    # (bits + lsb of the kept half + 0x7FFF) >> 16, wrapping as uint32 does
    np.right_shift(bits, np.uint32(16), out=scratch)
    np.bitwise_and(scratch, np.uint32(1), out=scratch)
    np.add(scratch, bits, out=scratch)
    np.add(scratch, np.uint32(0x7FFF), out=scratch)
    np.right_shift(scratch, np.uint32(16), out=scratch)
    np.copyto(out, scratch, casting="unsafe")
    if values.size and np.isnan(values.max()):  # max propagates NaN
        nan = np.isnan(values)
        top = (bits[nan] >> np.uint32(16)).astype(np.uint16)
        # keep the sign and payload, but never let a NaN collapse to infinity
        out[nan] = np.where(top & np.uint16(0x007F), top, top | np.uint16(0x0040))


_COPY_BLOCK = 1 << 20  # bytes per piece when a payload is copied or hashed from its file


class FileStamp(NamedTuple):
    """What tells one state of a file from another without reading it."""

    size: int
    mtime_ns: int
    inode: int

    @classmethod
    def of(cls, st: os.stat_result) -> "FileStamp":
        return cls(st.st_size, st.st_mtime_ns, st.st_ino)


class CheckpointFile:
    """A checkpoint file open for reading.

    Every read goes through one descriptor, and ``stamp`` is the file's when
    it was opened, so ``check_unchanged`` can tell whether it has since been
    rewritten or replaced. The descriptor is closed by ``close``, or once
    nothing refers to this object: once the checkpoint and all its tensors
    are gone.
    """

    def __init__(self, path: Path):
        self.path = path
        self._whole: memoryview | None = None
        self._lock = threading.Lock()
        self.fd = os.open(path, os.O_RDONLY)
        self.close = weakref.finalize(self, os.close, self.fd)
        st = os.fstat(self.fd)
        if stat.S_ISDIR(st.st_mode):
            self.close()
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        self.stamp = FileStamp.of(st)

    def view(self, offset: int, size: int) -> memoryview:
        """``size`` bytes from ``offset``, a read-only slice of the whole file.

        The first call reads the whole file once into one buffer; every call
        slices it, and the buffer lives while any slice does.
        """
        with self._lock:
            if self._whole is None:
                buffer = np.empty(self.stamp.size, np.uint8)
                self.read_into(buffer, 0)
                self._whole = memoryview(buffer).toreadonly()
        return self._whole[offset : offset + size]

    def pread(self, size: int, offset: int) -> bytes:
        """Up to ``size`` bytes from ``offset``; fewer only where the file ends."""
        return os.pread(self.fd, size, offset)

    def read_into(self, buffer, offset: int) -> None:
        """Fill ``buffer``, a writable contiguous buffer, with the bytes from ``offset``.

        A file that ends first, as one truncated after it was opened does,
        is a CheckpointFormatError.
        """
        view = memoryview(buffer).cast("B")
        filled = 0
        while filled < len(view):
            # a single read returns at most about 2 GiB on Linux, so read until full
            count = os.preadv(self.fd, [view[filled:]], offset + filled)
            if count == 0:
                raise CheckpointFormatError(
                    f"{self.path}: file ends at byte {offset + filled}, inside a tensor "
                    f"its header places at bytes [{offset}, {offset + len(view)}); "
                    "it was cut short after it was opened"
                )
            filled += count

    def check_unchanged(self) -> None:
        """Raise InputChangedError if the file at ``path``, or the one open here, is not as opened."""
        try:
            now = FileStamp.of(os.stat(self.path))
        except FileNotFoundError:
            now = None
        if now != self.stamp or FileStamp.of(os.fstat(self.fd)) != self.stamp:
            raise InputChangedError(
                f"{self.path}: the file changed while it was being read (its size, "
                "modification time or inode is not what it was when it was opened)"
            )


class Tensor:
    """A named, typed, shaped block of little-endian numeric data.

    ``data`` is a bytes-like object of byte items: a read-only ``memoryview``
    for tensors read from a file or narrowed from float32, or ``bytes``. A
    tensor of a checkpoint opened by ``read_checkpoint`` holds only its place
    in the file. ``data`` is for callers that want payloads resident: the
    first ``data`` asked of a file reads the whole file once into one buffer
    (``CheckpointFile.view``), of which each tensor's ``data`` is a slice.
    ``load`` and ``chunks`` read one payload without keeping it; they are
    how the merge reads its inputs.
    """

    __slots__ = ("name", "dtype", "shape", "_data", "_place")
    __hash__ = None

    def __init__(
        self,
        name: str,
        dtype: Dtype,
        shape: tuple[int, ...],
        data: bytes | memoryview | None = None,
        *,
        place: tuple[CheckpointFile, int] | None = None,
    ):
        if (data is None) == (place is None):
            raise ValueError("a tensor holds either its payload or the file and offset of it")
        self.name, self.dtype, self.shape = name, dtype, tuple(shape)
        self._data, self._place = data, place
        if any(d < 0 for d in self.shape):
            raise CheckpointFormatError(
                f"tensor '{self.name}': negative dimension in shape {list(self.shape)}"
            )
        if data is not None and len(data) != self.nbytes:
            raise CheckpointFormatError(
                f"tensor '{self.name}': payload is {len(data)} bytes, "
                f"shape {list(self.shape)} with dtype {self.dtype.value} needs {self.nbytes}"
            )

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, dtype={self.dtype.value}, shape={list(self.shape)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.name, self.dtype, self.shape) == (other.name, other.dtype, other.shape) and (
            self.data == other.data
        )

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    @property
    def size(self) -> int:
        """``numel`` under numpy's name, so a tensor can stand where a storage view does."""
        return self.numel

    @property
    def nbytes(self) -> int:
        return self.numel * self.dtype.itemsize

    @property
    def data(self) -> bytes | memoryview:
        if self._data is None:
            file, offset = self._place
            self._data = file.view(offset, self.nbytes)
        return self._data

    def array(self) -> np.ndarray:
        """A zero-copy view of ``data``, shaped, of ``dtype.array_dtype``."""
        return np.frombuffer(self.data, dtype=self.dtype.array_dtype).reshape(self.shape)

    def load(self, buffer: np.ndarray | None = None) -> np.ndarray:
        """The payload as a shaped storage view (``Dtype.array_dtype``), not kept by the tensor.

        A payload in memory is viewed without a copy. One in a file is read
        into ``buffer``, a contiguous array of at least ``nbytes`` bytes whose
        first ``nbytes`` it overwrites, or into a new array.
        """
        if self._data is not None:
            return self.array()
        if buffer is None:
            raw = np.empty(self.nbytes, np.uint8)
        else:
            raw = buffer.reshape(-1).view(np.uint8)[: self.nbytes]
            if raw.size < self.nbytes:
                raise ValueError(
                    f"a {buffer.nbytes}-byte buffer cannot hold the {self.nbytes} bytes of {self.name}"
                )
        file, offset = self._place
        file.read_into(raw, offset)
        return raw.view(self.dtype.array_dtype).reshape(self.shape)

    def chunks(self, size: int = _COPY_BLOCK) -> Iterator[memoryview]:
        """The payload in consecutive pieces of at most ``size`` bytes.

        A payload in a file is read one piece at a time into one reused
        buffer, so each piece is valid only until the next is asked for, and
        nothing is kept.
        """
        if self._data is not None:
            view = memoryview(self._data)
            for start in range(0, len(view), size):
                yield view[start : start + size]
            return
        file, offset = self._place
        buffer = memoryview(bytearray(min(size, self.nbytes)))
        for start in range(0, self.nbytes, size):
            piece = buffer[: min(size, self.nbytes - start)]
            file.read_into(piece, offset + start)
            yield piece

    def to_f32(self) -> np.ndarray:
        """Widen the payload to a new float32 array of this tensor's shape."""
        return widen(self.array())

    @classmethod
    def from_f32(cls, name: str, values: np.ndarray, dtype: Dtype) -> "Tensor":
        """Pack a float32 array into a tensor of ``dtype``; see ``narrow``."""
        values = np.asarray(values, dtype="<f4")
        return cls(name=name, dtype=dtype, shape=values.shape, data=narrow(values, dtype))


@dataclass
class Checkpoint:
    """An ordered map of tensors plus an optional vocabulary map.

    ``file`` is set by ``read_checkpoint``: the open file its tensors read
    their payloads from.
    """

    tensors: dict[str, Tensor]
    vocab: dict[str, int] | None = None
    metadata: dict[str, str] = field(default_factory=dict)
    file: CheckpointFile | None = field(default=None, repr=False, compare=False)

    def check_unchanged(self) -> None:
        """Raise InputChangedError if the file this checkpoint reads from changed since it was opened."""
        if self.file is not None:
            self.file.check_unchanged()


def _parse_header(blob: bytes) -> dict:
    def reject_duplicates(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                raise CheckpointFormatError(f"duplicate tensor name '{key}' in header")
            seen[key] = value
        return seen

    try:
        header = json.loads(blob.decode("utf-8"), object_pairs_hook=reject_duplicates)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointFormatError("header JSON must be an object")
    return header


def _parse_entry(name: str, entry: object, data_size: int) -> tuple[Dtype, tuple[int, ...], int, int]:
    if not isinstance(entry, dict):
        raise CheckpointFormatError(f"tensor '{name}': header entry must be an object")
    missing = {"dtype", "shape", "data_offsets"} - entry.keys()
    if missing:
        raise CheckpointFormatError(f"tensor '{name}': header entry missing {sorted(missing)}")
    try:
        dtype = Dtype(entry["dtype"])
    except ValueError:
        raise CheckpointFormatError(
            f"tensor '{name}': unknown dtype {entry['dtype']!r}"
        ) from None
    shape = entry["shape"]
    if not isinstance(shape, list) or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape):
        raise CheckpointFormatError(f"tensor '{name}': shape must be a list of non-negative integers")
    offsets = entry["data_offsets"]
    if (
        not isinstance(offsets, list)
        or len(offsets) != 2
        or not all(isinstance(o, int) and not isinstance(o, bool) for o in offsets)
    ):
        raise CheckpointFormatError(f"tensor '{name}': data_offsets must be a pair of integers")
    begin, end = offsets
    if begin < 0 or end < begin or end > data_size:
        raise CheckpointFormatError(
            f"tensor '{name}': out-of-bounds data offsets [{begin}, {end}) "
            f"for a {data_size}-byte data region"
        )
    expected = math.prod(shape) * dtype.itemsize
    if end - begin != expected:
        raise CheckpointFormatError(
            f"tensor '{name}': data span {end - begin} bytes, expected {expected} "
            f"for shape {shape} dtype {dtype.value}"
        )
    return dtype, tuple(shape), begin, end


def _layout(path: Path, header: dict, data_size: int) -> dict[str, tuple[Dtype, tuple[int, ...], int, int]]:
    """Each tensor's dtype, shape and data span, checked to tile a ``data_size``-byte data region."""
    layout = {name: _parse_entry(name, entry, data_size) for name, entry in header.items()}
    # tensors must tile the data region exactly: no overlaps, no gaps
    cursor = 0
    for begin, end, name in sorted((begin, end, name) for name, (_, _, begin, end) in layout.items()):
        if begin < cursor:
            raise CheckpointFormatError(f"{path}: tensor '{name}' overlaps the previous tensor's data")
        if begin > cursor:
            raise CheckpointFormatError(f"{path}: {begin - cursor} unaccounted bytes before tensor '{name}'")
        cursor = end
    if cursor != data_size:
        raise CheckpointFormatError(f"{path}: {data_size - cursor} trailing bytes not covered by any tensor")
    return layout


def _header_length(path: Path, prefix: bytes, file_size: int) -> int:
    """The declared header length, checked against the file's size."""
    if len(prefix) < 8:
        raise CheckpointFormatError(f"{path}: file too short for an 8-byte header length")
    (header_len,) = struct.unpack("<Q", prefix[:8])
    if 8 + header_len > file_size:
        raise CheckpointFormatError(
            f"{path}: declared header length {header_len} exceeds file size {file_size}"
        )
    return header_len


def _pop_metadata(path: Path, header: dict) -> dict[str, str]:
    metadata = header.pop("__metadata__", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise CheckpointFormatError(f"{path}: __metadata__ must map strings to strings")
    return dict(metadata)


def _open(path: Path) -> tuple[CheckpointFile, int, dict[str, str], dict[str, tuple[Dtype, tuple[int, ...], int, int]]]:
    """Open a checkpoint file and read its header alone.

    Returns the open file, the byte at which its data region starts, its
    metadata and each tensor's layout, the header checked against the
    file's size.
    """
    file = CheckpointFile(path)
    try:
        size = file.stamp.size
        header_len = _header_length(path, file.pread(8, 0), size)
        header = _parse_header(file.pread(header_len, 8))
        metadata = _pop_metadata(path, header)
        return file, 8 + header_len, metadata, _layout(path, header, size - 8 - header_len)
    except BaseException:
        file.close()
        raise


def read_metadata(path: str | Path) -> dict[str, str]:
    """The ``__metadata__`` of a checkpoint file, from its header alone, checked against the file's size."""
    file, _, metadata, _ = _open(Path(path))
    file.close()
    return metadata


def read_checkpoint(path: str | Path, vocab_path: str | Path | None = None) -> Checkpoint:
    """Open a checkpoint file, reading and validating its header alone.

    The header is checked against the file's size, the tensors tiling the
    data region exactly, so a truncated file fails here. Each tensor holds
    its place in the file and reads its payload when it is used (see
    ``Tensor``); the checkpoint's ``file`` is the descriptor those reads go
    through. If ``vocab_path`` is not given and ``<path>.vocab`` exists,
    the sidecar is loaded automatically.
    """
    path = Path(path)
    file, start, metadata, layout = _open(path)
    tensors = {
        name: Tensor(name, dtype, shape, place=(file, start + begin))
        for name, (dtype, shape, begin, _) in layout.items()
    }

    vocab = None
    if vocab_path is None:
        candidate = default_vocab_path(path)
        if candidate.exists():
            vocab = read_vocab(candidate)
    else:
        vocab = read_vocab(vocab_path)
    return Checkpoint(tensors=tensors, vocab=vocab, metadata=metadata, file=file)


@contextmanager
def _replace_when_done(path: Path, mode: str, **kwargs):
    """Open a temporary file beside ``path``; move it onto ``path`` once written.

    ``path`` therefore never holds a partly written file: an interrupted write
    leaves only the temporary file behind, and it is removed when the
    interruption arrives as an exception.
    """
    # unique per process and thread, so concurrent writers of one path never
    # share a temporary file
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


Layout = dict[str, tuple[Dtype, tuple[int, ...]]]


class CheckpointWriter:
    """A checkpoint file written payload by payload, at offsets fixed up front.

    The header is built from ``layout`` (each tensor's dtype and shape) and
    ``metadata``: keys sorted lexicographically, payloads packed in that
    order with no gaps. It is written, and the file sized, when the writer
    is made; each payload may then be written whole or in pieces, from any
    thread, in any order. Made by ``checkpoint_writer``.
    """

    def __init__(self, fd: int, layout: Layout, metadata: dict[str, str]):
        header: dict[str, object] = {}
        if metadata:
            header["__metadata__"] = {k: metadata[k] for k in sorted(metadata)}
        self._spans: dict[str, tuple[int, int]] = {}
        offset = 0
        for name in sorted(layout):
            dtype, shape = layout[name]
            size = math.prod(shape) * dtype.itemsize
            header[name] = {"dtype": dtype.value, "shape": list(shape), "data_offsets": [offset, offset + size]}
            self._spans[name] = (offset, size)
            offset += size
        blob = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
        self._fd, self._start = fd, 8 + len(blob)
        self._pwrite(struct.pack("<Q", len(blob)) + blob, 0)
        os.ftruncate(fd, self._start + offset)
        self._written = dict.fromkeys(self._spans, 0)
        self._lock = threading.Lock()

    def write(self, name: str, piece, at: int = 0) -> None:
        """Write ``piece``, a contiguous buffer, into tensor ``name``'s payload from its byte ``at``."""
        begin, size = self._spans[name]
        view = memoryview(piece).cast("B")
        if at < 0 or at + len(view) > size:
            raise CheckpointFormatError(
                f"tensor '{name}': {len(view)} bytes at byte {at} overrun its {size}-byte payload"
            )
        self._pwrite(view, self._start + begin + at)
        with self._lock:
            self._written[name] += len(view)

    def _pwrite(self, data, offset: int) -> None:
        view = memoryview(data)
        while view:
            count = os.pwrite(self._fd, view, offset)
            view, offset = view[count:], offset + count

    def check_complete(self) -> None:
        """Raise CheckpointFormatError unless every payload byte has been written."""
        short = [name for name, (_, size) in self._spans.items() if self._written[name] != size]
        if short:
            raise CheckpointFormatError(
                f"{len(short)} tensor payload(s) not fully written, the first '{short[0]}'"
            )


@contextmanager
def checkpoint_writer(path: str | Path, layout: Layout, metadata: dict[str, str]) -> Iterator[CheckpointWriter]:
    """A CheckpointWriter on a temporary file beside ``path``.

    When the block ends without an exception and every payload was written,
    the file is moved onto ``path`` atomically; otherwise it is removed.
    """
    with _replace_when_done(Path(path), "wb", buffering=0) as f:
        writer = CheckpointWriter(f.fileno(), layout, metadata)
        yield writer
        writer.check_complete()


def copy_payload(tensor: Tensor, writers: Sequence[CheckpointWriter]) -> None:
    """Write ``tensor``'s payload into each writer, reading it once, a piece at a time."""
    at = 0
    for piece in tensor.chunks():
        for writer in writers:
            writer.write(tensor.name, piece, at)
        at += len(piece)


def write_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write a checkpoint with a canonical header, replacing ``path`` atomically.

    Header keys are sorted lexicographically and the data region packs tensor
    payloads in that same order with no gaps, so re-writing a loaded file
    reproduces it byte for byte. Payloads still in a file are copied from it
    a piece at a time.
    """
    for name, t in ckpt.tensors.items():
        if t.name != name:
            raise CheckpointFormatError(f"tensor keyed '{name}' carries name '{t.name}'")
    layout = {name: (t.dtype, t.shape) for name, t in ckpt.tensors.items()}
    with checkpoint_writer(path, layout, ckpt.metadata) as writer:
        for t in ckpt.tensors.values():
            copy_payload(t, [writer])


def default_vocab_path(ckpt_path: str | Path) -> Path:
    return Path(str(ckpt_path) + ".vocab")


def read_vocab(path: str | Path) -> dict[str, int]:
    """Load a vocabulary sidecar: one token per line, line number = row index."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise VocabError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    if text.endswith("\n"):
        text = text[:-1]
    vocab: dict[str, int] = {}
    if text == "":
        return vocab
    for row, token in enumerate(text.split("\n")):
        if token in vocab:
            raise VocabError(f"{path}: duplicate token {token!r} at line {row + 1}")
        vocab[token] = row
    return vocab


def write_vocab(vocab: dict[str, int], path: str | Path) -> None:
    """Write a vocabulary sidecar, ordering tokens by row index, replacing ``path`` atomically."""
    rows = sorted(vocab.items(), key=lambda item: item[1])
    indices = [idx for _, idx in rows]
    if indices != list(range(len(rows))):
        raise VocabError("vocabulary row indices must be exactly 0..n-1 with no duplicates")
    for token, _ in rows:
        if "\n" in token or "\r" in token:
            raise VocabError(f"token {token!r} contains a line break")
    with _replace_when_done(Path(path), "w", encoding="utf-8") as f:
        for token, _ in rows:
            f.write(token)
            f.write("\n")
