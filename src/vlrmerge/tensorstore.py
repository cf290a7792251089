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
import hashlib
import json
import logging
import math
import mmap
import os
import re
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

log = logging.getLogger(__name__)


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
# a value is NaN or +-inf when its exponent bits are all ones
_EXPONENT = {Dtype.F32: np.uint32(0x7F800000), Dtype.F16: np.uint16(0x7C00), Dtype.BF16: np.uint16(0x7F80)}


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


def narrow(
    values: np.ndarray, dtype: Dtype, scratch: np.ndarray | None = None, out: np.ndarray | None = None
) -> memoryview:
    """A read-only payload of ``dtype`` holding the float32 ``values``, in flat order.

    Narrowing rounds to nearest even; values beyond the F16 range saturate to
    +-infinity, and a NaN stays a NaN with its sign and payload. Widening is
    exact, so widen-then-narrow round-trips every F16 and BF16 bit pattern.
    The payload is written to ``out``, a contiguous array of
    ``dtype.array_dtype`` with ``values.size`` elements, or to a new one.
    ``scratch``, a uint32 array of at least ``values.size`` elements, spares
    the BF16 rounding an allocation.
    """
    values = np.ravel(np.asarray(values, dtype="<f4"))
    if out is None:
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
    np.right_shift(scratch, np.uint32(16), out=out, casting="unsafe")
    if values.size and np.isnan(values.max()):  # max propagates NaN
        nan = np.isnan(values)
        top = (bits[nan] >> np.uint32(16)).astype(np.uint16)
        # keep the sign and payload, but never let a NaN collapse to infinity
        out[nan] = np.where(top & np.uint16(0x007F), top, top | np.uint16(0x0040))


def first_non_finite(view: np.ndarray, scratch: np.ndarray) -> int | None:
    """The flat index of the first NaN or +-inf in the storage ``view``, or None; ``scratch`` is non-empty uint32."""
    exponent = _EXPONENT[Dtype.of(view)]
    bits, scratch = np.ravel(view).view(exponent.dtype), scratch.view(exponent.dtype)
    for start in range(0, bits.size, scratch.size):
        block = bits[start : start + scratch.size]
        masked = np.bitwise_and(block, exponent, out=scratch[: block.size])
        if masked.max() == exponent:
            return start + int(np.argmax(masked == exponent))
    return None


_COPY_BLOCK = 1 << 20  # bytes per piece when a payload is copied or hashed from its file
_HEX_DIGEST = re.compile("[0-9a-f]{64}")


def file_digest(path: str | Path) -> str:
    """sha256 of a file, read one block at a time so no whole copy is held.

    The block is an anonymous mapping, unmapped when the digest is done, so
    a file hashed on a helper thread leaves no block in that thread's
    malloc arena.
    """
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as handle, mmap.mmap(-1, _COPY_BLOCK) as block, memoryview(block) as view:
        while size := handle.readinto(view):
            digest.update(view[:size])
    return digest.hexdigest()


class FileStamp(NamedTuple):
    """What tells one version of a file from another without reading it.

    ``utime`` can put a rewritten file's size and ``mtime`` back, but no
    call sets ``ctime``: any write, ``chmod``, new link or rename moves it.
    """

    st_dev: int
    st_ino: int
    size: int
    mtime_ns: int
    ctime_ns: int

    @classmethod
    def of(cls, st: os.stat_result) -> "FileStamp":
        return cls(st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


class CheckpointFile:
    """A checkpoint file open for reading.

    Every read goes through one descriptor, and ``stamp`` is the file's when
    it was opened: ``unchanged`` tells whether it has since been changed or
    replaced, and the digest memo beside the file (``recalled_digest``,
    ``remember_digest``) is of that version. The descriptor is closed by
    ``close``, or once nothing refers to this object: once the checkpoint
    and all its tensors are gone.
    """

    def __init__(self, path: Path):
        self.path = path
        self.fd = os.open(path, os.O_RDONLY)
        self.close = weakref.finalize(self, os.close, self.fd)
        st = os.fstat(self.fd)
        if stat.S_ISDIR(st.st_mode):
            self.close()
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        self.stamp = FileStamp.of(st)
        # holds the stamp and whole-file sha256 of a version, so an unchanged file is hashed once
        self.memo_path = Path(f"{path}.sha256.json")

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

    def unchanged(self) -> bool:
        """True while both the file at ``path`` and the one open here have the stamp taken at open."""
        try:
            now = FileStamp.of(os.stat(self.path))
        except FileNotFoundError:
            return False
        return now == self.stamp and FileStamp.of(os.fstat(self.fd)) == self.stamp

    def check_unchanged(self) -> None:
        """Raise InputChangedError unless the file is ``unchanged``."""
        if not self.unchanged():
            raise InputChangedError(
                f"{self.path}: the file changed while it was being read (its device, inode, size, "
                "modification or change time is not what it was when it was opened)"
            )

    def recalled_digest(self) -> str | None:
        """The whole-file sha256 that the digest memo records, when it may be trusted; else None.

        It is trusted when it records the stamp taken at open and that
        stamp's ``ctime_ns`` is strictly older than the memo's own
        ``mtime_ns``, both from the file system's clock (git's racy-git
        rule): a file changed in the clock tick its memo was written in
        could keep its stamp. A memo that cannot be read or parsed is not.
        """
        try:
            with open(self.memo_path, "rb") as f:
                written = os.fstat(f.fileno()).st_mtime_ns
                memo = json.loads(f.read())
        except (OSError, ValueError, RecursionError) as exc:  # json raises RecursionError for deep nesting
            log.debug("no usable digest memo for %s: %s", self.path, exc)
            return None
        digest = memo.get("sha256") if isinstance(memo, dict) else None
        if not (isinstance(digest, str) and _HEX_DIGEST.fullmatch(digest)) or memo.get("stamp") != self.stamp._asdict():
            log.debug("the digest memo for %s is of another file or version", self.path)
            return None
        if self.stamp.ctime_ns >= written:
            log.debug("the digest memo for %s is not newer than the file's last change", self.path)
            return None
        return digest

    def remember_digest(self, digest: str) -> None:
        """Record ``digest``, the sha256 of the file as opened, in the digest memo, atomically.

        Nothing is recorded unless the file is ``unchanged``; a memo that
        cannot be written, say in a read-only directory, is skipped.
        """
        if not self.unchanged():
            return
        try:
            with _replace_when_done(self.memo_path, "w", encoding="utf-8") as f:
                json.dump({"stamp": self.stamp._asdict(), "sha256": digest}, f, sort_keys=True)
        except OSError as exc:
            log.debug("cannot write the digest memo for %s: %s", self.path, exc)


class Tensor:
    """A named, typed, shaped block of little-endian numeric data.

    ``data`` is a bytes-like object of byte items: a read-only ``memoryview``
    for tensors read from a file or narrowed from float32, or ``bytes``. A
    tensor of a checkpoint opened by ``read_checkpoint`` holds only its place
    in the file. ``data`` is for callers that want a payload resident: the
    first ``data`` asked of such a tensor reads its payload alone, through
    ``load``, and the tensor keeps it. ``load``, ``load_range``,
    ``load_rows`` and ``chunks`` read a payload, or part of one, without
    keeping it; they are how the merge reads its inputs.
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
        # as numpy arrays: == on memoryviews compares item by item in Python, about 17 times slower
        return self is other or (self.name, self.dtype, self.shape) == (other.name, other.dtype, other.shape) and (
            np.array_equal(np.frombuffer(self.data, np.uint8), np.frombuffer(other.data, np.uint8))
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
            self._data = memoryview(self.load().reshape(-1).view(np.uint8)).toreadonly()
        return self._data

    def array(self) -> np.ndarray:
        """A zero-copy view of ``data``, shaped, of ``dtype.array_dtype``."""
        return np.frombuffer(self.data, dtype=self.dtype.array_dtype).reshape(self.shape)

    def load(self, buffer: np.ndarray | None = None) -> np.ndarray:
        """The payload as a shaped storage view (``Dtype.array_dtype``), not kept: ``load_range`` of every element."""
        return self.load_range(0, self.numel, buffer).reshape(self.shape)

    def load_range(self, start: int, stop: int, buffer: np.ndarray | None = None) -> np.ndarray:
        """Flat elements ``start:stop`` of the payload as a 1-D storage view, not kept.

        A payload in memory is viewed without a copy. One in a file is read
        with one ``read_into`` into ``buffer``, a contiguous array whose first
        bytes it overwrites (ValueError if it is too small), or into a new
        array. A range outside the payload is an IndexError.
        """
        if not 0 <= start <= stop <= self.numel:
            raise IndexError(f"elements [{start}, {stop}) are not inside the {self.numel} of {self.name}")
        if self._data is not None:
            return self.array().reshape(-1)[start:stop]
        raw = self._raw(buffer, (stop - start) * self.dtype.itemsize)
        file, offset = self._place
        file.read_into(raw, offset + start * self.dtype.itemsize)
        return raw.view(self.dtype.array_dtype)

    def load_rows(self, rows: np.ndarray, buffer: np.ndarray | None = None) -> np.ndarray:
        """Rows ``rows`` of the 2-D payload, in that order, as a ``(len(rows), width)`` storage view, not kept.

        A payload in a file is read with one ``read_into`` per run of
        consecutive rows in ``rows``, so no other row is read; one in memory
        is gathered from its view. The rows go into ``buffer``, as for
        ``load_range``, or into a new array. A row outside the payload is an
        IndexError.
        """
        rows = np.asarray(rows, np.int64)
        if len(self.shape) != 2:
            raise ValueError(f"{self.name} has shape {list(self.shape)}, not rows")
        if rows.size and not 0 <= rows.min() <= rows.max() < self.shape[0]:
            raise IndexError(f"rows {rows.min()}..{rows.max()} are not all inside the {self.shape[0]} of {self.name}")
        row_bytes = self.shape[1] * self.dtype.itemsize
        raw = self._raw(buffer, rows.size * row_bytes)
        out = raw.view(self.dtype.array_dtype).reshape(rows.size, self.shape[1])
        if self._data is not None:
            np.take(self.array(), rows, axis=0, out=out, mode="clip")  # in range, checked above
            return out
        file, offset = self._place
        bounds = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1).tolist(), rows.size]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if start < stop:
                file.read_into(raw[start * row_bytes : stop * row_bytes], offset + int(rows[start]) * row_bytes)
        return out

    def _raw(self, buffer: np.ndarray | None, nbytes: int) -> np.ndarray:
        """The first ``nbytes`` bytes of ``buffer``, a contiguous array, or a new array of them."""
        if buffer is None:
            return np.empty(nbytes, np.uint8)
        raw = buffer.reshape(-1).view(np.uint8)[:nbytes]
        if raw.size < nbytes:
            raise ValueError(f"a {buffer.nbytes}-byte buffer cannot hold the {nbytes} bytes asked of {self.name}")
        return raw

    def chunks(self, size: int = _COPY_BLOCK, buffer: np.ndarray | None = None) -> Iterator[memoryview]:
        """The payload in consecutive pieces of whole elements, at most ``size`` bytes (at least one element).

        Each piece is read by ``load_range``. A payload in a file is read into
        one reused buffer, the first bytes of ``buffer`` or a new one, so each
        piece is valid only until the next is asked for, and nothing is kept.
        """
        step = max(size // self.dtype.itemsize, 1)
        if buffer is None and self._data is None:
            buffer = np.empty(min(step, self.numel) * self.dtype.itemsize, np.uint8)
        for start in range(0, self.numel, step):
            yield memoryview(self.load_range(start, min(start + step, self.numel), buffer).view(np.uint8))

    def to_f32(self) -> np.ndarray:
        """Widen the payload to a new float32 array of this tensor's shape."""
        return widen(self.array())

    @classmethod
    def from_f32(cls, name: str, values: np.ndarray, dtype: Dtype) -> "Tensor":
        """Pack a float32 array into a tensor of ``dtype``; see ``narrow``."""
        values = np.asarray(values, dtype="<f4")
        return cls(name=name, dtype=dtype, shape=values.shape, data=narrow(values, dtype))


def as_tensor(name: str, source: np.ndarray | Tensor) -> Tensor:
    """``source`` if a ``Tensor``, else a tensor ``name`` of the storage view ``source``, copied only if not contiguous.

    An array that is no storage view is a TypeError (``Dtype.of``).
    """
    if isinstance(source, Tensor):
        return source
    dtype, flat = Dtype.of(source), np.ascontiguousarray(source).reshape(-1)
    return Tensor(name, dtype, source.shape, memoryview(flat.view(np.uint8)).toreadonly())


@dataclass
class Checkpoint:
    """An ordered map of tensors plus an optional vocabulary map.

    ``file`` is set by ``read_header`` and ``read_checkpoint``, and
    ``vocab_sha256`` by ``read_checkpoint``: the open file its tensors read
    their payloads from, and the sha256 of the sidecar bytes ``vocab`` was
    parsed from.
    """

    tensors: dict[str, Tensor]
    vocab: dict[str, int] | None = None
    metadata: dict[str, str] = field(default_factory=dict)
    file: CheckpointFile | None = field(default=None, repr=False, compare=False)
    vocab_sha256: str | None = field(default=None, repr=False, compare=False)

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
    except (ValueError, RecursionError) as exc:  # json raises RecursionError for deep nesting
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


def read_header(path: str | Path) -> Checkpoint:
    """Open a checkpoint file, reading and validating its header alone; no vocabulary is read.

    The header is checked against the file's size, the tensors tiling the
    data region exactly, so a truncated file fails here. Each tensor holds
    its place in the file and reads its payload when it is used (see
    ``Tensor``); the checkpoint's ``file`` is the descriptor those reads go
    through.
    """
    file, start, metadata, layout = _open(Path(path))
    tensors = {
        name: Tensor(name, dtype, shape, place=(file, start + begin))
        for name, (dtype, shape, begin, _) in layout.items()
    }
    return Checkpoint(tensors=tensors, metadata=metadata, file=file)


def read_checkpoint(path: str | Path, vocab_path: str | Path | None = None) -> Checkpoint:
    """Open a checkpoint file by its header (``read_header``) and load its vocabulary sidecar.

    If ``vocab_path`` is not given and ``<path>.vocab`` exists, the sidecar
    is loaded automatically, and the digest of the bytes read is kept as
    ``vocab_sha256``.
    """
    ckpt = read_header(path)
    if vocab_path is None and default_vocab_path(path).exists():
        vocab_path = default_vocab_path(path)
    if vocab_path is not None:
        data = Path(vocab_path).read_bytes()
        ckpt.vocab, ckpt.vocab_sha256 = _parse_vocab(data, vocab_path), hashlib.sha256(data).hexdigest()
    return ckpt


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


def copy_payload(tensor: Tensor, writers: Sequence[CheckpointWriter], buffer: np.ndarray | None = None) -> None:
    """Write ``tensor``'s payload into each writer, read once in pieces of ``buffer``'s size, or of ``_COPY_BLOCK``."""
    at = 0
    for piece in tensor.chunks(_COPY_BLOCK if buffer is None else buffer.nbytes, buffer):
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


def _check_token(token: str, where: str) -> None:
    """The sidecar's token rule, for its reader and its writer: a token holds no line break."""
    if "\n" in token or "\r" in token:
        raise VocabError(f"{where}: token {token!r} contains a line break")


def read_vocab(path: str | Path) -> dict[str, int]:
    """Load a vocabulary sidecar: one token per line, line number = row index.

    Lines end in LF, and CRLF reads as LF. Any other carriage return is a
    VocabError naming the line: a reader that ended a line there would
    shift every later row. An empty file holds no token; a single empty
    line holds the empty token.
    """
    return _parse_vocab(Path(path).read_bytes(), path)


def count_vocab(path: str | Path) -> int:
    """The number of tokens in the vocabulary sidecar at ``path``, counted from its line breaks.

    Equal to ``len(read_vocab(path))`` for every sidecar ``read_vocab``
    accepts: none in an empty file, else one per LF plus one for a last line
    without one (CRLF breaks a line once, and no UTF-8 character holds the
    byte 0x0A). No token is decoded or checked, so a sidecar that
    ``read_vocab`` rejects is counted too.
    """
    data = Path(path).read_bytes()
    return data.count(b"\n") + (not data.endswith(b"\n")) if data else 0


def _parse_vocab(data: bytes, path: str | Path) -> dict[str, int]:
    """The vocabulary sidecar ``data`` read from ``path`` holds; see ``read_vocab``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise VocabError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    vocab: dict[str, int] = {}
    if text == "":
        return vocab
    if "\r" in text:  # a two-character replace scans far slower than this test, even with no match
        text = text.replace("\r\n", "\n")
    if text.endswith("\n"):
        text = text[:-1]
    tokens = text.split("\n")
    if "\r" in text:
        for row, token in enumerate(tokens):
            _check_token(token, f"{path}: line {row + 1}")
    for row, token in enumerate(tokens):
        if token in vocab:
            raise VocabError(f"{path}: duplicate token {token!r} at line {row + 1}")
        vocab[token] = row
    return vocab


def write_vocab(vocab: dict[str, int], path: str | Path) -> None:
    """Write a vocabulary sidecar, ordering tokens by row index, replacing ``path`` atomically."""
    tokens = sorted(vocab, key=vocab.__getitem__)
    if list(map(vocab.__getitem__, tokens)) != list(range(len(tokens))):
        raise VocabError("vocabulary row indices must be exactly 0..n-1 with no duplicates")
    text = "\n".join(tokens)
    # n tokens free of line breaks join to n - 1 LFs and no CR; only a break needs the token named
    if "\r" in text or text.count("\n") != len(tokens) - 1:
        for token in tokens:
            _check_token(token, str(path))
    with _replace_when_done(Path(path), "w", encoding="utf-8") as f:
        f.write(text + "\n" if tokens else "")
