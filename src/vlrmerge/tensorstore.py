"""Bit-exact reading, writing and dtype conversion of tensor checkpoint files.

File layout: 8-byte little-endian header length N, then N bytes of UTF-8 JSON
mapping tensor names to ``{"dtype", "shape", "data_offsets"}`` (offsets relative
to the end of the header), then the raw data region. An optional
``"__metadata__"`` key carries string-to-string pairs. Vocabulary maps live in
a sidecar text file, one token per line, line number = embedding row.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import CheckpointFormatError, VocabError


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


@dataclass(frozen=True)
class Tensor:
    """A named, typed, shaped block of little-endian numeric data.

    ``data`` is a bytes-like object of byte items: a read-only ``memoryview``
    for tensors read from a file or narrowed from float32, or ``bytes``.
    """

    name: str
    dtype: Dtype
    shape: tuple[int, ...]
    data: bytes | memoryview

    def __post_init__(self):
        if any(d < 0 for d in self.shape):
            raise CheckpointFormatError(
                f"tensor '{self.name}': negative dimension in shape {list(self.shape)}"
            )
        expected = self.numel * self.dtype.itemsize
        if len(self.data) != expected:
            raise CheckpointFormatError(
                f"tensor '{self.name}': payload is {len(self.data)} bytes, "
                f"shape {list(self.shape)} with dtype {self.dtype.value} needs {expected}"
            )

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    def array(self) -> np.ndarray:
        """A zero-copy view of the payload, shaped, of ``dtype.array_dtype``."""
        return np.frombuffer(self.data, dtype=self.dtype.array_dtype).reshape(self.shape)

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
    """An ordered map of tensors plus an optional vocabulary map."""

    tensors: dict[str, Tensor]
    vocab: dict[str, int] | None = None
    metadata: dict[str, str] = field(default_factory=dict)
    # set by read_checkpoint: the file's bytes, of which the tensors' payloads are slices
    file_bytes: memoryview | None = field(default=None, init=False, repr=False, compare=False)


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


def read_metadata(path: str | Path) -> dict[str, str]:
    """The ``__metadata__`` of a checkpoint file, reading its header only."""
    path = Path(path)
    with open(path, "rb") as f:
        header_len = _header_length(path, f.read(8), os.fstat(f.fileno()).st_size)
        header = _parse_header(f.read(header_len))
    return _pop_metadata(path, header)


def _read_whole(path: Path) -> memoryview:
    """The file's bytes, read once into one buffer, as a read-only view."""
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        buffer = memoryview(np.empty(size, dtype=np.uint8))
        filled = 0
        # a single read returns at most about 2 GiB on Linux, so read until full
        while filled < size and (count := f.readinto(buffer[filled:])):
            filled += count
    if filled < size:
        raise CheckpointFormatError(f"{path}: file shrank from {size} to {filled} bytes while being read")
    return buffer.toreadonly()


def read_checkpoint(path: str | Path, vocab_path: str | Path | None = None) -> Checkpoint:
    """Load a checkpoint file, validating the header against the data region.

    The file is read once into one buffer, kept as ``file_bytes``; each
    tensor's ``data`` is a read-only ``memoryview`` slice of it, so the
    buffer lives as long as any of them. If ``vocab_path`` is not given and
    ``<path>.vocab`` exists, the sidecar is loaded automatically.
    """
    path = Path(path)
    raw = _read_whole(path)
    header_len = _header_length(path, raw[:8], len(raw))
    header = _parse_header(bytes(raw[8 : 8 + header_len]))
    metadata = _pop_metadata(path, header)

    data = raw[8 + header_len :]
    spans = []
    tensors: dict[str, Tensor] = {}
    for name, entry in header.items():
        dtype, shape, begin, end = _parse_entry(name, entry, len(data))
        spans.append((begin, end, name))
        tensors[name] = Tensor(name=name, dtype=dtype, shape=shape, data=data[begin:end])

    # tensors must tile the data region exactly: no overlaps, no gaps
    spans.sort()
    cursor = 0
    for begin, end, name in spans:
        if begin < cursor:
            raise CheckpointFormatError(
                f"{path}: tensor '{name}' overlaps the previous tensor's data"
            )
        if begin > cursor:
            raise CheckpointFormatError(
                f"{path}: {begin - cursor} unaccounted bytes before tensor '{name}'"
            )
        cursor = end
    if cursor != len(data):
        raise CheckpointFormatError(
            f"{path}: {len(data) - cursor} trailing bytes not covered by any tensor"
        )

    vocab = None
    if vocab_path is None:
        candidate = default_vocab_path(path)
        if candidate.exists():
            vocab = read_vocab(candidate)
    else:
        vocab = read_vocab(vocab_path)
    ckpt = Checkpoint(tensors=tensors, vocab=vocab, metadata=metadata)
    ckpt.file_bytes = raw
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


def write_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write a checkpoint with a canonical header, replacing ``path`` atomically.

    Header keys are sorted lexicographically and the data region packs tensor
    payloads in that same order with no gaps, so re-writing a loaded file
    reproduces it byte for byte.
    """
    path = Path(path)
    header: dict[str, object] = {}
    if ckpt.metadata:
        header["__metadata__"] = {k: ckpt.metadata[k] for k in sorted(ckpt.metadata)}
    offset = 0
    ordered = sorted(ckpt.tensors)
    for name in ordered:
        t = ckpt.tensors[name]
        if t.name != name:
            raise CheckpointFormatError(f"tensor keyed '{name}' carries name '{t.name}'")
        header[name] = {
            "dtype": t.dtype.value,
            "shape": list(t.shape),
            "data_offsets": [offset, offset + len(t.data)],
        }
        offset += len(t.data)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    with _replace_when_done(path, "wb") as f:
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for name in ordered:
            f.write(ckpt.tensors[name].data)


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
