"""Checks on outside input: finite numbers, seeds, `key = number` and binary files (leaf module)."""
from __future__ import annotations

import operator
import struct

import numpy as np

from .errors import DataError


def check_finite(what: str, values) -> None:
    """Raise DataError unless every number in `values` (scalar or nested sequence) is finite."""
    if not np.isfinite(np.asarray(values, dtype=np.float64)).all():
        raise DataError(f"{what} must be finite, got {values!r}")


def check_seed(seed) -> int:
    """The seed as an int (numpy ints too); a non-integer or negative seed raises DataError."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DataError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    return seed


def read_text(path) -> str:
    """The contents of a UTF-8 text file, with universal newlines; other bytes raise DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None


def read_key_values(path, keys: tuple[str, ...], required: tuple[str, ...]) -> dict[str, float]:
    """Read `key = number` lines, `#` starting a comment; a repeated key keeps its last value."""
    values: dict[str, float] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or key not in keys:
            raise DataError(f"{path}:{lineno}: expected key = number with a key in "
                            f"{', '.join(keys)}; got {line!r}")
        try:
            values[key] = float(raw)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad number {raw!r}") from None
        check_finite(f"{path}:{lineno}: {key}", values[key])
    missing = [k for k in required if k not in values]
    if missing:
        raise DataError(f"{path}: missing required keys: {', '.join(missing)}")
    return values


class BinaryReader:
    """Little-endian reader over a whole binary file that must start with `magic`.

    Reading past the end, or leaving bytes unread at `finish()`, raises DataError.
    """

    def __init__(self, path, magic: bytes, what: str):
        with open(path, "rb") as fh:
            self._data = fh.read()
        self._what = what
        if not self._data.startswith(magic):
            raise DataError(f"bad {what} magic {self._data[:len(magic)]!r}")
        self._off = len(magic)

    def _take(self, n: int) -> bytes:
        if n > len(self._data) - self._off:
            raise DataError(f"truncated {self._what} file: {n} bytes needed at offset "
                            f"{self._off} of {len(self._data)}")
        self._off += n
        return self._data[self._off - n:self._off]

    def unpack(self, fmt: str) -> tuple:
        """The next values of a `struct` format such as "BB" or "3f", read little-endian."""
        return struct.unpack("<" + fmt, self._take(struct.calcsize("<" + fmt)))

    def array(self, dtype: str | np.dtype, count: int) -> np.ndarray:
        """The next `count` items of a numpy dtype such as "<i1", as a writable array."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self._take(dtype.itemsize * count), dtype).copy()

    def finish(self) -> None:
        if self._off != len(self._data):
            raise DataError(f"{len(self._data) - self._off} trailing bytes in {self._what} file")
