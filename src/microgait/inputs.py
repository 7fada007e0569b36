"""Checks on outside input: finite numbers and `key = number` files (a leaf module)."""
from __future__ import annotations

import numpy as np

from .errors import DataError


def check_finite(what: str, values) -> None:
    """Raise DataError unless every number in `values` (scalar or nested sequence) is finite."""
    if not np.isfinite(np.asarray(values, dtype=np.float64)).all():
        raise DataError(f"{what} must be finite, got {values!r}")


def read_key_values(path, keys: tuple[str, ...], required: tuple[str, ...]) -> dict[str, float]:
    """Read `key = number` lines, `#` starting a comment; a repeated key keeps its last value."""
    values: dict[str, float] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
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
