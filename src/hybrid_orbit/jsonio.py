"""JSON wire formats shared by the library and the CLI.

Matrices travel as {"rows": r, "cols": c, "data": [row-major reals]}.
Files are written atomically (temp file + rename) with sorted keys, so
identical inputs give byte-identical outputs.
"""

import csv
import io
import json
import os
import tempfile

import numpy as np

__all__ = [
    "FormatError",
    "matrix_to_obj",
    "matrix_from_obj",
    "vector_to_obj",
    "vector_from_obj",
    "load_json",
    "dump_json",
]


class FormatError(ValueError):
    """Malformed JSON input; the message carries the offending field path."""


def matrix_to_obj(m) -> dict:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [float(v) for v in m.flatten()],
    }


def matrix_from_obj(obj, path: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected an object with rows/cols/data")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise FormatError(f"{path}.{key}: missing")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not _is_int(rows) or not _is_int(cols) or rows < 1 or cols < 1:
        raise FormatError(f"{path}.rows/cols: need positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(f"{path}.data: need exactly rows*cols = {rows * cols} numbers")
    return vector_from_obj(data, f"{path}.data").reshape(rows, cols)


def vector_to_obj(v) -> list[float]:
    return [float(x) for x in np.asarray(v, dtype=float).flatten()]


def vector_from_obj(obj, path: str = "vector") -> np.ndarray:
    if not isinstance(obj, list):
        raise FormatError(f"{path}: expected a list of numbers")
    return np.array([_number(value, f"{path}[{i}]") for i, value in enumerate(obj)], dtype=float)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, path: str) -> float:
    """A finite JSON number as a float; strings and booleans are not
    numbers, whatever float() would make of them."""
    if not (_is_int(value) or isinstance(value, float)):
        raise FormatError(f"{path}: non-numeric entry {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise FormatError(f"{path}: non-finite entry") from None
    if not np.isfinite(out):
        raise FormatError(f"{path}: non-finite entry")
    return out


def load_json(path):
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def dump_json(obj, path) -> None:
    """Serialize deterministically and replace the target atomically."""
    _atomic_write(path, _json_text(obj))


def _json_text(obj) -> str:
    """The one JSON serialization: sorted keys, two-space indent, final
    newline.  A non-finite number raises ValueError: it is not JSON."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _atomic_write(path, text: str) -> None:
    """Write text verbatim (no newline translation) via temp file + rename,
    with the mode open() would give, 0666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _dump_csv(rows, path) -> None:
    """Write rows through csv.writer (\\r\\n line ends) atomically."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    _atomic_write(path, buffer.getvalue())
