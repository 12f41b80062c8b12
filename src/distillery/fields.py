"""One reader for the fields of every JSON input: sweep configs, circuits and calibrations.

The rules are stated in the README ("JSON input"). Errors are raised as the
caller's exception class and start with the field's dotted path, as in
``qubits[1].T1: expected a finite number, got 'abc'``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

_NO_DEFAULT = object()


def _typed(value, kind):
    """``value`` if it is a ``kind``; a JSON boolean is a ``bool`` and nothing else."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(value)
    return value


def _finite(value) -> float:
    number = float(_typed(value, (int, float)))  # OverflowError past the float range
    if not math.isfinite(number):
        raise ValueError(value)
    return number


def _integral(value) -> int:
    if not _finite(value).is_integer():
        raise ValueError(value)
    return int(value)


def _complex_matrix(value) -> np.ndarray:
    """Rows of ``[re, im]`` cells; NaN is left to the Kraus channel's completeness check."""
    rows = [[_typed(cell, list) for cell in _typed(row, list)] for row in _typed(value, list)]
    if any(len(cell) != 2 for row in rows for cell in row):
        raise ValueError(value)
    cells = [[[_typed(x, (int, float)) for x in cell] for cell in row] for row in rows]
    return np.array([[complex(*cell) for cell in row] for row in cells], dtype=complex)


def _list_of(item):
    return lambda value: tuple(item(v) for v in _typed(value, list))


class Fields:
    """The fields of one JSON object. ``path`` prefixes its fields' paths; ``root``
    names a top-level object, whose fields' paths have no prefix, in errors."""

    def __init__(self, data, error: type[Exception], path: str = "", root: str = ""):
        self.error, self.path, self.name = error, path, path or root
        if not isinstance(data, dict):
            raise self._error(self.name, f"expected an object, got {data!r}")
        self.data = data

    def _error(self, path: str, message: str) -> Exception:
        return self.error(f"{path}: {message}" if path else message)

    def _read(self, key: str, default, convert, expected: str):
        value = self.data.get(key)
        if value is None and default is not _NO_DEFAULT:
            return default
        if key not in self.data:
            raise self._error(self.name, f"missing field {key!r}")
        return self._parse(self._path(key), value, convert, expected)

    def _path(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def _parse(self, path: str, value, convert, expected: str):
        """``convert(value)``, where a type converts a value of that type to itself."""
        try:
            return _typed(value, convert) if isinstance(convert, type) else convert(value)
        except (TypeError, ValueError, OverflowError):
            raise self._error(path, f"expected {expected}, got {value!r}") from None

    def number(self, key: str, default=_NO_DEFAULT) -> float:
        return self._read(key, default, _finite, "a finite number")

    def integer(self, key: str, default=_NO_DEFAULT) -> int:
        return self._read(key, default, _integral, "an integer")

    def boolean(self, key: str, default=_NO_DEFAULT) -> bool:
        return self._read(key, default, bool, "true or false")

    def string(self, key: str, default=_NO_DEFAULT, choices: tuple[str, ...] = ()) -> str:
        if not choices:
            return self._read(key, default, str, "a string")
        # tuple.index raises ValueError for any value not among the choices
        chosen = lambda value: choices[choices.index(value)]
        return self._read(key, default, chosen, "one of " + ", ".join(map(repr, choices)))

    def numbers(self, key: str, default=_NO_DEFAULT, scalar_ok: bool = False) -> tuple[float, ...]:
        """A list of numbers, or with ``scalar_ok`` also one number."""
        if not scalar_ok:
            return self._read(key, default, _list_of(_finite), "a list of finite numbers")
        read = lambda value: _list_of(_finite)(value) if isinstance(value, list) else (_finite(value),)
        return self._read(key, default, read, "a finite number or a list of them")

    def integers(self, key: str) -> tuple[int, ...]:
        return self._read(key, _NO_DEFAULT, _list_of(_integral), "a list of integers")

    def object(self, key: str, default=_NO_DEFAULT) -> Fields:
        data = self._read(key, default, dict, "an object")
        return data if data is default else Fields(data, self.error, self._path(key))

    def objects(self, key: str) -> list[Fields]:
        """A list of objects, each named by its index: ``qubits[1]``."""
        items = self._read(key, _NO_DEFAULT, list, "a list")
        return [Fields(item, self.error, f"{self._path(key)}[{i}]") for i, item in enumerate(items)]

    def complex_matrices(self, key: str) -> tuple[np.ndarray, ...]:
        """A list of matrices of ``[re, im]`` cells, each named by its index."""
        items = self._read(key, _NO_DEFAULT, list, "a list")
        return tuple(
            self._parse(f"{self._path(key)}[{i}]", m, _complex_matrix, "a matrix of [re, im] pairs")
            for i, m in enumerate(items)
        )


def read_json(path: str | Path, name: str, error: type[Exception]):
    """The JSON document in the file at ``path``; a file that cannot be read or
    parsed raises ``error`` naming ``name``, the option or field that gave it."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as err:
        raise error(f"{name}: cannot read {path}: {err.strerror or err}") from None
    except ValueError as err:  # invalid JSON, or bytes that are not text
        raise error(f"{name}: not valid JSON in {path} ({err})") from None
