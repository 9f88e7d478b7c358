"""Datasets: named columns of equal-length real vectors, and their CSV form.

A dataset is CSV with a header row; values are written with 17 significant
digits, so a written file reads back to the same floats.  Reading and
writing work in blocks of lines, so neither a file's text nor its rows are
held whole.  NaN is refused on construction and on reading, and a read
fault names the CSV row at fault.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from array import array
from typing import Mapping, Sequence

import numpy as np

# Rows per block when writing CSV, and lines per block when reading it: large
# enough that the per-block overhead is negligible, small enough that a
# block's text stays small.
_CSV_BLOCK_ROWS = 4096


class Dataset:
    """Named columns of equal-length real vectors.

    NaN values are rejected at construction and at CSV ingestion; column
    order is preserved as given.
    """

    def __init__(self, columns: Mapping[str, Sequence[float]]):
        if not columns:
            raise ValueError("a dataset needs at least one column")
        self._names: tuple[str, ...] = tuple(columns)
        self._data: dict[str, np.ndarray] = {}
        n = None
        for name in self._names:
            if not name or any(c.isspace() for c in name):
                raise ValueError(f"bad column name {name!r}")
            arr = np.asarray(columns[name], dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} is not a vector")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ValueError(
                    f"column {name!r} has {arr.shape[0]} rows, expected {n}"
                )
            if np.isnan(arr).any():
                raise ValueError(f"column {name!r} contains NaN")
            self._data[name] = arr
        self._n = int(n if n is not None else 0)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def n(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        try:
            return self._data[name]
        except KeyError:
            raise ValueError(f"unknown column {name!r}") from None

    def to_csv(self, target=None) -> str | None:
        """Write CSV with 17 significant digits; return text if no target given.

        Rows are formatted and written in blocks, so a path or handle target
        never holds the whole text in memory.
        """
        if target is None:
            buffer = io.StringIO()
            self._write_csv(buffer)
            return buffer.getvalue()
        if hasattr(target, "write"):
            self._write_csv(target)
            return None
        with open(target, "w", encoding="utf-8", newline="") as fh:
            self._write_csv(fh)
        return None

    def _write_csv(self, fh) -> None:
        csv.writer(fh, lineterminator="\n").writerow(self._names)
        cols = [self._data[name] for name in self._names]
        # "%.17g" % v is the same conversion as format(v, ".17g").
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        for start in range(0, self._n, _CSV_BLOCK_ROWS):
            block = np.stack([col[start : start + _CSV_BLOCK_ROWS] for col in cols], axis=1)
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))

    @classmethod
    def from_csv(cls, source) -> "Dataset":
        """Read CSV with a header row; rejects ragged rows, non-numbers, NaN.

        A path or an open handle is parsed in blocks of lines into one float
        buffer per column, so neither its text nor its rows are held whole.
        A block numpy's parser takes whole is read in one call.  From the
        first block it refuses (a quote, a ragged row, a NaN, a number only
        Python's ``float`` reads, such as ``1_0``), the rest is read row by
        row with ``csv`` and ``float``, which names the row at fault; so do
        the ``ValueError``s raised for records ``csv`` cannot split.
        """
        if hasattr(source, "read"):
            return cls._read_csv(source)
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return cls._read_csv(fh)

    @classmethod
    def _read_csv(cls, lines) -> "Dataset":
        lines = iter(lines)
        reader = csv.reader(lines)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"row 1: {exc}") from None
        if header is None:
            raise ValueError("empty CSV: missing header row")
        if len(set(header)) != len(header):
            raise ValueError("duplicate column names in CSV header")
        columns = [array("d") for _ in header]
        lineno = 2
        while block := list(itertools.islice(lines, _CSV_BLOCK_ROWS)):
            values = _parse_block(block, len(header))
            if values is None:
                _read_rows(csv.reader(itertools.chain(block, lines)), lineno, columns)
                break
            for j, column in enumerate(columns):
                column.frombytes(values[:, j].tobytes())
            lineno += len(block)
        return cls(dict(zip(header, columns)))


def _parse_block(block: list[str], width: int) -> np.ndarray | None:
    """A block of CSV lines as a (rows, width) array, or None when numpy's
    parser does not read it exactly as :func:`_read_rows` would.

    numpy reads a number the way ``float`` does, but refuses some that
    ``float`` takes.  It does not unquote, and a quote is never part of a
    number, so it refuses every block holding one; in the blocks it reads,
    each line is one record, and a line holding only its terminator is an
    empty one, which both parsers skip.
    """
    records = len(block) - block.count("\n") - block.count("\r\n") - block.count("\r")
    if not records:
        return np.empty((0, width))  # numpy would warn that it found no data
    try:
        values = np.loadtxt(block, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if values.shape != (records, width) or np.isnan(values).any():
        return None
    return values


def _read_rows(reader, first: int, columns: list[array]) -> None:
    """Append each CSV record's fields to ``columns``, one ``float`` at a time;
    errors number the first record ``first``."""
    lineno = first - 1
    try:
        for lineno, row in enumerate(reader, start=first):
            if not row:
                continue
            if len(row) != len(columns):
                raise ValueError(
                    f"row {lineno}: {len(row)} fields, expected {len(columns)}"
                )
            for column, cell in zip(columns, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"row {lineno}: non-numeric value {cell!r}") from None
                if math.isnan(value):
                    raise ValueError(f"row {lineno}: NaN is not accepted")
                column.append(value)
    except csv.Error as exc:  # raised while splitting the record after ``lineno``
        raise ValueError(f"row {lineno + 1}: {exc}") from None
