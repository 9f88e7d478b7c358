"""Row-by-row CSV reader for cross-checking ``Dataset.from_csv``.

``csv.reader`` splits every record and ``float`` converts every cell, one
at a time: slow and obviously correct.  Errors name the record at fault,
counting the header as record 1; a record ``csv`` cannot split raises
``ValueError`` naming it.
"""

from __future__ import annotations

import csv
import math
from array import array

from cdl_compass.scm import Dataset


def read_csv_rows(lines) -> Dataset:
    reader = csv.reader(lines)
    lineno = 0  # records read so far
    try:
        header = next(reader, None)
        lineno = 1
        if header is None:
            raise ValueError("empty CSV: missing header row")
        if len(set(header)) != len(header):
            raise ValueError("duplicate column names in CSV header")
        columns = [array("d") for _ in header]
        for row in reader:
            lineno += 1
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"row {lineno}: {len(row)} fields, expected {len(header)}"
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
    return Dataset(dict(zip(header, columns)))
