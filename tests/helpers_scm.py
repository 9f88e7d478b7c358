"""Row-by-row CSV reader for cross-checking ``Dataset.from_csv``.

``csv.reader`` splits every record and ``float`` converts every cell, one
at a time: slow and obviously correct.  Errors name the record at fault,
counting the header as record 1.
"""

from __future__ import annotations

import csv
import math
from array import array

from cdl_compass.scm import Dataset


def read_csv_rows(lines) -> Dataset:
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValueError("empty CSV: missing header row")
    if len(set(header)) != len(header):
        raise ValueError("duplicate column names in CSV header")
    columns = [array("d") for _ in header]
    for lineno, row in enumerate(reader, start=2):
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
    return Dataset(dict(zip(header, columns)))
