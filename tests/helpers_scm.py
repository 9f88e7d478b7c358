"""Slow, obviously correct references for ``cdl_compass.scm`` and
``cdl_compass.datasets``.

``read_csv_rows`` cross-checks ``Dataset.from_csv``: ``csv.reader`` splits
every record and ``float`` converts every cell, one at a time.  Errors name
the record at fault, counting the header as record 1; a record ``csv``
cannot split raises ``ValueError`` naming it.

``factorization_mass`` cross-checks the mass check of ``Factorization``: it
evaluates every factor at every joint assignment with ``Factor.evaluate``,
one assignment at a time.
"""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from math import fsum

from cdl_compass.scm import Dataset, Factor


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


def factorization_mass(factors: list[Factor]) -> float:
    """The summed product of ``factors`` over the joint domain of their
    variables, which must all be finite: assignments in ``itertools.product``
    order over the sorted names, factors multiplied in the order given,
    summed with ``fsum``.  The first assignment at which a factor fails
    raises that factor's error."""
    domains = {}
    for f in factors:
        domains.update(f.domains)
    names = sorted(domains)
    return fsum(
        math.prod(f.evaluate(dict(zip(names, values))) for f in factors)
        for values in itertools.product(*(domains[v] for v in names))
    )
