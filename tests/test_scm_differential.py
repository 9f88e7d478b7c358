"""Differential tests: block CSV reading against the row-by-row reader.

``Dataset.from_csv`` hands whole blocks of lines to numpy's parser and
falls back to ``csv.reader`` and ``float`` from the first block numpy
cannot read exactly; ``helpers_scm.read_csv_rows`` reads every record that
way.  Both must give the same column bytes or the same error.
"""

import csv
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from helpers_scm import read_csv_rows  # noqa: E402

from cdl_compass import scm
from cdl_compass.scm import Dataset

BLOCK = scm._CSV_BLOCK_ROWS


def outcome(read):
    """Column names and bytes, or the error's type and message."""
    try:
        d = read()
    except (ValueError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return d.names, [d.column(c).tobytes() for c in d.names]


def check_text(text: str) -> None:
    """The block reader and the row reader agree on ``text``, read from a
    handle and from a file."""
    want = outcome(lambda: read_csv_rows(io.StringIO(text)))
    assert outcome(lambda: Dataset.from_csv(io.StringIO(text))) == want
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

        def rows():
            with open(path, encoding="utf-8", newline="") as fh:
                return read_csv_rows(fh)

        assert outcome(lambda: Dataset.from_csv(path)) == outcome(rows)
    finally:
        os.remove(path)


NUMBERS = st.one_of(
    st.floats(allow_nan=False).map(lambda v: format(v, ".17g")),
    st.floats(allow_nan=False, width=32).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["0", "-0", "1e5", "+.5", "-5.", "inf", "-Infinity", " 2 ", "\t3"]),
)
ODD_CELLS = st.sampled_from(
    [
        "1_0",  # float() reads underscores, numpy does not
        "١٢",  # Arabic-Indic digits
        "\xa04",  # a non-breaking space float() strips
        "nan",
        "NaN",
        "",
        " ",
        "abc",
        "0x10",
        '"7"',
        '"1,5"',
        '"8\n9"',
        '"1\n"',  # a number, and a record over two lines
        '"',
    ]
)
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 3))
    names = [f"c{i}" for i in range(width)]
    if draw(st.integers(0, 3)) == 0:  # a header csv must unquote, or a faulty one
        names = draw(st.lists(st.sampled_from(["a", "b,", '"c\nd"', '"e"', "a"]), min_size=width, max_size=width))
    header = ",".join(names)
    odd = draw(st.sampled_from([0.0, 0.0, 0.02, 0.2]))
    faults = draw(st.sampled_from([0, 0, 1]))
    lines = [header]
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank"] * 2 + ["ragged", "space"] * faults))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append("  ")
        else:
            cells = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            lines.append(",".join(
                draw(ODD_CELLS) if draw(st.floats(0, 1)) < odd else draw(NUMBERS)
                for _ in range(max(cells, 1))
            ))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n", "\r", None]))  # None: mixed
    text = "".join(line + (ending or draw(ENDINGS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no terminator on the last line
    return text


@settings(max_examples=400, deadline=None)
@given(csv_texts(), st.sampled_from([1, 2, 3, 5, BLOCK]))
def test_generated_texts_match_row_reader(text, block):
    with mock.patch.object(scm, "_CSV_BLOCK_ROWS", block):
        check_text(text)


def plain_lines(rng: np.random.Generator, count: int) -> list[str]:
    values = rng.normal(size=(count, 2)) * 10.0 ** rng.integers(-5, 5, size=(count, 1))
    return [f"{a!r},{b!r}\n" for a, b in values.tolist()]


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize(
    "fault",
    [None, "quote", "nan", "ragged", "underscore", "blank", "crlf"],
)
def test_block_boundaries(count, fault):
    # The fault sits on the last line, which is in the second block when
    # there is one: the reader has taken a whole block with numpy first.
    lines = plain_lines(np.random.default_rng(count), count)
    last = {
        None: lines[-1],
        "quote": '"1.5",2\n',
        "nan": "nan,2\n",
        "ragged": "1,2,3\n",
        "underscore": "1_000,2\n",
        "blank": "\n",
        "crlf": "1,2\r\n",
    }[fault]
    check_text("x,y\n" + "".join(lines[:-1]) + last)


@pytest.mark.parametrize("quoted", [3, BLOCK + 3])
def test_quoted_record_over_two_lines_keeps_record_numbers(quoted):
    # In the first block, or after it; the faulty record is in the second.
    lines = plain_lines(np.random.default_rng(5), BLOCK + 10)
    lines[quoted] = '"1\n",3\n'
    lines[BLOCK + 6] = "oops,3\n"
    text = "x,y\n" + "".join(lines)
    check_text(text)
    with pytest.raises(ValueError, match=f"row {BLOCK + 8}: non-numeric value 'oops'"):
        Dataset.from_csv(io.StringIO(text))
