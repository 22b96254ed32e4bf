"""CSV text: every float is written as C's ``"%.17g"`` text, with the rows
and the ``valid`` column laid out as ``cli._write_csv`` writes them."""

import math
import os
import sys
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invharm import cli
from invharm._csvtext import CHUNK, csv_bytes


def expected_rows(table, valid=None):
    """The CSV rows of ``table`` from one Python ``%`` conversion per value."""
    lines = []
    for i, row in enumerate(table.tolist()):
        cells = ["%.17g" % v for v in row]
        if valid is not None:
            cells.append("true" if valid[i] else "false")
        lines.append(",".join(cells) + "\n")
    return "".join(lines).encode()


def written(table, valid=None):
    """The header and the file ``cli._write_csv`` writes for ``table``."""
    columns = [f"c{j}" for j in range(table.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        cli._write_csv(path, columns, table, valid=valid)
        with open(path, "rb") as fh:
            return (",".join(columns) + "\n").encode(), fh.read()


def edge_values():
    values = [0.0, 5e-324, sys.float_info.max, sys.float_info.min]
    # every power of ten and its two neighbours
    for p in range(-323, 309):
        v = float(f"1e{p}")
        values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    # where 17 digits carry into an 18th, and %g's switch points
    values += [1e16 - j / 8 for j in range(1, 65)]
    values += [1e17 - 8 * j for j in range(1, 65)]
    values += [1e-4, 1e-5, 9.9999999999999991e-5, 1e16, 1e17]
    # integers above 2**53
    values += [2.0**53 + 2 * j for j in range(1, 33)]
    values += [2.0**e for e in range(54, 120)] + [3.0 * 2.0**e for e in range(54, 120)]
    # exact ties at the 18th digit, rounded half to even
    values += [1234567890123456.25, 1234567890123456.75, 133011923443.890625]
    values += [0.5, 1.5, 2.5, 0.125, 1e-300, 1e300]
    return np.array(values + [-v for v in values])


def test_edge_values_are_percent_g():
    x = edge_values()
    assert np.signbit(x[len(x) // 2])  # -0.0 is among them
    assert csv_bytes(x[:, None]) == expected_rows(x[:, None])


def test_random_bit_patterns_are_percent_g():
    bits = np.random.default_rng(17).integers(0, 2**64, 50_000, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)][: 49_000].reshape(-1, 7)
    assert csv_bytes(x) == expected_rows(x)


def test_tables_longer_than_one_chunk():
    rng = np.random.default_rng(3)
    n_rows = 3 * (CHUNK // 5) + 7
    table = rng.standard_normal((n_rows, 5)) * 10.0 ** rng.integers(-8, 20, (n_rows, 5))
    valid = rng.random(n_rows) < 0.5
    assert csv_bytes(table) == expected_rows(table)
    assert csv_bytes(table, valid) == expected_rows(table, valid)


@st.composite
def tables(draw):
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    table = draw(
        hnp.arrays(
            np.float64,
            shape,
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    valid = draw(st.none() | hnp.arrays(np.bool_, shape[0]))
    return table, valid


@settings(max_examples=300, deadline=None)
@given(tables())
def test_written_csv_is_percent_g_text(drawn):
    table, valid = drawn
    header, text = written(table, valid)
    assert text == header + expected_rows(table, valid)
