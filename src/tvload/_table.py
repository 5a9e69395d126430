"""The CSV table writer and reader behind every artifact file.

A table is a grid of rows, each holding one line per key: the row's label,
the key's fixed fields, then the row's values for that key, printed with 17
significant digits (which round-trips float64).  The text of every line
except its values is rendered once per file; a block of rows is then filled
by a single ``template % values`` call, so a large file streams out without
per-value Python calls or a copy of the whole file in memory.  A run of rows
whose values are bitwise equal to the row before them is formatted once, and
each of its rows only joins its label in; a Haar loading field on a dyadic
grid is exactly constant on each of its 2^J blocks, so its T rows hold at
most 2^J runs.
Equal bits print equal text, so the bytes are those of formatting every row.
Fixed fields follow the ``csv`` module's minimal quoting, so an id containing
a comma or a quote reads back through ``csv.reader``.
"""

from __future__ import annotations

import csv
import math
from array import array

import numpy as np

from .errors import MissingDataError, ShapeError

# Lines per ``%`` call on narrow tables; a call always covers whole rows.
_BLOCK_LINES = 512
_NEEDS_QUOTES = frozenset(',"\r\n')


def quote_field(text: str) -> str:
    """One CSV field under minimal quoting: quoted only if it has to be."""
    if not _NEEDS_QUOTES.isdisjoint(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table(path, header, values, keys=((),), rows=None, tail=()) -> None:
    """Write ``values[row, key, col]`` as one CSV line per (row, key).

    A line reads: the row's label from ``rows`` (no label column when
    ``rows`` is None), the fields of ``keys[key]``, the values, then the
    fixed ``tail`` fields.
    """
    values = np.asarray(values, dtype=float)
    n_rows, n_keys, n_cols = values.shape
    end = "".join("," + _literal(f) for f in tail)
    # the text of each key's line after the row label; a row is its label joined with them
    sep, head = ("", "") if rows is None else (",", "%s")
    key_templates = [sep + ",".join([_literal(f) for f in key] + ["%.17g"] * n_cols) + end + "\n"
                     for key in keys]
    row_template = "".join(head + t for t in key_templates)
    per_call = max(1, _BLOCK_LINES // max(n_keys, 1))
    block_template = row_template * per_call
    labels = None if rows is None else np.array([quote_field(str(x)) for x in rows], dtype=object)
    width = n_cols + (labels is not None)
    args = np.empty((per_call * n_keys, width), dtype=object)
    # rows bitwise equal to the row before them; 0.0 and -0.0 print apart
    bits = values.reshape(n_rows, n_keys * n_cols).view(np.uint64)
    same = (bits[1:] == bits[:-1]).all(axis=1)
    in_run = np.r_[same, False] | np.r_[False, same]
    # segments: each run of equal rows, and each stretch of rows outside runs
    cuts = np.flatnonzero(~same & (in_run[1:] | in_run[:-1])) + 1
    bounds = [0, *cuts.tolist(), n_rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(quote_field(str(name)) for name in header) + "\n")
        for first, last in zip(bounds[:-1], bounds[1:]):
            if in_run[first]:
                # one formatting of the run's values; each row only joins its label in
                filled = (t % tuple(v) for t, v in zip(key_templates, values[first].tolist()))
                parts = ["", *filled]
                for start in range(first, last, per_call):
                    stop = min(start + per_call, last)
                    texts = [""] * (stop - start) if labels is None else labels[start:stop]
                    fh.write("".join([label.join(parts) for label in texts]))
                continue
            for start in range(first, last, per_call):
                stop = min(start + per_call, last)
                block = args[: (stop - start) * n_keys]
                if labels is not None:
                    block[:, 0] = np.repeat(labels[start:stop], n_keys)
                block[:, width - n_cols:] = values[start:stop].reshape(-1, n_cols)
                template = block_template if stop - start == per_call else row_template * (stop - start)
                fh.write(template % tuple(block.ravel().tolist()))


def _literal(field) -> str:
    """A fixed field as template text: CSV-quoted, with ``%`` escaped."""
    return quote_field(str(field)).replace("%", "%%")


def read_table(path, n_keys=0):
    """Inverse of ``write_table`` for a labelled table without tail fields.

    Returns the header, the keys and the values, a float array with one row
    per line.  A key is a line's label and ``n_keys`` fixed fields; a table
    with none keeps no key, since its label names a position.  The values
    are parsed into one packed float64 buffer that the array then wraps, so
    a table costs its 8 bytes per value and no Python float per cell.
    Blank lines are skipped.  A line with the wrong number of fields raises
    ``ShapeError``; every empty, non-numeric or non-finite value is reported,
    with its row and column, in one ``MissingDataError``.
    """
    start = 1 + n_keys
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MissingDataError(f"{path}: empty file")
        if len(header) <= start:
            raise ShapeError(f"{path}: need {start} label column(s) plus at least one value column")
        keys, bad = [], []
        buf = array("d")
        for i, rec in enumerate(reader, 2):
            if not any(c.strip() for c in rec):
                continue
            if len(rec) != len(header):
                raise ShapeError(f"{path}: row {i} has {len(rec)} fields, expected {len(header)}")
            for c, cell in enumerate(rec[start:], start):
                try:
                    v = float(cell)  # ignores surrounding whitespace; "" raises
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    bad.append(f"(row {i}, column {header[c].strip()})")
                buf.append(v)
            if n_keys:
                keys.append(tuple(rec[:start]))
    if bad:
        raise MissingDataError(
            f"{path}: {len(bad)} missing or non-numeric cells: {', '.join(bad[:10])}")
    return header, keys, np.frombuffer(buf, dtype=float).reshape(-1, len(header) - start)
