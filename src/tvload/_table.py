"""The CSV table writer and reader behind every artifact file.

A table is a grid of rows, each holding one line per key: the row's label,
the key's fixed fields, then the row's values for that key, printed with 17
significant digits (which round-trips float64).  The text of every line
except its values is rendered once per file; a block of rows is then filled
by a single ``template % values`` call, so a large file streams out without
per-value Python calls or a copy of the whole file in memory.  A caller
that holds its values once per run of equal rows, as a field on a wavelet
basis is held, passes the run lengths: each run is formatted once, and each
of its rows only joins its label in.  The writer compares no values; a
Haar loading field on T points is 2^J runs, on any grid.  A run prints the
text of formatting each of its rows, so the bytes are those of writing the
rows out one by one.  A number that every line repeats, as the bands'
level, is one more value column, printed the same way.
Fixed fields follow the ``csv`` module's minimal quoting, so an id containing
a comma or a quote reads back through ``csv.reader``.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array

import numpy as np

from .errors import MissingDataError, ShapeError, naming_file

# Lines per ``%`` call on narrow tables; a call always covers whole rows.
_BLOCK_LINES = 512
_NEEDS_QUOTES = frozenset(',"\r\n')


def quote_field(text: str) -> str:
    """One CSV field under minimal quoting: quoted only if it has to be."""
    if not _NEEDS_QUOTES.isdisjoint(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table(path, header, values, keys=((),), rows=None, run_lengths=None) -> None:
    """Write ``values[run, key, col]`` as one CSV line per (row, key).

    A line reads: the row's label from ``rows`` (no label column when
    ``rows`` is None), the fields of ``keys[key]``, then the values.  Value
    row k covers the next ``run_lengths[k]`` rows, one row each when
    ``run_lengths`` is None; the lengths must sum to the number of row
    labels.
    """
    values = np.asarray(values, dtype=float)
    n_runs, n_keys, n_cols = values.shape
    lengths = np.ones(n_runs, dtype=np.intp) if run_lengths is None else np.asarray(run_lengths)
    if lengths.shape != (n_runs,) or (lengths < 1).any():
        raise ShapeError(f"{path}: {n_runs} value rows need as many positive run lengths")
    if rows is not None and len(rows) != lengths.sum():
        raise ShapeError(f"{path}: run lengths sum to {lengths.sum()}, "
                         f"but there are {len(rows)} row labels")
    # the text of each key's line after the row label; a row is its label joined with them
    sep, head = ("", "") if rows is None else (",", "%s")
    key_templates = [sep + ",".join([_literal(f) for f in key] + ["%.17g"] * n_cols) + "\n"
                     for key in keys]
    row_template = "".join(head + t for t in key_templates)
    per_call = max(1, _BLOCK_LINES // max(n_keys, 1))
    block_template = row_template * per_call
    # digits never need quotes
    labels = None if rows is None else np.array(
        [str(x) for x in rows] if isinstance(rows, range) else
        [quote_field(str(x)) for x in rows], dtype=object)
    width = n_cols + (labels is not None)
    args = np.empty((per_call * n_keys, width), dtype=object)
    # segments: each run of several rows, and each stretch of one-row runs
    several = lengths > 1
    heads = np.flatnonzero(several | np.r_[True, several[:-1]]).tolist()
    label_at = (np.cumsum(lengths) - lengths).tolist()  # each run's first row
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(quote_field(str(name)) for name in header) + "\n")
        for k, k_end in zip(heads, heads[1:] + [n_runs]):
            first = label_at[k]
            if several[k]:
                # one formatting of the run's values; each row only joins its label in
                filled = (t % tuple(v) for t, v in zip(key_templates, values[k].tolist()))
                parts = ["", *filled]
                last = first + int(lengths[k])
                for start in range(first, last, per_call):
                    stop = min(start + per_call, last)
                    texts = [""] * (stop - start) if labels is None else labels[start:stop]
                    fh.write("".join([label.join(parts) for label in texts]))
                continue
            # one-row runs: value row k + i is label row first + i
            for start in range(k, k_end, per_call):
                stop = min(start + per_call, k_end)
                block = args[: (stop - start) * n_keys]
                if labels is not None:
                    at = first + start - k
                    block[:, 0] = np.repeat(labels[at:at + stop - start], n_keys)
                block[:, width - n_cols:] = values[start:stop].reshape(-1, n_cols)
                template = block_template if stop - start == per_call else row_template * (stop - start)
                fh.write(template % tuple(block.ravel().tolist()))


def _literal(field) -> str:
    """A fixed field as template text: CSV-quoted, with ``%`` escaped."""
    return quote_field(str(field)).replace("%", "%%")


def read_table(path, n_keys=0):
    """Inverse of ``write_table`` for a labelled table.

    Returns the header, the keys and the values, a float array with one row
    per line.  A key is a line's label and ``n_keys`` fixed fields; a table
    with none keeps no key, since its label names a position.  Blank lines
    are skipped.  A line with the wrong number of fields raises
    ``ShapeError``; every empty, non-numeric or non-finite value is reported,
    with its row and column, in one ``MissingDataError``.

    A table without keys (a panel, ``factors.csv``) is first parsed by
    numpy's C reader, and that result is kept only where it must equal the
    checked parse: no quote, NUL or ASCII separator byte (0x1c-0x1f) in the
    file, one field per header column on every line, and every value finite.
    Its float conversion is the one ``float()`` uses, so the values are
    bit-identical.  Every other table, and every cell the C reader rejects
    (``1_0``, non-ASCII digits, an empty cell, a whitespace-only line), goes
    through the checked parse, which gives the errors above.  That parse
    fills one packed float64 buffer, so either way a table costs about its 8
    bytes per value and no Python float per cell.
    """
    with naming_file(path):
        if n_keys == 0:
            table = _read_plain(path)
            if table is not None:
                return table
        return _read_checked(path, n_keys)


# Bytes the C reader takes otherwise than ``csv`` and ``float()``: a quote
# (csv quoting), NUL, and the separators 0x1c-0x1f, which it strips from a
# number as whitespace where ``float()`` rejects the cell.
_CHECKED_ONLY = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Rows moved per copy when the label column is dropped in place.
_SHIFT_ROWS = 64


def _read_plain(path):
    """A table without keys through ``np.loadtxt``, or None where only the
    checked parse can say what it holds."""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            if any(byte in chunk for byte in _CHECKED_ONLY):
                return None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        try:
            with warnings.catch_warnings():
                # a table without rows warns, and any warning means fall back
                warnings.simplefilter("error")
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, encoding="utf-8",
                                   converters={0: lambda label: 0.0})
        except (ValueError, Warning):  # the checked parse says what is wrong
            return None
    if len(header) < 2 or table.shape[1] != len(header) or not np.isfinite(table).all():
        return None
    # table[:, 1:], C-contiguous in the table's own buffer: each block of
    # rows moves to a lower address, past the sources of the blocks after it
    rows, width = table.shape
    values = table.reshape(-1)[: rows * (width - 1)].reshape(rows, width - 1)
    for start in range(0, rows, _SHIFT_ROWS):
        values[start:start + _SHIFT_ROWS] = table[start:start + _SHIFT_ROWS, 1:]
    return header, [], values


def _read_checked(path, n_keys):
    """``read_table`` through ``csv.reader`` and ``float()``, cell by cell."""
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
