"""The CSV table writer behind every artifact file.

A table is a grid of rows, each holding one line per key: the row's label,
the key's fixed fields, then the row's values for that key, printed with 17
significant digits (which round-trips float64).  The text of every line
except its values is rendered once per file; a block of rows is then filled
by a single ``template % values`` call, so a large file streams out without
per-value Python calls or a copy of the whole file in memory.  Fixed fields
follow the ``csv`` module's minimal quoting, so an id containing a comma or
a quote reads back through ``csv.reader``.
"""

from __future__ import annotations

import numpy as np

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
    head = "" if rows is None else "%s,"
    row_template = "".join(
        head + ",".join([_literal(f) for f in key] + ["%.17g"] * n_cols) + end + "\n"
        for key in keys
    )
    per_call = max(1, _BLOCK_LINES // max(n_keys, 1))
    block_template = row_template * per_call
    # the label slot takes the label itself: %s prints an int as str() does
    labels = None if rows is None else np.array(
        [quote_field(x) if isinstance(x, str) else x for x in rows], dtype=object)
    width = n_cols + (labels is not None)
    args = np.empty((per_call * n_keys, width), dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(quote_field(str(name)) for name in header) + "\n")
        for start in range(0, n_rows, per_call):
            stop = min(start + per_call, n_rows)
            block = args[: (stop - start) * n_keys]
            if labels is not None:
                block[:, 0] = np.repeat(labels[start:stop], n_keys)
            block[:, width - n_cols:] = values[start:stop].reshape(-1, n_cols)
            template = block_template if stop - start == per_call else row_template * (stop - start)
            fh.write(template % tuple(block.ravel().tolist()))


def _literal(field) -> str:
    """A fixed field as template text: CSV-quoted, with ``%`` escaped."""
    return quote_field(str(field)).replace("%", "%%")
