"""The table reader: numpy's C parse of a table without keys against the checked parse."""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvload import _table
from tvload.factors import make_panel, read_panel_csv, write_panel_csv

# Cells where the two parsers could part: float() accepts `1_0` and non-ASCII
# digits, the C reader strips 0x1c-0x1f as whitespace, both read nan, inf and
# an overflow as non-finite, and a `#` is a comment only if asked for.
_ODD_CELLS = ["1_0", "\u0661\u0662", "nan", "inf", "-inf", "1e500", "1e-320", "", " ",
              "#", "# 1", "0x10", "+.5", "5.", "-0", "1 2", "\"1\"", "1\x00", "\x1c2",
              "2\x1f", "\xa03", "\u20034", "\t5\t", "\x0b6", "7\x0c"]
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g"))
# mostly numbers, so that one odd cell decides which parse a table takes
_CELL = st.integers(0, 7).flatmap(
    lambda k: st.sampled_from(_ODD_CELLS) if k == 0
    else st.builds(lambda a, v, b: a + v + b, _SPACE, _NUMBER, _SPACE))
_LABEL = st.integers(0, 5).flatmap(
    lambda k: st.text(alphabet='a1 ,"#\x00\r', max_size=4) if k == 0
    else st.integers(1, 99).map(str))
_NAME = st.integers(0, 5).flatmap(
    lambda k: st.text(alphabet='ab,"\x00', max_size=3) if k == 0
    else st.sampled_from(["a", "b", " c "]))


@st.composite
def _tables(draw):
    """CSV text: a header, then rows, blank, whitespace-only and all-comma lines,
    rows with a field too many or too few, and a choice of line ends."""
    width = draw(st.integers(1, 4))
    # every row a field short or over, else only some
    skew = draw(st.sampled_from([0, 0, 0, -1, 1]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.integers(0, 19)) == 0:
        return ""
    lines = [",".join(["t", *draw(st.lists(_NAME, min_size=width, max_size=width))])]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", ",," * width, "\t"])))
            continue
        n = width + skew + (draw(st.sampled_from([-1, 1])) if kind == 1 else 0)
        cells = draw(st.lists(_CELL, min_size=max(n, 0), max_size=max(n, 0)))
        lines.append(",".join([draw(_LABEL), *cells]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(read, path):
    try:
        header, keys, values = read(path)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome here
        return type(exc), str(exc)
    assert values.flags.c_contiguous and values.dtype == np.float64
    return header, keys, values.shape, values.tobytes()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_tables())
def test_the_c_reader_gives_the_checked_parse_or_defers_to_it(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    checked = _outcome(lambda p: _table._read_checked(p, 0), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(_table.read_table, path)
    assert caught == []
    assert got == checked


def test_a_written_panel_reads_back_through_the_c_reader(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    panel = make_panel(rng.normal(size=(2048, 100)) * 10.0 ** rng.integers(-300, 300, (2048, 100)))
    path = tmp_path / "p.csv"
    write_panel_csv(panel, path)

    def checked(path, n_keys):
        raise AssertionError(f"{path} went through the checked parse")

    monkeypatch.setattr(_table, "_read_checked", checked)
    back = read_panel_csv(path)
    assert back.series_ids == panel.series_ids
    assert back.values.flags.c_contiguous
    assert back.values.tobytes() == panel.values.tobytes()
