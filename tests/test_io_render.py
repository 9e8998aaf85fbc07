"""Round-trip, validation, and SVG determinism tests."""

import hashlib
import io
import json
import math
import re
import struct
from fractions import Fraction
from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pentaset import io_render, modelset
from pentaset.cyclotomic import ZETA_POWERS, abs_sq_coords, embed_approx
from pentaset.io_render import (
    CSV_COLUMNS,
    RenderOptions,
    SnapshotFormatError,
    read_snapshot,
    render_svg,
    write_snapshot,
)
from pentaset.modelset import (
    DIST_CLASSES,
    PointRecord,
    Snapshot,
    Window,
    analyze,
    enumerate_points,
)

from oracles import snapshot_header, snapshot_to_jsonl_bytes, written_snapshot


def roundtrip(snapshot, fmt):
    buf = io.StringIO()
    write_snapshot(snapshot, fmt, buf)
    buf.seek(0)
    return read_snapshot(buf)


def snapshot_key(snapshot):
    return [(p.coords, p.iabs,
             p.dist_class, p.x, p.y) for p in snapshot.points]


@pytest.fixture(scope="module")
def snap4():
    return analyze(enumerate_points(4))


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_exact_round_trip(self, snap4, fmt):
        back = roundtrip(snap4, fmt)
        assert back.radius_sq == snap4.radius_sq
        assert back.window.w == snap4.window.w
        assert snapshot_key(back) == snapshot_key(snap4)

    def test_origin_only(self):
        snap = enumerate_points(0)
        buf = io.StringIO()
        write_snapshot(snap, "jsonl", buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2  # header + one record
        assert '"a":[0,0,0,0]' in lines[1] and '"class":"unknown"' in lines[1]

    def test_radius_one_has_eleven_records(self):
        buf = io.StringIO()
        write_snapshot(enumerate_points(1), "jsonl", buf)
        assert len(buf.getvalue().splitlines()) == 12

    def test_fractional_parameters_survive(self):
        snap = enumerate_points(Fraction(25, 4), Window(Fraction(1, 4)))
        back = roundtrip(snap, "csv")
        assert back.radius_sq == Fraction(25, 4)
        assert back.window.w == Fraction(1, 4)

    def test_unsupported_format(self, snap4):
        with pytest.raises(ValueError):
            write_snapshot(snap4, "xml", io.StringIO())

    def test_blank_jsonl_lines_are_skipped(self):
        snap = enumerate_points(4)
        buf = io.StringIO()
        write_snapshot(snap, "jsonl", buf)
        head, *records = buf.getvalue().splitlines(keepends=True)
        text = head + "".join("\n" + r + "  \n" for r in records)
        assert read_snapshot(io.StringIO(text)) == snap

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("radius_sq", [
        Fraction(0), Fraction(9, 4), Fraction(10 ** 4299), Fraction(1, 10 ** 4300 - 1)],
        ids=["0", "9/4", "10^4299", "1/(10^4300-1)"])
    @pytest.mark.parametrize("w", [Fraction(1), Fraction(49, 4), Fraction(1, 1000)],
                             ids=["1", "49/4", "1/1000"])
    def test_header_matches_json_and_csv_writers(self, fmt, radius_sq, w):
        # the layout table's header is the bytes json.dumps and csv.writer
        # write, for every rational the header can hold
        snap = Snapshot(Window(w), radius_sq)
        buf = io.StringIO()
        write_snapshot(snap, fmt, buf)
        assert buf.getvalue() == snapshot_header(snap, fmt)


def _records_with_floats(pairs):
    """A hand-built snapshot with one record per (x, y) pair, at made-up
    coordinates: the writer checks nothing."""
    return Snapshot(Window(), Fraction(4), [
        PointRecord((k, -k, 0, 1), (k, 2 * k), x, y, None, DIST_CLASSES[k % len(DIST_CLASSES)])
        for k, (x, y) in enumerate(pairs)])


_NASTY_FLOATS = [(0.5, 0.5), (0.5, -0.25), (-0.25, 0.5), (0.0, -0.0), (-0.0, 0.0),
                 (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (math.nan, math.nan),
                 (-math.nan, 1.5), (math.inf, -math.inf), (-math.inf, math.inf),
                 (5e-324, -5e-324), (5e-324, 5e-324), (1.5, 0.1 + 0.2), (0.1 + 0.2, 1.5),
                 (0, 1), (1, 1.0), (1.0, 1), (-0.0, 0)]


class TestWriterOracle:
    """write_snapshot, with its float memo and its chunks of io_render._CHUNK
    records, writes the bytes of one layout % fields per record
    (oracles.written_snapshot)."""

    @staticmethod
    def _writes(snapshot, fmt):
        writes = []
        destination = mock.Mock(write=writes.append)
        write_snapshot(snapshot, fmt, destination)
        return writes

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("make", [
        lambda: _records_with_floats(_NASTY_FLOATS),
        lambda: analyze(enumerate_points(1600)),
        lambda: analyze(enumerate_points(Fraction(73, 2), Window(Fraction(49, 4)))),
    ], ids=["hand-built", "1600", "73/2,49/4"])
    def test_bytes_match_the_oracle(self, fmt, make):
        snap = make()
        writes = self._writes(snap, fmt)
        assert "".join(writes) == written_snapshot(snap, fmt)
        # the header, then one write per chunk of at most _CHUNK records
        chunks = [len(snap.points[i:i + io_render._CHUNK])
                  for i in range(0, len(snap.points), io_render._CHUNK)]
        assert [w.count("\n") for w in writes[1:]] == chunks

    def test_two_chunks_at_1600(self):
        assert len(enumerate_points(1600).points) == 5641 > io_render._CHUNK == 4096


class TestWriterWork:
    def test_each_distinct_float_formatted_once(self, monkeypatch):
        # at R^2 = 1600 the 5641 points' 11282 coordinates x and y hold 2072
        # distinct nonzero floats and 10 zeros: 2082 formats, not 11282
        misses = []

        class Counting(io_render._Floats):
            def __missing__(self, x):
                misses.append(x)
                return super().__missing__(x)
        monkeypatch.setattr(io_render, "_Floats", Counting)
        snap = enumerate_points(1600)
        values = [v for p in snap.points for v in (p.x, p.y)]
        for fmt in ("jsonl", "csv"):
            misses.clear()
            write_snapshot(snap, fmt, io.StringIO())
            assert len(values) == 11282 and len(misses) == 2082
            assert sorted(v for v in misses if v) == sorted({v for v in values if v})
            assert [v for v in misses if not v] == [v for v in values if not v]


class TestValidation:
    def test_empty_file_rejected(self):
        with pytest.raises(SnapshotFormatError, match="header"):
            read_snapshot(io.StringIO(""))

    def test_missing_header_rejected(self):
        with pytest.raises(SnapshotFormatError):
            read_snapshot(io.StringIO('{"a":[0,0,0,0]}\n'))

    @pytest.mark.parametrize("header", [
        '{"format":"pentaset-snapshot","window_sq":"1","version":"0"}',
        '{"format":"pentaset-snapshot","radius_sq":"x","window_sq":"1"}',
        '{"format":"pentaset-snapshot","radius_sq":"1","window_sq":"0"}',
        '{"format":"pentaset-snapshot","radius_sq":"-1","window_sq":"1"}',
        'radius_sq,zz,window_sq,1,version,0\n' + ",".join(CSV_COLUMNS),
    ], ids=["jsonl-no-radius", "jsonl-bad-radius", "jsonl-zero-window",
            "jsonl-negative-radius", "csv-bad-radius"])
    def test_bad_header_is_line_one_error(self, header):
        with pytest.raises(SnapshotFormatError, match="^line 1: "):
            read_snapshot(io.StringIO(header + "\n"))

    def test_tampered_iabs_rejected(self, snap4):
        buf = io.StringIO()
        write_snapshot(snap4, "jsonl", buf)
        text = buf.getvalue().replace('"iabs":[1,0]', '"iabs":[7,0]', 1)
        with pytest.raises(SnapshotFormatError, match="line"):
            read_snapshot(io.StringIO(text))

    def test_malformed_line_reports_number(self, snap4):
        buf = io.StringIO()
        write_snapshot(snap4, "jsonl", buf)
        text = buf.getvalue() + "not json\n"
        lineno = len(buf.getvalue().splitlines()) + 1
        with pytest.raises(SnapshotFormatError, match=f"line {lineno}"):
            read_snapshot(io.StringIO(text))

    def test_bad_class_rejected(self, snap4):
        buf = io.StringIO()
        write_snapshot(snap4, "jsonl", buf)
        text = buf.getvalue().replace('"class":"unknown"', '"class":"weird"', 1)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(io.StringIO(text))

    @pytest.mark.parametrize("old, new", [
        ('"x":0,', '"x":"abc",'),
        ('"x":0,', '"x":1' + "0" * 400 + ','),
        ('"a":[0,0,0,0]', '"a":[0.0,0,0,0]'),
        ('"a":[0,0,0,0]', '"a":[false,0,0,0]'),
        ('"iabs":[0,0]', '"iabs":[0,false]'),
    ], ids=["string-x", "huge-x", "float-coordinate", "bool-coordinate", "bool-iabs"])
    def test_bad_record_field_is_line_error(self, old, new):
        buf = io.StringIO()
        write_snapshot(enumerate_points(1), "jsonl", buf)
        text = buf.getvalue()
        assert text.splitlines()[1].count(old) == 1
        with pytest.raises(SnapshotFormatError, match="^line 2: "):
            read_snapshot(io.StringIO(text.replace(old, new, 1)))

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_repeated_point_rejected(self, snap4, fmt):
        buf = io.StringIO()
        write_snapshot(snap4, fmt, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        first = lines[1] if fmt == "jsonl" else lines[2]  # the first record
        text = "".join(lines) + first
        with pytest.raises(SnapshotFormatError,
                           match=f"^line {len(lines) + 1}: .*more than once"):
            read_snapshot(io.StringIO(text))


    @pytest.mark.parametrize("radius_sq, fmt, record", [
        (1, "jsonl", '{"a":[5,0,0,0],"x":0.5,"y":3,"iabs":[25,0],"class":"short"}'),
        (1, "csv", "5,0,0,0,0.5,3,25,0,short"),
        # |2|^2 = 4 is on the rim of the disc, |sigma(2)|^2 = 4 is outside the window
        (4, "jsonl", '{"a":[2,0,0,0],"x":2,"y":0,"iabs":[4,0],"class":"unknown"}'),
    ], ids=["far-jsonl", "far-csv", "outside-window"])
    def test_non_member_rejected(self, radius_sq, fmt, record):
        buf = io.StringIO()
        write_snapshot(enumerate_points(radius_sq), fmt, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        with pytest.raises(SnapshotFormatError,
                           match=f"^line {len(lines) + 1}: .*outside the disc or window"):
            read_snapshot(io.StringIO("".join(lines) + record + "\n"))

    @pytest.mark.parametrize("rejecting", [("1/2", "1"), ("1", "1/2")], ids=["disc", "window"])
    def test_membership_is_decided_per_read(self, rejecting):
        # the reader remembers each disc-and-window decision within one
        # read only: the same record, accepted under one header, is
        # rejected under a header with a smaller R^2 or w
        header = '{"format":"pentaset-snapshot","radius_sq":"%s","version":"0","window_sq":"%s"}\n'
        record = '{"a":[1,0,0,0],"x":1,"y":0,"iabs":[1,0],"class":"unknown"}\n'
        assert len(read_snapshot(io.StringIO(header % ("1", "1") + record)).points) == 1
        with pytest.raises(SnapshotFormatError, match="^line 2: .*outside the disc or window"):
            read_snapshot(io.StringIO(header % rejecting + record))

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("field, value", [
        ("x", "shift"), ("x", "nan"), ("y", "shift"),
    ], ids=["x-shifted", "x-nan", "y-shifted"])
    def test_xy_off_the_embedding_rejected(self, snap4, fmt, field, value):
        # shifted by 1e-6, far beyond the 1e-9 relative tolerance
        buf = io.StringIO()
        write_snapshot(snap4, fmt, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        k = 6  # a record line in both formats, of a point off the axes
        if fmt == "jsonl":
            rec = json.loads(lines[k])
            rec[field] = rec[field] + 1e-6 if value == "shift" else math.nan
            lines[k] = json.dumps(rec) + "\n"
        else:
            row = lines[k].rstrip("\n").split(",")
            col = CSV_COLUMNS.index(field)
            row[col] = repr(float(row[col]) + 1e-6) if value == "shift" else "nan"
            lines[k] = ",".join(row) + "\n"
        with pytest.raises(SnapshotFormatError, match=f"^line {k + 1}: .*embedding"):
            read_snapshot(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("line", [1, 2], ids=["header", "record"])
    def test_deep_nesting_is_line_error(self, snap4, line):
        # json.loads raises RecursionError on 10^5 nested arrays
        lines = _snapshot_lines(snap4, "jsonl")
        nested = "[" * 10 ** 5 + "]" * 10 ** 5
        lines[line - 1] = '{"format":"pentaset-snapshot","a":%s}\n' % nested
        with pytest.raises(SnapshotFormatError, match=f"^line {line}: "):
            read_snapshot(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("field, value", [
        ("window_sq", "true"), ("radius_sq", "4.5"), ("radius_sq", "4"), ("window_sq", "null"),
    ])
    def test_header_values_must_be_strings(self, snap4, field, value):
        # the writer always writes strings; true would read as w = 1
        lines = _snapshot_lines(snap4, "jsonl")
        old = f'"{field}":"{snap4.radius_sq if field == "radius_sq" else snap4.window.w}"'
        assert old in lines[0]
        lines[0] = lines[0].replace(old, f'"{field}":{value}')
        with pytest.raises(SnapshotFormatError, match="^line 1: .*strings"):
            read_snapshot(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("value", ["1e5000", "1e4300", "1e-999999999"])
    def test_header_value_beyond_4300_digits_rejected(self, snap4, fmt, value):
        # the CLI's rule: such an R^2 could not be printed
        lines = _snapshot_lines(snap4, fmt)
        old = '"radius_sq":"4"' if fmt == "jsonl" else "radius_sq,4,"
        assert old in lines[0]
        lines[0] = lines[0].replace(old, old.replace("4", value))
        with pytest.raises(SnapshotFormatError, match="^line 1: .*4300"):
            read_snapshot(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("change", ["extra", "missing", "bare"])
    def test_record_fields_must_be_exactly_the_layouts(self, snap4, fmt, change):
        # one field or key too many or too few, or a single bare value
        lines = _snapshot_lines(snap4, fmt)
        k = 3  # a record line in both formats
        if change == "bare":
            lines[k] = "[0]\n" if fmt == "jsonl" else "0\n"
        elif fmt == "jsonl":
            rec = json.loads(lines[k])
            if change == "extra":
                rec["extra"] = 1
            else:
                del rec["class"]
            lines[k] = json.dumps(rec) + "\n"
        else:
            row = lines[k].rstrip("\n").split(",")
            row = row + ["junk"] if change == "extra" else row[:-1]
            lines[k] = ",".join(row) + "\n"
        with pytest.raises(SnapshotFormatError, match=f"^line {k + 1}: malformed record: "):
            read_snapshot(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("k, old, new", [
        (0, '"radius_sq":"4"', '"radius_sq":"999","radius_sq":"4"'),
        (1, '"a":[0,0,0,0]', '"a":[9,9,9,9],"a":[0,0,0,0]'),
    ], ids=["header", "record"])
    def test_repeated_key_is_line_error(self, snap4, k, old, new):
        # json.loads alone keeps the last value: R^2 = 4, and the origin
        lines = _snapshot_lines(snap4, "jsonl")
        assert lines[k].count(old) == 1
        lines[k] = lines[k].replace(old, new)
        with pytest.raises(SnapshotFormatError, match=f"^line {k + 1}: .*repeated key"):
            read_snapshot(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("k", [0, 4], ids=["header", "record"])
    def test_csv_reader_error_is_line_error(self, snap4, k):
        # csv.reader raises csv.Error on a carriage return inside a field
        lines = _snapshot_lines(snap4, "csv")
        lines[k] = "0\r" + lines[k]
        with pytest.raises(SnapshotFormatError, match=f"^line {k + 1}: malformed CSV"):
            read_snapshot(io.StringIO("".join(lines)))


def _snapshot_lines(snapshot, fmt):
    buf = io.StringIO()
    write_snapshot(snapshot, fmt, buf)
    return buf.getvalue().splitlines(keepends=True)


_SNAP4_LINES = {fmt: _snapshot_lines(analyze(enumerate_points(4)), fmt)
                for fmt in ("jsonl", "csv")}


# characters and tokens of snapshot lines, mixed into the generated text
_NEAR_SNAPSHOT = list('{}[]",:-+.eE_/0123456789\n \\') + [
    "true", "null", "1e5000", "NaN", "Infinity", '"a":', '"x":', '"iabs":', '"class":',
    '"radius_sq":', '"window_sq":', "short", "radius_sq", "window_sq"]


@st.composite
def _one_line_replaced(draw):
    """A snapshot at R^2 = 4 with one line replaced by generated text: any
    text, or the line with a slice of it replaced."""
    lines = list(_SNAP4_LINES[draw(st.sampled_from(["jsonl", "csv"]))])
    k = draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    i = draw(st.integers(0, len(line)))
    j = draw(st.integers(i, len(line)))
    text = "".join(draw(st.lists(st.sampled_from(_NEAR_SNAPSHOT) | st.characters(),
                                 max_size=12)))
    lines[k] = draw(st.sampled_from([text, line[:i] + text + line[j:]]))
    return "".join(lines)


class TestReaderFuzz:
    @given(_one_line_replaced())
    @settings(max_examples=200, deadline=None)
    def test_snapshot_or_format_error(self, text):
        try:
            read_snapshot(io.StringIO(text))
        except SnapshotFormatError:
            pass


def _read_outcome(text):
    """The records read from text, with the reprs of their integers and the
    bits of x and y, or the message of the SnapshotFormatError."""
    try:
        snap = read_snapshot(io.StringIO(text))
    except SnapshotFormatError as e:
        return str(e)
    return [(repr(p.coords), repr(p.iabs), p.dist_class, struct.pack("<dd", p.x, p.y))
            for p in snap.points]


def _scan_nothing(line, idx):
    raise StopIteration(idx)


def _assert_paths_agree(text):
    """Reading text with the scanner fast path gives what reading every line
    through json.loads gives."""
    fast = _read_outcome(text)
    with mock.patch.object(io_render, "_scan", _scan_nothing):
        assert _read_outcome(text) == fast
    return fast


def _loads_calls(read):
    """The number of json.loads calls that read() makes."""
    with mock.patch("json.loads", wraps=json.loads) as loads:
        read()
    return loads.call_count


# the JSONL record layout with every field a %s
_RECORD_TEXT = re.sub(r"%(d|\.17g)", "%s", io_render._LAYOUTS["jsonl"][1])
_SNAP4 = analyze(enumerate_points(4))
_ORIGIN = '{"a":[0,0,0,0],"x":0,"y":0,"iabs":[0,0],"class":"long"}\n'

# integer and number texts that JSON, int() or float() read differently
_ODD_NUMBERS = ["-0", "-0.0", "00", "01", "+1", "1_0", "1.", ".5", "1e", "1E5", "1e400",
                "1e-400", "1.5E+3", "NaN", "Infinity", "-Infinity", "nan", "inf", "0x1",
                "\u0661", " 1", "1 ", "true", '"1"', "1" * 18, "1" * 19, "-" + "9" * 19,
                "1" * 4300, "1" * 4301, "1" * 4300 + ".5"]


@st.composite
def _generated_record(draw):
    """The JSONL snapshot at R^2 = 4 with one record line rebuilt from the
    layout, each of its fields kept (three times in four) or replaced by an
    odd number, an integer, a float written as %.17g or repr, or a word, and
    its line end varied."""
    lines = list(_SNAP4_LINES["jsonl"])
    k = draw(st.integers(1, len(lines) - 1))
    p = _SNAP4.points[k - 1]
    fields = [*map(str, p.coords), format(p.x, ".17g"), format(p.y, ".17g"),
              *map(str, p.iabs), p.dist_class]
    other = (st.sampled_from(_ODD_NUMBERS) | st.integers().map(str)
             | st.floats().map(lambda f: format(f, ".17g")) | st.floats().map(repr)
             | st.sampled_from(DIST_CLASSES) | st.text("abcsortlng\\u0", max_size=8))
    fields = [f if draw(st.integers(0, 3)) else draw(other) for f in fields]
    end = draw(st.sampled_from(["\n", "\n", "", "\r\n", "  \n", "\t\n"]))
    lines[k] = _RECORD_TEXT.rstrip("\n") % tuple(fields) + end
    return "".join(lines)


@st.composite
def _mutated_record(draw):
    """The JSONL snapshot at R^2 = 4 with a slice of one record line replaced
    by generated text."""
    lines = list(_SNAP4_LINES["jsonl"])
    k = draw(st.integers(1, len(lines) - 1))
    line = lines[k]
    i = draw(st.integers(0, len(line)))
    j = draw(st.integers(i, min(len(line), i + 8)))
    text = "".join(draw(st.lists(st.sampled_from(_NEAR_SNAPSHOT + _ODD_NUMBERS)
                                 | st.characters(), max_size=6)))
    lines[k] = line[:i] + text + line[j:]
    return "".join(lines)


class TestLayoutFastPath:
    """A JSONL record line in the writer's layout is parsed by one call of the
    C scanner of json.loads; every other line goes through json.loads.  Both
    must give the same record, with the same x and y bits, or the same error."""

    @pytest.mark.parametrize("old, new, fast", [
        ('"x":0,', '"x":-0,', True),
        ('"a":[0,0,0,0]', '"a":[%s,0,0,0]' % ("1" * 18), True),
        ('"a":[0,0,0,0]', '"a":[%s,0,0,0]' % ("1" * 19), True),
        ('"a":[0,0,0,0]', '"a":[%s,0,0,0]' % ("1" * 4300), True),
        ('"a":[0,0,0,0]', '"a":[%s,0,0,0]' % ("1" * 4301), False),
        ('"iabs":[0,0]', '"iabs":[0,%s]' % ("1" * 4301), False),
        ('"x":0,', '"x":%s,' % ("1" * 4300), True),
        ('"x":0,', '"x":%s,' % ("1" * 4301), False),
        ('"x":0,', '"x":1E5,', True),
        ('"x":0,', '"x":1e400,', True),
        ('"x":0,', '"x":nan,', False),
        ('"x":0,', '"x":NaN,', True),
        ('"x":0,', '"x":inf,', False),
        ('"x":0,', '"x":Infinity,', True),
        ('"x":0,', '"x":1_0,', False),
        ('"x":0,', '"x":+1,', False),
        ('"a":[0,0,0,0]', '"a":[+0,0,0,0]', False),
        ('"a":[0,0,0,0]', '"a":[1\u0660,0,0,0]', False),
        ('"class":"long"}\n', '"class":"long"}', False),
        ('"class":"long"}\n', '"class":"long"}\r\n', False),
        ('"class":"long"}\n', '"class":"long"}  \n', False),
        ('"class":"long"', '"class":"\\u006cong"', True),
        ('"class":"long"', '"class":"weird"', True),
        ('{"a":[0,0,0,0],"x":0,', '{ "a" : [0, 0, 0, 0] , "x":\t0,', True),
        ('"x":0,"y":0', '"y":0,"x":0', False),
        ('"x":0,"y":0', '"x":0,"x":0', False),
        ('"class":"long"}\n', '"class":"long"}x\n', False),
        ('"class":"long"}\n', '"class":"long"}' + _ORIGIN, False),
        ('{"a"', ' {"a"', False),
        ('"a":[0,0,0,0]', '"a":[0,0,0,0.0]', False),
        ('"a":[0,0,0,0]', '"a":[true,0,0,0]', False),
        ('"x":0,', '"x":"0",', False),
        ('"class":"long"', '"class":5', False),
        ('"a":[0,0,0,0]', '"a":{"0":0,"1":0,"2":0,"3":0}', False),
    ], ids=["x-minus-zero", "18-digits", "19-digits", "4300-digits", "4301-digits",
            "iabs-4301-digits", "x-4300-digits", "x-4301-digits", "1E5", "1e400", "nan",
            "NaN", "inf", "Infinity", "underscore", "plus-x", "plus-a", "arabic-digit",
            "no-final-newline", "crlf", "trailing-spaces", "class-u-escape", "weird-class",
            "inner-spaces", "permuted-keys", "repeated-key", "text-after-record",
            "two-records", "leading-space", "float-coordinate", "bool-coordinate",
            "string-x", "int-class", "object-a"])
    def test_named_lines(self, old, new, fast):
        assert _ORIGIN.count(old) == 1
        line = _ORIGIN.replace(old, new)
        lines = list(_SNAP4_LINES["jsonl"])
        k = lines.index(_ORIGIN)
        lines[k] = line
        if not line.endswith("\n"):  # the last line of the file
            lines.append(lines.pop(k))
        text = "".join(lines)
        # the header and each line off the fast path go through json.loads
        assert _loads_calls(lambda: _read_outcome(text)) == 1 + (not fast)
        outcome = _assert_paths_agree(text)
        if new == '"x":-0,':
            # json reads -0 as the int 0, and so must the fast path: the
            # float -0.0 would be written back as -0
            assert outcome == _read_outcome("".join(_SNAP4_LINES["jsonl"]))

    def test_written_lines_take_the_fast_path(self, tmp_path):
        for radius_sq, w in [(Fraction(49, 4), Fraction(1, 5)), (Fraction(319), Fraction(1)),
                             (Fraction(73, 2), Fraction(49, 4))]:
            snap = analyze(enumerate_points(radius_sq, Window(w)))
            path = tmp_path / "snap.jsonl"
            with open(path, "w", encoding="utf-8", newline="") as f:
                write_snapshot(snap, "jsonl", f)
            with open(path, encoding="utf-8", newline="") as f:
                assert _loads_calls(lambda: read_snapshot(f)) == 1  # the header alone
            text = path.read_text(encoding="utf-8")
            assert len(_assert_paths_agree(text)) == len(snap.points)

    @given(_generated_record())
    @settings(max_examples=300, deadline=None)
    def test_generated_records(self, text):
        _assert_paths_agree(text)

    @given(_mutated_record())
    @settings(max_examples=300, deadline=None)
    def test_mutated_records(self, text):
        _assert_paths_agree(text)


def _decode_failure_line(path):
    """The number of the line whose readline meets the first undecodable
    byte of the file, opened as UTF-8 with newline=""."""
    with open(path, encoding="utf-8", newline="") as f:
        for lineno in count(1):
            try:
                if not f.readline():
                    return None
            except UnicodeDecodeError:
                return lineno


class TestUndecodableBytes:
    """A byte that is no UTF-8 is a SnapshotFormatError naming the line being
    read when the text stream, which decodes ahead in blocks, met it."""

    @pytest.fixture(scope="class")
    def snap100(self):
        return analyze(enumerate_points(100))  # 351 records, more than one 8 KB block

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("bad_line", [1, 3, 300])
    def test_bad_byte_is_line_error(self, tmp_path, snap100, fmt, bad_line):
        lines = [line.encode() for line in _snapshot_lines(snap100, fmt)]
        lines[bad_line - 1] = lines[bad_line - 1][:5] + b"\xff" + lines[bad_line - 1][6:]
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes(b"".join(lines))
        k = _decode_failure_line(path)
        if bad_line < 100:  # within the first block: the header's readline fails
            assert k == 1
        else:
            assert 1 < k <= bad_line
        with open(path, encoding="utf-8", newline="") as f:
            with pytest.raises(SnapshotFormatError,
                               match=rf"^line {k}: undecodable text: .*0xff"):
                read_snapshot(f)


_HEADER_LINES = {"jsonl": 1, "csv": 2}


def _lines_with(fmt, i, **fields):
    """The R^2 = 4 snapshot's text with point i's record rewritten in fmt's
    layout with some of c, x, y, iabs, cls changed, and that record's line
    number.  x and y are written by json.dumps: the shortest repr, or
    Infinity, which json.loads and float() both read."""
    p = _SNAP4.points[i]
    rec = {"c": p.coords, "x": p.x, "y": p.y, "iabs": p.iabs, "cls": p.dist_class} | fields
    layout = io_render._LAYOUTS[fmt][1].replace("%.17g", "%s")
    lines = list(_SNAP4_LINES[fmt])
    k = _HEADER_LINES[fmt] + i
    lines[k] = layout % (*rec["c"], json.dumps(rec["x"]), json.dumps(rec["y"]),
                         *rec["iabs"], rec["cls"])
    return "".join(lines), k + 1


class TestReaderTolerance:
    """A written x, y equals the embedding bit for bit and passes the exact
    test; any other x, y must be within the relative tolerance 1e-9."""

    I = 5  # a point off both axes

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("field", ["x", "y"])
    def test_within_tolerance_keeps_the_files_value(self, fmt, field):
        p = _SNAP4.points[self.I]
        value = getattr(p, field) * (1 + 1e-12)
        assert value != getattr(p, field) and p.x and p.y
        text, _ = _lines_with(fmt, self.I, **{field: value})
        got = read_snapshot(io.StringIO(text)).points
        assert struct.pack("<d", getattr(got[self.I], field)) == struct.pack("<d", value)
        del got[self.I]
        assert [(q.coords, q.x, q.y) for q in got] == [
            (q.coords, q.x, q.y) for k, q in enumerate(_SNAP4.points) if k != self.I]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("field", ["x", "y"])
    @pytest.mark.parametrize("value", ["inf", "shift"])
    def test_off_the_embedding_rejected(self, fmt, field, value):
        p = _SNAP4.points[self.I]
        e = embed_approx(p.coords)
        assert (p.x, p.y) == (e.real, e.imag)
        bad = math.inf if value == "inf" else getattr(p, field) + 1e-6
        x, y = (bad, p.y) if field == "x" else (p.x, bad)
        text, lineno = _lines_with(fmt, self.I, **{field: bad})
        message = (f"line {lineno}: stored x, y = {x!r}, {y!r} do not match the embedding "
                   f"{e.real!r}, {e.imag!r} of a = {list(p.coords)}")
        with pytest.raises(SnapshotFormatError, match=f"^{re.escape(message)}$"):
            read_snapshot(io.StringIO(text))


class _InsideOnce(dict):
    """A membership memo that puts a moduli pair inside the first time it is
    asked and outside after."""

    def __missing__(self, key):
        self[key] = False
        return True


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
class TestCheckOrder:
    """_add_record checks the class, then iabs, the disc and window, a
    repeat, and x/y; a line that fails two adjacent checks reports the
    earlier one, at its own line."""

    I = 5

    @staticmethod
    def _rejects(text, message):
        with pytest.raises(SnapshotFormatError, match=f"^{re.escape(message)}$"):
            read_snapshot(io.StringIO(text))

    def test_class_before_iabs(self, fmt):
        text, lineno = _lines_with(fmt, self.I, iabs=(7, 0), cls="weird")
        self._rejects(text, f"line {lineno}: unknown class 'weird'")

    def test_iabs_before_outside(self, fmt):
        e = embed_approx((5, 0, 0, 0))  # |5|^2 = 25 > 4
        text, lineno = _lines_with(fmt, self.I, c=(5, 0, 0, 0), x=e.real, y=e.imag,
                                   iabs=(7, 0))
        self._rejects(text, f"line {lineno}: stored iabs [7, 0] does not match "
                            f"recomputed [25, 0] for a = [5, 0, 0, 0]")

    def test_outside_before_repeat(self, fmt):
        # in a real read the first copy of a point was inside under the same
        # header, so a memo that answers inside once lets one line fail both
        lines = _snapshot_lines(enumerate_points(0), fmt)  # the origin alone
        with mock.patch.object(io_render, "_membership", lambda *_: _InsideOnce()):
            self._rejects("".join(lines + lines[-1:]),
                          f"line {len(lines) + 1}: point [0, 0, 0, 0] is outside "
                          f"the disc or window")

    def test_repeat_before_xy(self, fmt):
        origin = _SNAP4.points[0]
        assert origin.coords == (0, 0, 0, 0)
        text, lineno = _lines_with(fmt, self.I, c=origin.coords, x=1e-6, y=0.0,
                                   iabs=origin.iabs, cls=origin.dist_class)
        self._rejects(text, f"line {lineno}: point [0, 0, 0, 0] appears more than once")


def _xy(z):
    e = embed_approx(z)
    return e.real, e.imag


def _ring(z):
    """The highlight circle render_svg draws at z on a 1000 canvas at R^2 = 1/4."""
    x, y = _xy(z)
    return io_render._RING % (500 + x * 1000.0, 500 - y * 1000.0)


class TestRenderSvg:
    def test_radius_one_counts(self):
        svg = render_svg(enumerate_points(1),
                         RenderOptions(highlight_roots=True))
        assert svg.count('class="pt-') == 11
        assert svg.count('class="highlight"') == 6

    def test_highlight_only_roots_in_the_snapshot(self):
        # at R^2 = 0 only the origin is a member: the five roots get no circle
        svg = render_svg(enumerate_points(0), RenderOptions(highlight_roots=True))
        assert svg.count('class="highlight"') == 1

    @pytest.mark.parametrize("case", ["origin", "origin-twice", "roots-outside-disc",
                                      "some-roots", "far-point"])
    def test_highlight_hand_built_matches_coordinates(self, case):
        # a hand-built snapshot takes the general split; a circle marks each
        # root among the points, in the disc or not, repeated or not
        roots = [(0, 0, 0, 0), *ZETA_POWERS]
        coords = {"origin": roots[:1], "origin-twice": roots[:1] * 2,
                  "roots-outside-disc": roots[1:],
                  "some-roots": [roots[2], (1, 1, 0, 0), roots[5], roots[0]],
                  "far-point": [roots[3], (40, -7, 3, 0), roots[4]]}[case]
        pts = [PointRecord(c, abs_sq_coords(*c)[1], *_xy(c)) for c in coords]
        svg = render_svg(Snapshot(Window(), Fraction(1, 4), pts),
                         RenderOptions(highlight_roots=True))
        rings = [_ring(z) for z in roots if z in coords]
        assert [ln for ln in svg.splitlines() if 'class="highlight"' in ln] == rings

    def test_highlight_on_a_kept_split_tests_no_modulus(self, monkeypatch):
        # six key lookups on the enumerator's split: no |z|^2 is recomputed
        snap = enumerate_points(400)
        expected = render_svg(snap, RenderOptions(highlight_roots=True))
        fail = mock.Mock(side_effect=AssertionError("abs_sq_coords called"))
        monkeypatch.setattr(modelset, "abs_sq_coords", fail)
        monkeypatch.setattr(io_render, "abs_sq_coords", fail)
        assert render_svg(snap, RenderOptions(highlight_roots=True)) == expected
        assert expected.count('class="highlight"') == 6

    def test_no_highlight_without_option(self):
        svg = render_svg(enumerate_points(1))
        assert svg.count('class="highlight"') == 0

    def test_deterministic_bytes(self, snap4):
        opts = RenderOptions(highlight_roots=True, color_classes=True)
        assert render_svg(snap4, opts) == render_svg(snap4, opts)

    def test_dot_positions_match_embeddings(self, snap4):
        opts = RenderOptions()
        svg = render_svg(snap4, opts)
        dots = re.findall(r'<circle cx="([0-9.-]+)" cy="([0-9.-]+)" '
                          r'r="3" fill="#000000"', svg)
        r = math.sqrt(float(snap4.radius_sq))
        scale = opts.canvas / (2 * r)
        c = opts.canvas / 2
        assert len(dots) == len(snap4.points)
        for (cx, cy), p in zip(dots, snap4.points):
            assert float(cx) == pytest.approx(c + p.x * scale, abs=1e-6)
            assert float(cy) == pytest.approx(c - p.y * scale, abs=1e-6)

    def test_fivefold_symmetry_of_dot_multiset(self, snap4):
        # rotating every dot by 72 degrees permutes the dot positions
        pts = {(round(p.x, 9), round(p.y, 9)) for p in snap4.points}
        ang = 2 * math.pi / 5
        for (x, y) in pts:
            rx = x * math.cos(ang) - y * math.sin(ang)
            ry = x * math.sin(ang) + y * math.cos(ang)
            assert any(abs(rx - a) < 1e-6 and abs(ry - b) < 1e-6
                       for a, b in pts)

    def test_class_colors_when_enabled(self, snap4):
        svg = render_svg(snap4, RenderOptions(color_classes=True))
        assert 'fill="#d62728"' in svg  # short-class points stand out

    def test_jsonl_bytes_helper_deterministic(self, snap4):
        assert snapshot_to_jsonl_bytes(snap4) == snapshot_to_jsonl_bytes(snap4)

    @pytest.mark.parametrize("radius_sq, options, digest", [
        (37, None, "afcf39f0f51363d71c5d018da9e9af3cb0df54cc51a750c15fb4f17ba543b0a6"),
        (37, RenderOptions(color_classes=True),
         "70771290684a1945a56691db84404fb1fa796c6334ad9bab70438655073c013f"),
        (37, RenderOptions(highlight_roots=True),
         "6eef17d93a8d2bd111fa715c41ef553c8f033ba29d7ead004a858bc6958887ac"),
        (37, RenderOptions(canvas=333),
         "a271885a24ffccc1555f84921930ebda1c7b9c735067fed6c2d6532f9adb75b1"),
        (0, None, "b0ddeaf3ed231d21368ac64f377677e15ad4298b6a34c3e3e7611e0b4cc8400e"),
    ], ids=["plain", "color-classes", "highlight-roots", "canvas-333", "origin-only"])
    def test_pinned_bytes(self, radius_sq, options, digest):
        # sha256 of the bytes that format(v, ".6f") per coordinate gave
        svg = render_svg(analyze(enumerate_points(radius_sq)), options)
        assert hashlib.sha256(svg.encode()).hexdigest() == digest

    @pytest.mark.parametrize("v", [0.0, -0.0, -1e-9, 5e-7, -5e-7, 0.1234565,
                                   1e22, math.inf, -math.inf, math.nan])
    def test_dot_layout_formats_as_format(self, v):
        assert "%.6f" % v == format(v, ".6f")

    def test_uncolored_render_reads_no_class_color(self):
        rec = PointRecord((0, 0, 0, 0), (0, 0), 0.0, 0.0, None, "weird")
        svg = render_svg(Snapshot(Window(), Fraction(1), [rec]))
        assert ('<circle cx="500.000000" cy="500.000000" r="3" fill="#000000" '
                'class="pt-weird"/>') in svg
