"""Round-trip, validation, and SVG determinism tests."""

import io
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pentaset.io_render import (
    CSV_COLUMNS,
    RenderOptions,
    SnapshotFormatError,
    read_snapshot,
    render_svg,
    write_snapshot,
)
from pentaset.modelset import Window, analyze, enumerate_points

from oracles import snapshot_to_jsonl_bytes


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


class TestRenderSvg:
    def test_radius_one_counts(self):
        svg = render_svg(enumerate_points(1),
                         RenderOptions(highlight_roots=True))
        assert svg.count('class="pt-') == 11
        assert svg.count('class="highlight"') == 6

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
