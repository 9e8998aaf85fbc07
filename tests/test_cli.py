"""CLI behavior: subcommand plumbing, exit codes, reproducibility."""

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from xml.etree import ElementTree

import pytest

from pentaset import cli, modelset
from pentaset.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_USAGE,
    build_parser,
    parse_config,
    run_cli,
)
from pentaset.verify import CHECK_NAMES


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def strict_json(text: str):
    """json.loads, refusing Infinity and NaN, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestParsing:
    def test_radius_is_squared_exactly(self):
        cfg = parse_config(["generate", "--radius", "3/2"])
        assert cfg.radius_sq == pytest.approx(2.25) and str(cfg.radius_sq) == "9/4"

    def test_radius_sq_direct(self):
        assert parse_config(["generate", "--radius-sq", "25"]).radius_sq == 25

    def test_defaults(self):
        cfg = parse_config(["generate", "--radius", "1"])
        assert cfg.window_sq == 1 and cfg.format == "jsonl" and cfg.out is None

    def test_missing_radius_is_usage_error(self):
        assert run_cli(["generate"]) == EXIT_USAGE

    def test_both_radius_flags_is_usage_error(self):
        assert run_cli(["generate", "--radius", "1", "--radius-sq", "1"]) == EXIT_USAGE

    def test_bad_rational_is_usage_error(self):
        assert run_cli(["generate", "--radius", "abc"]) == EXIT_USAGE

    def test_no_subcommand_is_usage_error(self):
        assert run_cli([]) == EXIT_USAGE

    def test_nonpositive_window_is_usage_error(self):
        assert run_cli(["generate", "--radius", "1", "--window-sq", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--radius", "--radius-sq"])
    def test_negative_radius_is_usage_error(self, capsys, flag):
        code = run_cli(["stats", flag, "-2"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "radius must be nonnegative" in captured.err

    @pytest.mark.parametrize("argv", [
        ["stats", "--radius-sq", "1000000000000", "--window-sq", "1000000"],
        ["generate", "--radius-sq", "1", "--window-sq", "250001"],
        ["analyze", "--radius", "1000"],
    ], ids=" ".join)
    def test_too_many_points_is_usage_error_at_once(self, argv):
        # about 3.5e18, 8.8e5 and 3.5e6 points (n ~ 3.53 R^2 w), refused
        # before any search, in a child that limits its own address space,
        # so that a search let through fails here and exhausts no memory
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
                "from pentaset.cli import run_cli\n"
                "sys.exit(run_cli(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=env, timeout=5)
        assert proc.returncode == EXIT_USAGE and proc.stdout == ""
        assert "range the enumeration accepts" in proc.stderr

    def test_parameters_outside_proven_range_are_usage_error(self, capsys):
        code = run_cli(["generate", "--radius-sq", "1", "--window-sq", "10000000"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "range the enumeration accepts" in captured.err

    @pytest.mark.parametrize("argv, one_point", [
        (["stats"], lambda out: json.loads(out)["classes"] == {
            "short": 0, "long": 0, "other": 0, "unknown": 1}),
        (["render", "--color-classes"], lambda out: out.count("<circle") == 1),
        (["verify", "--check", "rotation"], lambda out: [
            r["tested_count"] for r in json.loads(out)["reports"]] == [10]),
        (["verify"], lambda out: [
            r["tested_count"] for r in json.loads(out)["reports"]] == [0, 10, 0, 0, 0]),
    ], ids=["stats", "render-color-classes", "verify-rotation", "verify"])
    def test_one_point_set_builds_no_displacement_list(self, capsys, argv, one_point):
        # the set is the origin alone, which no walk starts from; the list of
        # w = 300000, which it would leave unused, is outside the accepted range
        code, out = run(capsys, *argv, "--radius-sq", "1/1000000", "--window-sq", "300000")
        assert code == EXIT_OK and one_point(out)

    @pytest.mark.parametrize("argv", [
        ["stats", "--radius-sq", "1e4300"],
        ["stats", "--radius-sq", "1e-4300"],
        ["verify", "--radius", "1", "--window-sq", "1e-5000"],
        ["stats", "--radius", "1e2200"],
        ["stats", "--radius-sq", "1.5e-4300"],
        ["stats", "--radius-sq", "1e999999999"],
        ["stats", "--radius-sq", "0e1_000_000"],
        ["stats", "--radius-sq", "1/" + "9" * 4301],
    ], ids=["1e4300", "1e-4300", "window-1e-5000", "radius-1e2200", "denominator-2e4300",
            "exponent-1e999999999", "zero-with-huge-exponent", "run-of-4301-digits"])
    def test_more_than_4300_digits_is_usage_error(self, capsys, argv):
        # beyond 4300 digits an R^2 or w cannot be printed; a huge exponent
        # is refused before Fraction spends time on it, and a long run of
        # digits before Python's int parser refuses it
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "4300" in captured.err
        assert len(captured.err) < 500
        if "9" * 4301 in argv[-1]:
            assert "more than 4300 digits" in captured.err

    def test_long_rational_is_abbreviated_in_messages(self, capsys):
        # parsed, but outside the range the search accepts: the banner and the error
        # give R^2 by its leading digits and digit count
        code = run_cli(["stats", "--radius-sq", "1e4299"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and "range the enumeration accepts" in err
        assert len(err.encode()) < 500 and "(4300 digits)" in err

    def test_reused_parser_keeps_no_state(self, capsys):
        # each call gives what it gives with a parser of its own, and the
        # parser is built once for the whole sequence
        seq = [["render", "--radius", "2", "--canvas", "50", "--highlight-roots"],
               ["render", "--radius", "2"],
               ["verify", "--radius-sq", "4", "--check", "rotation"],
               ["verify", "--radius-sq", "4", "--check", "nope"],
               ["render", "--radius", "2", "--canvas", "0"],
               ["verify", "--radius-sq", "4"]]
        alone = []
        for argv in seq:
            build_parser.cache_clear()
            alone.append(run(capsys, *argv))
        assert [code for code, _ in alone] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE,
                                                EXIT_USAGE, EXIT_OK]
        build_parser.cache_clear()
        assert [run(capsys, *argv) for argv in seq] == alone
        assert build_parser.cache_info().misses == 1

    def test_4300_digits_are_accepted(self):
        cfg = parse_config(["stats", "--radius-sq", "1e4299", "--window-sq", "1/" + "9" * 4300])
        assert cfg.radius_sq == 10 ** 4299 and cfg.window_sq.denominator == 10 ** 4300 - 1


class TestGenerate:
    def test_eleven_records(self, capsys):
        code, out = run(capsys, "generate", "--radius", "1")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 12  # header + 11 points

    def test_csv_format(self, capsys, tmp_path):
        dest = tmp_path / "snap.csv"
        code, _ = run(capsys, "generate", "--radius", "1", "--format", "csv",
                      "--out", str(dest))
        assert code == EXIT_OK
        lines = dest.read_text().splitlines()
        assert lines[1].startswith("a0,a1,a2,a3")
        assert len(lines) == 13

    def test_reproducible(self, capsys):
        _, a = run(capsys, "generate", "--radius", "2")
        _, b = run(capsys, "generate", "--radius", "2")
        assert a == b

    def test_unwritable_path_is_io_error(self, capsys):
        code, _ = run(capsys, "generate", "--radius", "1",
                      "--out", "/nonexistent-dir/snap.jsonl")
        assert code == 3


class TestAnalyze:
    def test_classes_filled(self, capsys):
        code, out = run(capsys, "analyze", "--radius", "2")
        assert code == EXIT_OK
        assert '"class":"short"' in out or '"class":"long"' in out

    def test_threads_option_is_gone(self):
        assert run_cli(["analyze", "--radius", "4", "--threads", "2"]) == EXIT_USAGE


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out = run(capsys, "verify", "--radius", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert len(doc["reports"]) == 5

    def test_single_check_selection(self, capsys):
        code, out = run(capsys, "verify", "--radius", "3", "--check", "rotation")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [r["check"] for r in doc["reports"]] == ["rotation"]

    def test_non_unit_window_skips_and_passes(self, capsys):
        code, out = run(capsys, "verify", "--radius-sq", "4", "--window-sq", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        skipped = {r["check"] for r in doc["reports"] if r["skipped"]}
        assert skipped == {"unit-lemma", "two-distance", "step-existence"}

    def test_stdout_is_valid_json(self, capsys):
        _, out = run(capsys, "verify", "--radius", "2")
        json.loads(out)

    def test_out_file_holds_the_stdout_report(self, capsys, tmp_path):
        argv = ("verify", "--radius-sq", "4", "--check", "rotation")
        code, out = run(capsys, *argv)
        dest = tmp_path / "v.json"
        assert run(capsys, *argv, "--out", str(dest)) == (code, "")
        assert dest.read_bytes() == out.encode()


class TestStats:
    def test_summary_fields(self, capsys):
        code, out = run(capsys, "stats", "--radius", "1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["count"] == 11
        assert set(doc["classes"]) == {"short", "long", "other", "unknown"}


    def test_radius_beyond_float_range(self, capsys):
        # the set is {0}; n/(pi R^2) rounds to 0.0
        code, out = run(capsys, "stats", "--radius-sq", "1e400", "--window-sq", "1e-401")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["count"] == 1 and doc["density"] == 0.0

    @pytest.mark.parametrize("radius_sq", ["1e-320", "1e-400"])
    def test_tiny_disc_has_null_density(self, capsys, radius_sq):
        # n/(pi R^2) has no finite float value: 1e-320 is subnormal, 1e-400
        # rounds to 0.0
        code, out = run(capsys, "stats", "--radius-sq", radius_sq)
        assert code == EXIT_OK
        doc = strict_json(out)
        assert doc["count"] == 1 and doc["density"] is None


class TestRender:
    def test_svg_with_highlights(self, capsys, tmp_path):
        dest = tmp_path / "fig.svg"
        code, _ = run(capsys, "render", "--radius", "6", "--highlight-roots",
                      "--out", str(dest))
        assert code == EXIT_OK
        svg = dest.read_text()
        assert svg.count('class="highlight"') == 6

    def test_color_classes_runs_analysis(self, capsys):
        code, out = run(capsys, "render", "--radius", "3", "--color-classes")
        assert code == EXIT_OK
        assert 'fill="#d62728"' in out

    def test_radius_beyond_float_range(self, capsys):
        code, out = run(capsys, "render", "--radius-sq", "1e400", "--window-sq", "1e-401")
        assert code == EXIT_OK
        root = ElementTree.fromstring(out)
        dots = [c.attrib for c in root if c.get("class") == "pt-unknown"]
        assert dots == [{"cx": "500.000000", "cy": "500.000000", "r": "3",
                         "fill": "#000000", "class": "pt-unknown"}]

    def test_canvas_beyond_float_range_is_overflow(self, capsys):
        code = run_cli(["render", "--radius", "2", "--canvas", "1" + "0" * 400])
        captured = capsys.readouterr()
        assert code == EXIT_OVERFLOW and captured.out == ""
        assert "arithmetic overflow" in captured.err

    @pytest.mark.parametrize("canvas", ["0", "-5"])
    def test_nonpositive_canvas_is_usage_error(self, capsys, canvas):
        code = run_cli(["render", "--radius", "1", "--canvas", canvas])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "canvas must be positive" in captured.err


class TestCollector:
    """run_cli turns the cyclic collector off while a command runs and
    gives the caller back its own setting, however the command ends."""

    @pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
    def caller(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.fixture
    def seen(self, monkeypatch):
        """gc.isenabled() at each enumerate_points call of the command."""
        states, real = [], cli.enumerate_points

        def observing(*args):
            states.append(gc.isenabled())
            return real(*args)
        monkeypatch.setattr(cli, "enumerate_points", observing)
        return states

    @pytest.mark.parametrize("argv, code", [
        (["generate", "--radius", "2"], EXIT_OK),
        (["generate", "--radius-sq", "1", "--window-sq", "10000000"], EXIT_USAGE),
        (["analyze", "--radius", "2", "--out", "{tmp}"], EXIT_IO),
    ], ids=["exit-0", "exit-2", "exit-3"])
    def test_off_inside_and_restored(self, capsys, tmp_path, caller, seen, argv, code):
        assert run_cli([a.format(tmp=tmp_path) for a in argv]) == code
        capsys.readouterr()
        assert seen == [False] and gc.isenabled() == caller

    def test_restored_when_an_exception_escapes(self, capsys, monkeypatch, caller, seen):
        def failing(*args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "enumerate_points", failing)
        with pytest.raises(RuntimeError, match="boom"):
            run_cli(["stats", "--radius", "2"])
        capsys.readouterr()
        assert seen == [False] and gc.isenabled() == caller

    def test_parse_error_leaves_it_alone(self, caller, seen):
        assert run_cli(["generate"]) == EXIT_USAGE
        assert seen == [] and gc.isenabled() == caller


class TestLayerCalls:
    """Every command enumerates once and analyses only when its output reads
    the nearest-neighbour classes; each call goes through the module binding
    that perfbench/tracing.py rebinds to time the layer."""

    BINDINGS = ((cli, "enumerate_points"), (cli, "analyze"))

    @pytest.mark.parametrize("argv, calls", [
        (["generate"], {"cli.enumerate_points": 1}),
        (["generate", "--format", "csv"], {"cli.enumerate_points": 1}),
        (["render"], {"cli.enumerate_points": 1}),
        (["render", "--highlight-roots"], {"cli.enumerate_points": 1}),
        (["analyze"], {"cli.enumerate_points": 1, "cli.analyze": 1}),
        (["analyze", "--format", "csv"], {"cli.enumerate_points": 1, "cli.analyze": 1}),
        (["stats"], {"cli.enumerate_points": 1, "cli.analyze": 1}),
        (["render", "--color-classes"], {"cli.enumerate_points": 1, "cli.analyze": 1}),
        # verify reads no class: two-distance derives its distances from the points
        (["verify"], {"cli.enumerate_points": 1}),
        *((["verify", "--check", name], {"cli.enumerate_points": 1}) for name in CHECK_NAMES),
        *((["verify", "--check", name, "--window-sq", "4"], {"cli.enumerate_points": 1})
          for name in ("all",) + CHECK_NAMES),
    ], ids=" ".join)
    def test_enumerates_once_and_analyses_when_read(self, capsys, monkeypatch, argv, calls):
        seen = Counter()
        for module, attr in self.BINDINGS:
            def counting(*args, _real=getattr(module, attr),
                         _name=f"{module.__name__.rpartition('.')[2]}.{attr}"):
                seen[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, attr, counting)
        code, out = run(capsys, *argv, "--radius-sq", "9")
        assert code == EXIT_OK and out
        assert seen == Counter(calls)

    def test_verify_turns_the_split_once(self, capsys, monkeypatch):
        # rotation and two-distance share the turn kept beside the split
        turns, real = [], modelset._turn
        monkeypatch.setattr(modelset, "_turn", lambda split: turns.append(split) or real(split))
        code, out = run(capsys, "verify", "--check", "all", "--radius-sq", "25")
        assert code == EXIT_OK and json.loads(out)["all_pass"]
        assert len(turns) == 1
