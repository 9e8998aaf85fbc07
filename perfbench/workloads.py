"""The benchmark's workloads: input pools, one op each, and the output gate.

Every op's input is a radius_sq drawn from a small fixed pool of rationals
near the workload's R^2; the seed fixes the order, and consecutive ops never
repeat a pool entry.  The gate compares each op's output with references
recorded before any optimisation (references.json) and checks invariants
that hold independently of any reference.

Functions are called through module attributes (cli.run_cli,
io_render.read_snapshot, ...) so that the tracer's rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from pentaset import cli, io_render, modelset, verify
from pentaset.io_render import RenderOptions

ALL_CHECKS = ("separation", "rotation", "unit-lemma", "two-distance", "step-existence")
ROUNDTRIP_CHECKS = ("rotation", "two-distance", "step-existence")


def input_sequence(pool: tuple[str, ...], seed: int):
    """Endless pool entries in a seeded order, never the same one twice in a row."""
    rng = random.Random(seed)
    prev = None
    while True:
        prev = rng.choice([r for r in pool if r != prev])
        yield prev


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli_captured(argv: list[str]) -> tuple[int, str]:
    """One CLI invocation in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    return code, out.getvalue()


class CliWorkload:
    """An op is one `pentaset <argv>` run; set-up has no inputs to build."""

    def __init__(self, name, pool, tail_pct, window_sq, argv):
        self.name, self.pool, self.tail_pct = name, pool, tail_pct
        self.window_sq = window_sq
        self._argv = argv

    def setup(self, workdir: Path) -> None:
        return None

    def op(self, _state, radius_sq: str):
        return run_cli_captured(self._argv(radius_sq, self.window_sq))


class VerifyWorkload(CliWorkload):
    def summarize(self, out) -> dict:
        doc = json.loads(out[1])
        reports = {r["check"]: r for r in doc["reports"]}
        return {"two_distance_counts": reports["two-distance"]["details"]["counts"],
                "close_pairs": reports["unit-lemma"]["details"]["close_pairs"]}

    def invariant_failures(self, radius_sq: str, out) -> list[str]:
        code, stdout = out
        doc = json.loads(stdout)
        failures = [] if code == 0 else [f"exit code {code}"]
        if doc.get("all_pass") is not True:
            failures.append("all_pass is not true")
        names = [r["check"] for r in doc["reports"]]
        if sorted(names) != sorted(ALL_CHECKS):
            failures.append(f"checks run {names}")
        failures += [f"{r['check']} did not pass" for r in doc["reports"]
                     if r["pass"] is not True or r["skipped"]]
        params = doc["parameters"]
        if Fraction(params["radius_sq"]) != Fraction(radius_sq):
            failures.append(f"radius_sq {params['radius_sq']} != {radius_sq}")
        return failures


class AnalyzeWorkload(CliWorkload):
    """Snapshot on stdout; the header line carries the tool version, so the
    reference digest covers every line after it."""

    def __init__(self, name, pool, tail_pct, window_sq, fmt):
        super().__init__(name, pool, tail_pct, window_sq,
                         lambda r2, w: ["analyze", "--radius-sq", r2,
                                        "--window-sq", w, "--format", fmt])
        self.fmt = fmt

    def summarize(self, out) -> dict:
        body = out[1].split("\n", 1)[1]
        return {"records_sha256": _sha256(body), "points": self._count(body)}

    def _count(self, body: str) -> int:
        lines = body.count("\n")
        return lines - 1 if self.fmt == "csv" else lines  # csv: column-name row

    def invariant_failures(self, radius_sq: str, out) -> list[str]:
        code, stdout = out
        failures = [] if code == 0 else [f"exit code {code}"]
        head, _, body = stdout.partition("\n")
        if self.fmt == "jsonl":
            header = json.loads(head)
            r2, w = header["radius_sq"], header["window_sq"]
        else:
            fields = head.split(",")
            r2, w = fields[1], fields[3]
        if Fraction(r2) != Fraction(radius_sq) or Fraction(w) != Fraction(self.window_sq):
            failures.append(f"header radius_sq={r2} window_sq={w}")
        n = self._count(body)
        if n % 10 != 1:
            failures.append(f"{n} points, not 1 mod 10")
        return failures


class RoundtripWorkload:
    """Set-up enumerates, analyses and writes one JSONL snapshot per pool
    entry.  An op reads one back, runs the O(n) lookup checks on it, renders
    it and writes it as CSV."""

    def __init__(self, name, pool, tail_pct):
        self.name, self.pool, self.tail_pct = name, pool, tail_pct

    def setup(self, workdir: Path) -> dict[str, Path]:
        """The snapshot file of each pool entry."""
        files = {}
        for i, radius_sq in enumerate(self.pool):
            snap = modelset.analyze(modelset.enumerate_points(Fraction(radius_sq)))
            files[radius_sq] = path = workdir / f"snapshot-{i}.jsonl"
            with open(path, "w", encoding="utf-8", newline="") as f:
                io_render.write_snapshot(snap, "jsonl", f)
        return files

    def op(self, files: dict[str, Path], radius_sq: str):
        with open(files[radius_sq], encoding="utf-8", newline="") as f:
            snap = io_render.read_snapshot(f)
        reports = {c: verify.run_check(c, snap) for c in ROUNDTRIP_CHECKS}
        svg = io_render.render_svg(snap, RenderOptions(highlight_roots=True,
                                                       color_classes=True))
        buf = io.StringIO()
        io_render.write_snapshot(snap, "csv", buf)
        return snap, reports, svg, buf.getvalue()

    def summarize(self, out) -> dict:
        snap, _reports, svg, csv_text = out
        members = sorted((p.z.coords(), p.dist_class) for p in snap.points)
        return {"set_sha256": _sha256("".join(f"{a} {c}\n" for a, c in members)),
                "svg_sha256": _sha256(svg),
                "csv_sha256": _sha256(csv_text.split("\n", 1)[1]),
                "points": len(members)}

    def invariant_failures(self, radius_sq: str, out) -> list[str]:
        snap, reports, _svg, _csv = out
        failures = []
        if snap.radius_sq != Fraction(radius_sq) or snap.window.w != 1:
            failures.append(f"read back radius_sq={snap.radius_sq} w={snap.window.w}")
        if len(snap.points) % 10 != 1:
            failures.append(f"{len(snap.points)} points, not 1 mod 10")
        for name in ("rotation", "step-existence"):
            if not reports[name].passed:
                failures.append(f"{name} did not pass")
        if not reports["two-distance"].passed and not _unanalysed(reports["two-distance"]):
            failures.append("two-distance did not pass")
        return failures


def _unanalysed(report) -> bool:
    """True when two-distance failed only because the snapshot carries no
    distances: the JSONL/CSV formats store the class but not min_dist_sq, so
    a snapshot read from disk reaches the check with none to test."""
    counts = report.details.get("counts", {})
    return (not any(counts.values())
            and [v.get("clause") for v in report.violations] == ["missing-distance-class"])


WORKLOADS = {w.name: w for w in (
    VerifyWorkload(
        "verify_pairs", ("35", "71/2", "36", "73/2", "37", "112/3", "38", "39"), 75, "1",
        lambda r2, w: ["verify", "--radius-sq", r2, "--window-sq", w, "--check", "all"]),
    AnalyzeWorkload(
        "analyze_large", ("245", "491/2", "246", "740/3", "248", "250", "252"), 75,
        "1", "jsonl"),
    AnalyzeWorkload(
        "analyze_dense", ("181/5", "109/3", "73/2", "147/4", "221/6", "184/5", "295/8"), 75,
        "49/4", "csv"),
    RoundtripWorkload("snapshot_roundtrip", ("317", "319", "321"), 90),
)}


def gate(workload, references: dict, radius_sq: str, out) -> list[str]:
    """Every reason this op's output is wrong; empty when it is correct."""
    failures = workload.invariant_failures(radius_sq, out)
    ref = references[workload.name][radius_sq]
    got = workload.summarize(out)
    failures += [f"{key}: {got.get(key)!r} != reference {want!r}"
                 for key, want in ref.items() if got.get(key) != want]
    return failures
