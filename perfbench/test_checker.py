"""Self-tests of the benchmark's output gate.

    python3 -m pytest -q perfbench/test_checker.py

A corrupted output must count as a failed op, and the seed must change the
inputs but not the verdicts.
"""

import json
import sys
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import Loop  # noqa: E402
from workloads import WORKLOADS, gate, input_sequence  # noqa: E402

REFS = json.loads((HERE / "references.json").read_text(encoding="utf-8"))


def check(name, radius_sq, out):
    return gate(WORKLOADS[name], REFS, radius_sq, out)


@pytest.fixture(scope="module")
def dense():
    w = WORKLOADS["analyze_dense"]
    return w.pool[0], w.op(None, w.pool[0])


@pytest.fixture(scope="module")
def verified():
    w = WORKLOADS["verify_pairs"]
    return w.pool[0], w.op(None, w.pool[0])


@pytest.fixture(scope="module")
def roundtrip(tmp_path_factory):
    w = WORKLOADS["snapshot_roundtrip"]
    return w, w.setup(tmp_path_factory.mktemp("snapshots"))


def test_reference_outputs_pass(dense, verified):
    assert check("analyze_dense", *dense) == []
    assert check("verify_pairs", *verified) == []


def test_snapshot_missing_one_record_fails(dense):
    r2, (code, text) = dense
    lines = text.splitlines(keepends=True)
    assert check("analyze_dense", r2, (code, "".join(lines[:5] + lines[6:])))


def test_snapshot_flipped_class_fails(dense):
    r2, (code, text) = dense
    lines = text.splitlines(keepends=True)
    row = lines[10].rstrip("\n").split(",")
    row[-1] = "short" if row[-1] != "short" else "long"
    lines[10] = ",".join(row) + "\n"
    assert check("analyze_dense", r2, (code, "".join(lines)))


def test_nonzero_exit_fails(dense):
    r2, (_code, text) = dense
    assert check("analyze_dense", r2, (1, text))


def test_verify_all_pass_false_fails(verified):
    r2, (code, text) = verified
    doc = json.loads(text)
    doc["all_pass"] = False
    assert check("verify_pairs", r2, (code, json.dumps(doc)))


def test_verify_failed_check_fails(verified):
    r2, (code, text) = verified
    doc = json.loads(text)
    doc["reports"][0]["pass"] = False
    assert check("verify_pairs", r2, (code, json.dumps(doc)))


def test_roundtrip_reference_passes(roundtrip):
    w, state = roundtrip
    r2 = w.pool[0]
    assert check(w.name, r2, w.op(state, r2)) == []


def _flip_first(lines, old, new):
    i = next(i for i, ln in enumerate(lines) if old in ln)
    return lines[:i] + [lines[i].replace(old, new)] + lines[i + 1:]


@pytest.mark.parametrize("corrupt", [
    lambda lines: lines[:7] + lines[8:],
    lambda lines: _flip_first(lines, '"class":"short"', '"class":"long"'),
    lambda lines: _flip_first(lines, '"class":"long"', '"class":"short"'),
], ids=["missing-record", "short-to-long", "long-to-short"])
def test_roundtrip_corrupted_file_fails(roundtrip, tmp_path, corrupt):
    w, state = roundtrip
    r2 = w.pool[0]
    lines = state[r2].read_text(encoding="utf-8").splitlines(keepends=True)
    bad = corrupt(lines)
    assert bad != lines
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(bad), encoding="utf-8")
    out = w.op({r2: path}, r2)
    assert check(w.name, r2, out)


def test_exception_counts_as_failed_op():
    class Broken:
        def op(self, _state, _radius_sq):
            raise OverflowError("boom")

    loop = Loop(Broken(), lambda _r2, _out: [], iter(()))
    loop.run_op(None, "1")
    assert loop.failed == 1 and "OverflowError" in loop.first_failure


def test_seed_changes_inputs_not_verdicts():
    w = WORKLOADS["verify_pairs"]
    first = [list(zip(range(6), input_sequence(w.pool, seed))) for seed in (1, 2)]
    assert first[0] != first[1]
    for seq in first:
        assert all(a != b for (_, a), (_, b) in zip(seq, seq[1:]))
    for seed in (1, 2):
        loop = Loop(w, partial(gate, w, REFS), input_sequence(w.pool, seed))
        for _ in range(2):
            loop.run_op(None, next(loop.inputs))
        assert loop.failed == 0, loop.first_failure
