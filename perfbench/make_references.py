"""Record the reference outputs the benchmark's gate compares against.

    python3 perfbench/make_references.py

Runs every workload's op once on each pool entry and writes the digests
and counts to perfbench/references.json.  The committed file was recorded
from the code at the commit that introduced the benchmark; regenerate it
only when an output format changes on purpose, never to make a run pass.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    workdir = HERE / "_work"
    workdir.mkdir(exist_ok=True)
    refs = {}
    for name, w in WORKLOADS.items():
        state = w.setup(workdir)
        refs[name] = {}
        for r2 in w.pool:
            out = w.op(state, r2)
            failures = w.invariant_failures(r2, out)
            if failures:
                sys.exit(f"{name} radius_sq={r2}: {failures}")
            refs[name][r2] = w.summarize(out)
            print(name, r2, refs[name][r2].get("points", ""), file=sys.stderr)
    for path in workdir.glob("snapshot-*.jsonl"):
        path.unlink()
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
