"""The benchmark's hooks into the package still resolve.

perfbench/tracing.py and perfbench/run.py look package names up with
getattr(..., None), so a renamed function would turn its metric into 0
instead of failing; these tests fail instead.
"""

import sys
from pathlib import Path

from pentaset import cyclotomic
from pentaset.cyclotomic import embed_approx
from pentaset.modelset import enumerate_points

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402

# kernels that left the package before this test existed; their metrics read 0
KNOWN_MISSING_KERNELS = {"field_norm", "golden_cmp_golden"}


def test_traced_calls_resolve():
    for module, attr, _name, _attrs in tracing.TRACED_CALLS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_kernels_resolve():
    ns = run._kernel_ns(seed=0)
    names = {key.removeprefix("cyclotomic.").removesuffix("_ns") for key in ns}
    missing = {n for n in names if not callable(getattr(cyclotomic, n, None))}
    assert missing == KNOWN_MISSING_KERNELS
    assert all(ns[f"cyclotomic.{n}_ns"] > 0 for n in names - missing)


def test_record_views_the_benchmark_reads():
    # workloads.py reads p.z.coords(); run.py calls embed_approx on a CycInt
    for p in enumerate_points(4).points:
        assert p.z.coords() == p.coords
        assert embed_approx(p.z) == complex(p.x, p.y)
