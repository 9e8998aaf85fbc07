"""The benchmark's hooks into the package still resolve, and still see
every layer.

perfbench/tracing.py and perfbench/run.py look package names up with
getattr(..., None), so a renamed function would turn its metric into 0
instead of failing; these tests fail instead.  The tracer times a layer by
rebinding module attributes, so a caller that bypasses a binding would zero
that layer's metric too; the span test catches that.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from pentaset import cyclotomic
from pentaset.cyclotomic import embed_approx
from pentaset.modelset import enumerate_points

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# kernels that left the package; their metrics read 0
KNOWN_MISSING_KERNELS = {"field_norm", "golden_cmp_golden", "quad_form"}
# bindings of the pipeline verify ran on its own; `pentaset verify` now
# enumerates through cli's binding, which carries the same span, and analyses nothing
KNOWN_MISSING_BINDINGS = {"pentaset.verify.enumerate_points", "pentaset.verify.analyze"}


def test_traced_calls_resolve():
    missing = {f"{module.__name__}.{attr}" for module, attr, _name, _attrs in tracing.TRACED_CALLS
               if not callable(getattr(module, attr, None))}
    assert missing == KNOWN_MISSING_BINDINGS


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


ANALYZE_LAYERS = ("cli.run_cli", "modelset.enumerate_points", "modelset.analyze",
                  "io_render.write_snapshot")
#: the spans one op of each workload records, each once, besides its root "op"
OP_LAYERS = {
    "verify_pairs": ("cli.run_cli", "modelset.enumerate_points",
                     *(f"verify.{c}" for c in workloads.ALL_CHECKS)),
    "analyze_large": ANALYZE_LAYERS,
    "analyze_dense": ANALYZE_LAYERS,
    "snapshot_roundtrip": ("io_render.read_snapshot", "io_render.render_svg",
                           "io_render.write_snapshot",
                           *(f"verify.{c}" for c in workloads.ROUNDTRIP_CHECKS)),
}


@pytest.mark.parametrize("name", sorted(OP_LAYERS))
def test_tracer_sees_every_layer(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    references = json.loads((run.HERE / "references.json").read_text(encoding="utf-8"))
    state = workload.setup(tmp_path)
    radius_sq = workload.pool[0]
    tracer = tracing.Tracer()
    with tracer.op(0):
        out = workload.op(state, radius_sq)
    assert workloads.gate(workload, references, radius_sq, out) == []
    assert Counter(s["name"] for s in tracer.spans) == Counter(("op", *OP_LAYERS[name]))
    assert all(s["name"] in run.LAYER_SELF for s in tracer.spans)
    for s in tracer.spans:  # the sizes the per-point and bytes metrics read
        assert all(s["attrs"][k] > 0 for k in ("points", "bytes_out") if k in s["attrs"]), s
