"""Exact enumeration, analysis, and verification of the discrete point set
of fifth-cyclotomic integers whose Galois conjugate stays in a disc."""

__version__ = "0.1.0"

from .cyclotomic import embed_approx, golden_cmp  # noqa: F401
from .modelset import (  # noqa: F401
    PointRecord,
    Snapshot,
    Window,
    analyze,
    classify_distance,
    enumerate_points,
    stats,
)
from .verify import VerificationReport, run_check, verify_all  # noqa: F401
from .io_render import (  # noqa: F401
    RenderOptions,
    read_snapshot,
    render_svg,
    write_snapshot,
)
