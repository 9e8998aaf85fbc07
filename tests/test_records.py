"""The record classes' contract: constructor signatures and defaults, value
equality, hashing, immutability, and an import of the package that loads
neither dataclasses nor inspect."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from pentaset.cyclotomic import CycInt, GoldenInt, embed_approx
from pentaset.io_render import RenderOptions
from pentaset.modelset import (
    PointRecord,
    Snapshot,
    Window,
    analyze,
    displacement_candidates,
    enumerate_points,
)
from pentaset.verify import VerificationReport

ROOT = Path(__file__).resolve().parent.parent


def _record(**kwargs):
    return PointRecord((1, 0, 0, 0), (1, 0), 1.0, 0.0, **kwargs)


# (factory, a field name); two calls of a factory give equal, distinct objects
FROZEN = [
    (lambda: Window(Fraction(49, 4)), "w"),
    (lambda: GoldenInt(2, -1), "p"),
    (lambda: GoldenInt(2, -1), "q"),
    (lambda: CycInt(1, -2, 3, 0), "a0"),
    (lambda: CycInt(1, -2, 3, 0), "a3"),
    (lambda: RenderOptions(500, True, False), "canvas"),
    (lambda: RenderOptions(500, True, False), "color_classes"),
]
MUTABLE = [
    lambda: _record(),
    lambda: Snapshot(Window(), Fraction(4), [_record()]),
    lambda: VerificationReport("rotation", True, 3, [], {"radius_sq": "4"}),
]
# (an object, an object of the same class with one field changed)
UNEQUAL = [
    (Window(1), Window(2)),
    (GoldenInt(2, -1), GoldenInt(2, 0)),
    (GoldenInt(2, -1), GoldenInt(3, -1)),
    (CycInt(1, 2, 3, 4), CycInt(1, 2, 3, 5)),
    (RenderOptions(), RenderOptions(highlight_roots=True)),
    (_record(), _record(dist_class="long")),
    (_record(), _record(min_dist_sq=GoldenInt(1, 0))),
    (Snapshot(Window(), Fraction(4)), Snapshot(Window(2), Fraction(4))),
    (Snapshot(Window(), Fraction(4)), Snapshot(Window(), Fraction(4), [_record()])),
    (VerificationReport("a", True, 0), VerificationReport("a", True, 0, skipped=True)),
    (VerificationReport("a", True, 0), VerificationReport("a", True, 0, details={"k": 1})),
]


class TestImmutable:
    @pytest.mark.parametrize("make, name", FROZEN)
    def test_assignment_and_deletion_refused(self, make, name):
        obj = make()
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 0
        assert getattr(obj, name) == before

    @pytest.mark.parametrize("make, name", FROZEN)
    def test_hash_by_value(self, make, name):
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_window_is_the_displacement_cache_key(self):
        assert displacement_candidates(Window(1)) is displacement_candidates(Window(Fraction(1)))
        assert displacement_candidates(Window("49/4")) is displacement_candidates(
            Window(Fraction(49, 4)))

    def test_records_share_one_golden_int(self):
        points = analyze(enumerate_points(100)).points
        values = [p.min_dist_sq for p in points if p.min_dist_sq is not None]
        assert len({id(g) for g in values}) == len(set(values)) == 2


class TestMutable:
    @pytest.mark.parametrize("make", MUTABLE)
    def test_equal_by_value_and_unhashable(self, make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        with pytest.raises(TypeError):
            hash(a)

    def test_point_record_has_only_its_fields(self):
        rec = _record()
        rec.coords, rec.dist_class = (0, 1, 0, 0), "short"
        assert (rec.coords, rec.dist_class) == ((0, 1, 0, 0), "short")
        with pytest.raises(AttributeError):
            rec.not_a_field = 0


class TestEquality:
    @pytest.mark.parametrize("a, b", UNEQUAL)
    def test_one_field_apart_is_unequal(self, a, b):
        assert a != b and not a == b

    @pytest.mark.parametrize("obj, other", [
        (Window(1), Fraction(1)),
        (Window(1), SimpleNamespace(w=Fraction(1))),
        (GoldenInt(1, 0), (1, 0)),
        (GoldenInt(1, 0), SimpleNamespace(p=1, q=0)),
        (GoldenInt(1, 0), 1),
        (RenderOptions(), (1000, False, False)),
        (RenderOptions(), SimpleNamespace(canvas=1000, highlight_roots=False,
                                          color_classes=False)),
        (_record(), ((1, 0, 0, 0), (1, 0), 1.0, 0.0, None, "unknown")),
        (_record(), SimpleNamespace(coords=(1, 0, 0, 0), iabs=(1, 0), x=1.0, y=0.0,
                                    min_dist_sq=None, dist_class="unknown")),
        (Snapshot(Window(), Fraction(4)), SimpleNamespace(
            window=Window(), radius_sq=Fraction(4), points=[])),
        (VerificationReport("a", True, 0), SimpleNamespace(
            check_name="a", passed=True, tested_count=0, violations=[], parameters={},
            skipped=False, details={})),
    ])
    def test_never_equal_to_another_class(self, obj, other):
        assert obj != other and other != obj and not obj == other

    def test_snapshot_equality_ignores_the_kept_split(self):
        fresh = enumerate_points(4)
        copy = Snapshot(fresh.window, fresh.radius_sq, list(fresh.points))
        assert fresh._split_memo is not None and copy._split_memo is None
        assert fresh == copy


class TestConstructors:
    def test_window_converts_and_validates(self):
        assert Window().w == 1 and type(Window().w) is Fraction
        for w, want in [(2, Fraction(2)), ("49/4", Fraction(49, 4)), (0.5, Fraction(1, 2)),
                        (Fraction(1, 5), Fraction(1, 5))]:
            assert type(Window(w).w) is Fraction and Window(w=w).w == want
        assert Window(3).diam_sq == 12
        for w in (0, -1, "-1/2"):
            with pytest.raises(ValueError, match="window squared radius must be positive, got"):
                Window(w)

    def test_keywords_and_defaults(self):
        g = GoldenInt(p=2, q=-1)
        assert (g.p, g.q) == (2, -1)
        c = CycInt(a0=1, a1=2, a2=3, a3=4)
        assert (c.a0, c.a1, c.a2, c.a3) == (1, 2, 3, 4)
        o = RenderOptions()
        assert (o.canvas, o.highlight_roots, o.color_classes) == (1000, False, False)
        o = RenderOptions(canvas=10, highlight_roots=True, color_classes=True)
        assert (o.canvas, o.highlight_roots, o.color_classes) == (10, True, True)
        r = PointRecord(coords=(0, 0, 0, 0), iabs=(0, 0), x=0.0, y=0.0)
        assert (r.min_dist_sq, r.dist_class) == (None, "unknown")
        r = PointRecord((0, 0, 0, 0), (0, 0), 0.0, 0.0, GoldenInt(1, 0), "long")
        assert (r.min_dist_sq, r.dist_class) == (GoldenInt(1, 0), "long")
        s = Snapshot(window=Window(), radius_sq=Fraction(4), points=[r])
        assert (s.window, s.radius_sq, s.points, s._split_memo) == (
            Window(), Fraction(4), [r], None)
        v = VerificationReport(check_name="c", passed=False, tested_count=2,
                               violations=[1], parameters={"a": "b"}, skipped=True,
                               details={"d": 0})
        assert v.to_json_dict() == {"check": "c", "pass": False, "skipped": True,
                                    "tested_count": 2, "violations": [1],
                                    "parameters": {"a": "b"}, "details": {"d": 0}}

    @pytest.mark.parametrize("call", [
        lambda: Window(1, 2),
        lambda: GoldenInt(1),
        lambda: GoldenInt(1, 2, 3),
        lambda: CycInt(1, 2, 3),
        lambda: RenderOptions(1, 2, 3, 4),
        lambda: PointRecord((0, 0, 0, 0), (0, 0), 0.0),
        lambda: Snapshot(Window()),
        lambda: Snapshot(Window(), Fraction(1), [], None),
        lambda: Snapshot(Window(), Fraction(1), _split_memo=None),
        lambda: VerificationReport("c", True),
    ])
    def test_wrong_arguments_are_type_errors(self, call):
        with pytest.raises(TypeError):
            call()

    def test_defaults_are_fresh(self):
        a, b = Snapshot(Window(), Fraction(1)), Snapshot(Window(), Fraction(1))
        assert a.points == [] and a.points is not b.points
        a.points.append(_record())
        assert b.points == []
        points = []
        assert Snapshot(Window(), Fraction(1), points).points is points
        r, s = VerificationReport("c", True, 0), VerificationReport("c", True, 0)
        assert (r.violations, r.parameters, r.details, r.skipped) == ([], {}, {}, False)
        for name in ("violations", "parameters", "details"):
            assert getattr(r, name) is not getattr(s, name)

    def test_cycint_views(self):
        c = CycInt(1, -2, 3, 0)
        assert type(c.coords()) is tuple and c.coords() == (1, -2, 3, 0)
        a0, a1, a2, a3 = c
        assert (a0, a1, a2, a3) == (1, -2, 3, 0)
        assert embed_approx(c) == embed_approx((1, -2, 3, 0))


@pytest.mark.parametrize("flags, absent", [
    ([], ("dataclasses", "inspect")),
    # without site, which imports typing itself, typing stays out too
    (["-S"], ("dataclasses", "inspect", "typing")),
])
def test_import_loads_no_dataclasses_or_inspect(flags, absent):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (f"import pentaset, pentaset.cli, sys; "
            f"print(*[m for m in {absent!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=env, check=True, timeout=60)
    assert proc.stdout.split() == []
