import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dinfh.errors import DegeneratePencil, GridTooLarge, InvalidPlane
from dinfh.spectrum import (
    DEGENERATE_CUTOFF,
    MAX_RASTER_POINTS,
    MembershipResult,
    PencilPoint,
    RasterPlane,
    Witness,
    as_point,
    g_values,
    membership,
    membership_grid,
    pencil_scale,
    raster_csv_lines,
    slice_raster,
    solve_x,
)

P = PencilPoint(1, 8, 4, 2)


def _segment_distance(x: complex) -> float:
    """Distance from a complex number to the real segment [-1, 1]."""
    re = min(1.0, max(-1.0, x.real))
    return abs(x - re)


def reference_membership(z, tol=1e-9):
    """The scalar routine membership replaced, branch for branch: the
    independent reference for membership_grid."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    z = as_point(z)
    scale = pencil_scale(z)
    p2 = 2.0 * z.z1 * z.z2
    s = z.z1 * z.z1 + z.z2 * z.z2
    a_minus = (z.z0 - z.z3) ** 2 - s
    a_plus = (z.z0 + z.z3) ** 2 - s

    if abs(z.z1 * z.z2) < DEGENERATE_CUTOFF * scale:
        margin = min(abs(a_minus), abs(a_plus)) / scale
        inside = margin <= tol
        witnesses = []
        for sign, val in (("-", a_minus), ("+", a_plus)):
            if abs(val) <= tol * scale:
                witnesses.append(Witness(sign, None))
        return MembershipResult(inside, witnesses, margin)

    witnesses = [Witness(sign, x) for sign, x in solve_x(z)]
    inside = any(
        abs(w.x.imag) <= tol and abs(w.x.real) <= 1.0 + tol for w in witnesses
    )
    margin = min(abs(p2) * _segment_distance(w.x) for w in witnesses) / scale
    return MembershipResult(inside, witnesses, margin)


def dinfty_membership(z0, z1, z2):
    """Membership for the three-term pencil (z3 = 0).

    The two sign families coincide, so a single witness family is reported.
    """
    res = membership(PencilPoint(z0, z1, z2, 0j))
    seen = set()
    deduped = []
    for w in res.witnesses:
        key = (None if w.x is None else (round(w.x.real, 15), round(w.x.imag, 15)))
        if key not in seen:
            seen.add(key)
            deduped.append(Witness("+", w.x))
    res.witnesses = deduped
    return res

real_coords = st.floats(-3, 3, allow_nan=False)
real_points = st.tuples(real_coords, real_coords, real_coords, real_coords)


class TestGValues:
    def test_identity_point(self):
        assert g_values((1, 0, 0, 0), 0) == (1, 1)

    def test_at_p(self):
        for x in (-0.3, 0.0, 1.0):
            gm, gp = g_values(P, x)
            assert gm == pytest.approx(-(79 + 64 * x))
            assert gp == pytest.approx(-(71 + 64 * x))

    def test_symmetric_point(self):
        assert g_values((0, 1, 1, 2), 1) == (0, 0)


class TestSolveX:
    def test_symmetric_point(self):
        roots = dict(solve_x((0, 1, 1, 2)))
        assert roots["-"] == pytest.approx(1)
        assert roots["+"] == pytest.approx(1)

    def test_at_p(self):
        roots = dict(solve_x(P))
        assert roots["-"] == pytest.approx(-79 / 64)
        assert roots["+"] == pytest.approx(-71 / 64)

    def test_roots_kill_their_family(self):
        for sign, x in solve_x((2, 1, 1, 0)):
            gm, gp = g_values((2, 1, 1, 0), x)
            val = gm if sign == "-" else gp
            assert abs(val) < 1e-14
        assert dict(solve_x((2, 1, 1, 0)))["-"] == pytest.approx(1)

    def test_degenerate_raises(self):
        with pytest.raises(DegeneratePencil):
            solve_x((1, 0, 1, 0))


class TestMembership:
    def test_identity_not_in_spectrum(self):
        assert not membership((1, 0, 0, 0)).in_spectrum

    def test_degenerate_in_spectrum(self):
        res = membership((1, 1, 0, 0))
        assert res.in_spectrum
        assert res.margin <= 1e-12

    def test_p_not_in_spectrum(self):
        res = membership(P)
        assert not res.in_spectrum
        assert res.margin > 0.1

    def test_symmetric_point_with_witness(self):
        res = membership((0, 1, 1, 2))
        assert res.in_spectrum
        assert any(abs(w.x - 1) < 1e-12 for w in res.witnesses)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            membership(P, tol=0.0)

    @given(real_points, st.sampled_from([2.0, -1.0, 0.5j, 1 + 2j, -3.0j]))
    def test_projective_homogeneity(self, z, c):
        res = membership(z)
        assume(res.witnesses and all(w.x is not None for w in res.witnesses))
        assume(all(abs(abs(w.x.real) - 1) > 1e-6 for w in res.witnesses))
        scaled = membership(tuple(c * v for v in z))
        assert scaled.in_spectrum == res.in_spectrum
        for w1, w2 in zip(res.witnesses, scaled.witnesses):
            assert w1.sign == w2.sign
            assert w2.x == pytest.approx(w1.x, abs=1e-9)

    @given(real_points)
    def test_sign_symmetries(self, z):
        z0, z1, z2, z3 = z
        base = membership(z)
        flip3 = membership((z0, z1, z2, -z3))
        flip12 = membership((z0, -z1, -z2, z3))
        assert flip3.in_spectrum == base.in_spectrum
        assert flip12.in_spectrum == base.in_spectrum
        assert flip12.margin == pytest.approx(base.margin, abs=1e-12)

    @given(real_points)
    def test_witnesses_zero_their_family(self, z):
        res = membership(z)
        assume(res.witnesses and all(w.x is not None for w in res.witnesses))
        scale = pencil_scale(z)
        for w in res.witnesses:
            val = g_values(z, w.x)[0 if w.sign == "-" else 1]
            assert abs(val) <= 10 * 1e-9 * scale

    def test_grid_matches_scalar(self, rng):
        pts = rng.uniform(-2, 2, size=(200, 4))
        margin, inside = membership_grid(pts.astype(complex))
        for i in range(len(pts)):
            res = reference_membership(tuple(pts[i]))
            assert inside[i] == res.in_spectrum
            assert margin[i] == pytest.approx(res.margin, abs=1e-13)

    @pytest.mark.parametrize("tol", [1e-9, 1e-2])
    def test_scalar_matches_reference(self, rng, tol):
        # real and complex points, the x-independent branch (z1 = 0, z2 = 0,
        # z1 z2 below the cutoff) and points on the spectrum
        pts = list(rng.uniform(-2, 2, (60, 4)))
        pts += list(rng.uniform(-2, 2, (60, 4)) + 1j * rng.uniform(-1, 1, (60, 4)))
        for z in pts[:10]:
            z[1] = 0.0
        for z in pts[60:70]:
            z[2] = 0.0
        pts += [(1, 1e-13, 1, 0), (1, 1, 0, 0), (0, 1, 1, 2), (2, 1, 1, 0), P]
        for z in pts:
            res = membership(tuple(z), tol=tol)
            ref = reference_membership(tuple(z), tol=tol)
            assert res.in_spectrum == ref.in_spectrum
            # numpy's and Python's complex abs and division may differ in
            # the last bit
            assert res.margin == pytest.approx(ref.margin, rel=1e-14, abs=1e-15)
            assert res.witnesses == ref.witnesses
        # the resolvent point of criterion 2 keeps its margin bit for bit
        assert membership(P).margin == reference_membership(P).margin == 0.109375


class TestDinfty:
    def test_on_spectrum(self):
        assert dinfty_membership(1, 1, 0).in_spectrum

    def test_off_spectrum(self):
        res = dinfty_membership(3, 1, 1)
        assert not res.in_spectrum
        assert res.witnesses[0].x == pytest.approx(3.5)

    def test_edge_witness(self):
        res = dinfty_membership(0, 1, 1)
        assert res.in_spectrum
        assert res.witnesses[0].x == pytest.approx(-1)

    def test_single_family(self):
        assert len(dinfty_membership(0, 1, 1).witnesses) == 1


class TestRaster:
    def test_example_plane(self):
        plane = RasterPlane(axes=(0, 1), fixed=PencilPoint(0, 0, 1, 0))
        u, v, margin, inside = slice_raster(plane, (5, 5, (-2, 2), (-2, 2)))
        # center cell z = (0, 0, 1, 0): |0 - 0 - 1| > tol
        assert not inside[2, 2]
        # cell (z0, z1) = (2, 1): root x = (4 - 2)/2 = 1
        assert inside[4, 3]

    def test_degenerate_plane(self):
        plane = RasterPlane(axes=(0, 3), fixed=PencilPoint(0, 0, 0, 0))
        u, v, margin, inside = slice_raster(plane, (5, 5, (-2, 2), (-2, 2)))
        for i in range(5):
            assert inside[i, i]  # z0 = z3
            assert inside[i, 4 - i]  # z0 = -z3

    def test_invalid_plane(self):
        with pytest.raises(InvalidPlane):
            RasterPlane(axes=(1, 1), fixed=PencilPoint())

    @pytest.mark.parametrize(
        "n_u, n_v", [(MAX_RASTER_POINTS + 1, 2), (1025, 1024), (10**6, 10**6)]
    )
    def test_point_cap_before_the_grid(self, monkeypatch, n_u, n_v):
        monkeypatch.setattr(np, "linspace", None)  # any allocation fails
        plane = RasterPlane(axes=(0, 1), fixed=PencilPoint(0, 0, 1, 0))
        with pytest.raises(GridTooLarge, match=f"raster of {n_u} x {n_v} points"):
            slice_raster(plane, (n_u, n_v, (-1, 1), (-1, 1)))

    def test_csv_header(self):
        plane = RasterPlane(axes=(0, 1), fixed=PencilPoint(0, 0, 1, 0))
        out = slice_raster(plane, (2, 2, (-1, 1), (-1, 1)))
        lines = list(raster_csv_lines(*out))
        assert lines[0] == "u,v,margin,in_spectrum"
        assert len(lines) == 5
