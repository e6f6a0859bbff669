"""Differential tests of the bitmask region-content kernel against
brute-force loops over the reference points with the exact predicates."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from enclosure import Point, compute_free_space_edges, random_instance
from enclosure.errors import InternalError
from enclosure.geometry import homogeneous, orient
from enclosure.instance import InputPolygon, _in_general_position
from conftest import as_point, build, opt, point_in_triangle_halfopen, req, square


def _brute_triangle(fsg, p, r, q):
    P, R, Q = fsg.vertices[p], fsg.vertices[r], fsg.vertices[q]
    return _brute_region(fsg, lambda ref: point_in_triangle_halfopen(ref, P, R, Q))


def _in_plank(ref, a, b, up):
    if a.x == b.x:
        return False
    lo, hi = (a, b) if a.x < b.x else (b, a)
    if not (lo.x < ref.x <= hi.x):
        return False
    side = orient(lo, hi, ref)
    return side > 0 if up else side < 0


def _brute_region(fsg, inside):
    """(required mask, penalty sum) of the references, as `Point`s, that
    `inside` holds: the required ones by their bits in `instance.required`
    order, the optional penalties added in `instance.optional` order."""
    mask = 0
    for bit, poly in enumerate(fsg.instance.required):
        if inside(as_point(poly.reference_point)):
            mask |= 1 << bit
    pen = 0.0
    for poly in fsg.instance.optional:
        if inside(as_point(poly.reference_point)):
            pen += poly.penalty
    return mask, pen


def _with_references(fsg, required, optional=()):
    """The graph rebuilt over stand-in polygons that carry the given
    reference points: `required` lists `Point`s, `optional` (penalty,
    `Point`) pairs."""
    polygons = [InputPolygon(f"R{i}", (), "required", reference_point=homogeneous(ref))
                for i, ref in enumerate(required)]
    polygons += [InputPolygon(f"O{i}", (), "optional", penalty, homogeneous(ref))
                 for i, (penalty, ref) in enumerate(optional)]
    return dataclasses.replace(fsg, instance=dataclasses.replace(
        fsg.instance, polygons=tuple(polygons)))


def _check_against_brute_force(fsg, extra_xs=()):
    verts = fsg.vertices
    ccw = 0
    for p, r, q in itertools.permutations(range(fsg.n), 3):
        prq_ccw = bool(fsg.left_vertices(q, p) >> r & 1)
        assert prq_ccw == (orient(verts[p], verts[r], verts[q]) > 0)
        if prq_ccw:
            # Penalty sums must be bit-identical, not merely close.
            assert fsg.triangle_content(p, r, q) == _brute_triangle(fsg, p, r, q)
            ccw += 1
    assert ccw > 0
    # Half-planes through every vertex, and at the extra abscissae.
    for x in [v.x for v in verts] + list(extra_xs):
        left = fsg.x_at_most(x)
        assert fsg.split_content(left) == _brute_region(fsg, lambda ref: ref.x <= x)
        assert fsg.split_content(fsg._all & ~left) == \
            _brute_region(fsg, lambda ref: ref.x > x)
    # Planks of every ordered vertex pair, up and down, asked twice so
    # that the memoized answer is checked too.
    for i, j in itertools.permutations(range(fsg.n), 2):
        for up in (True, False):
            want = _brute_region(
                fsg, lambda ref: _in_plank(ref, verts[i], verts[j], up))
            assert fsg.plank(i, j, up) == want, (i, j, up)
            assert fsg.plank(i, j, up) == want, (i, j, up)


@pytest.mark.parametrize("seed", [3, 8, 21, 34])
def test_kernel_matches_brute_force_random(seed):
    inst = random_instance(seed, n_objects=3, k=seed % 3, max_side=2)
    fsg = compute_free_space_edges(inst)
    # Some reference is rational: its reduced triple has W > 1.
    assert any(poly.reference_point[2] > 1 for poly in inst.polygons)
    _check_against_brute_force(fsg)


def test_kernel_matches_brute_force_references_at_vertex_abscissae():
    # The references are replaced after validation by points that still
    # lie on no line through two vertices, each on the vertical or the
    # horizontal line through a single vertex: they decide the ties of
    # `x_at_most` at vertex abscissae and the plank strips' open left and
    # closed right edges.  The extra abscissae are those of the references
    # at no vertex abscissa.
    fsg = compute_free_space_edges(build({"polygons": [
        req("A", square(0, 0, 2)),
        opt("B", square(4, 0, 2), 3),
        opt("C", [[1, 4], [5, 5], [3, 7]], 1.5),
    ]}))
    required = [Point(1, Fraction(9, 2)), Point(3, 4)]
    optional = [(0.1, Point(5, Fraction(7, 2))),
                (0.2, Point(Fraction(3, 2), 7)),
                (0.7, Point(Fraction(7, 2), 5)),
                (2.5, Point(3, Fraction(-1, 2))),
                (0.4, Point(1, 7))]
    fsg = _with_references(fsg, required, optional)
    for ref in required + [ref for _p, ref in optional]:
        assert _in_general_position(homogeneous(ref), fsg.vertices)
        assert ref.x in {v.x for v in fsg.vertices} \
            or ref.y in {v.y for v in fsg.vertices}
    _check_against_brute_force(fsg, extra_xs=[Fraction(3, 2), Fraction(7, 2)])


def test_reference_on_a_chord_is_an_internal_error():
    # No settled reference lies on a line through two vertices; a graph
    # built around one breaks the chord masks' invariant and says so.
    fsg = compute_free_space_edges(build({"polygons": [req("A", square(0, 0, 2))]}))
    fsg = _with_references(fsg, [Point(1, 0)])
    p, r, q = (fsg.vertices.index(Point(*v)) for v in ((0, 0), (2, 0), (2, 2)))
    with pytest.raises(InternalError):
        fsg._chord(p, r)
    with pytest.raises(InternalError):
        fsg.triangle_content(p, r, q)
    with pytest.raises(InternalError):
        fsg.plank(p, r, True)
