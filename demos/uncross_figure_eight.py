"""Uncrossing a self-intersecting walk into a weakly simple polygon.

A figure-eight crosses itself once; uncrossing subdivides at the crossing,
re-stitches a non-crossing tour, and never increases the weight while
preserving winding parity everywhere.

Run:  python3 demos/uncross_figure_eight.py
"""

from enclosure import (
    Point,
    check_weak_simplicity,
    make_walk,
    parse_instance,
    uncross,
    validate_and_subdivide,
)

EMPTY = validate_and_subdivide(parse_instance({"polygons": []}))

FIGURE_EIGHT = [(0, 0), (4, 4), (4, 0), (0, 4)]  # a bowtie: one crossing


def show(label, walk):
    pts = " -> ".join(f"({p.x},{p.y})" for p in walk.points)
    print(f"{label}: weight {walk.weight:.6f}")
    print(f"  {pts}")
    print(f"  weakly simple: {check_weak_simplicity(walk)}")


def main():
    walk = make_walk(EMPTY, [Point(*p) for p in FIGURE_EIGHT])
    show("input", walk)

    fixed, report = uncross(EMPTY, walk)
    print(f"uncrossing: {report.s} crossing(s) subdivided, "
          f"{report.discarded} duplicate edge pair(s) discarded")
    show("output", fixed)


if __name__ == "__main__":
    main()
