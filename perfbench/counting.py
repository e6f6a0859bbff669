"""Counting pass: exact operation counts taken by hooks installed from
outside the library.

The wrappers slow every predicate, so counts come from a pass of their own,
separate from the timed and the traced runs.  A hook whose target is
missing (moved or renamed by a later change) reports its counters as
absent (None) instead of failing the run.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Dict, Optional


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class CountingHooks:
    """Counts `orient` calls (and those with a Fraction coordinate) and
    distinct `FreeSpaceGraph.triangle_content` keys per instance.

    `orient` is rebound in `<package>.geometry` and in every module of the
    package that imported it by name.  Use as a context manager; call
    `end_instance()` after each instance."""

    def __init__(self, package: str = "enclosure"):
        self.package = package
        self.orient_calls = 0
        self.orient_rational = 0
        self.triangle_queries = 0
        self._keys = set()
        self._restore = []
        self._have_orient = False
        self._have_triangle = False

    def __enter__(self):
        geometry = sys.modules.get(self.package + ".geometry")
        orient = getattr(geometry, "orient", None)
        if orient is not None:
            self._have_orient = True

            def counted_orient(p, q, r):
                self.orient_calls += 1
                if any(isinstance(c, Fraction) for pt in (p, q, r) for c in pt):
                    self.orient_rational += 1
                return orient(p, q, r)

            for mod in _package_modules(self.package):
                if mod.__dict__.get("orient") is orient:
                    self._rebind(mod, "orient", orient, counted_orient)

        freespace = sys.modules.get(self.package + ".freespace")
        graph = getattr(freespace, "FreeSpaceGraph", None)
        content = getattr(graph, "__dict__", {}).get("triangle_content")
        if content is not None:
            self._have_triangle = True
            keys = self._keys

            def counted_content(fsg, p, r, q):
                keys.add((p, r, q))
                return content(fsg, p, r, q)

            self._rebind(graph, "triangle_content", content, counted_content)
        return self

    def _rebind(self, owner, name, original, replacement):
        setattr(owner, name, replacement)
        self._restore.append((owner, name, original))

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    def end_instance(self) -> None:
        """Each instance builds its own graph, so keys are distinct per
        instance."""
        self.triangle_queries += len(self._keys)
        self._keys.clear()

    def counters(self) -> Dict[str, Optional[float]]:
        share = None
        if self._have_orient:
            share = self.orient_rational / self.orient_calls if self.orient_calls else 0.0
        return {
            "geometry.orient_calls": self.orient_calls if self._have_orient else None,
            "geometry.orient_rational_share": share,
            "freespace.triangle_queries":
                self.triangle_queries if self._have_triangle else None,
        }
