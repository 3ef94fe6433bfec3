"""Clutters (Sperner hypergraphs) on vertices y1..yn and their incidence data.

A clutter is given by n and a list of edges, each a set of 1-based vertex
indices; no edge may contain another.  Edge input order is preserved: it
fixes the variable order t1..ts everywhere downstream.  The incidence and
difference matrices are numpy arrays, and numpy is imported where they are
built: reading a clutter loads none of it.
"""

from __future__ import annotations

import json
import operator
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class ClutterError(ValueError):
    pass


@dataclass(frozen=True)
class Clutter:
    n: int
    edges: tuple[tuple[int, ...], ...]  # each sorted, 1-based

    @property
    def s(self) -> int:
        return len(self.edges)

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """Characteristic vectors v1..vs in {0,1}^n, edge order preserved."""
        out = []
        for e in self.edges:
            v = [0] * self.n
            for i in e:
                v[i - 1] = 1
            out.append(tuple(v))
        return tuple(out)

    def __str__(self):
        return f"Clutter(n={self.n}, edges={[list(e) for e in self.edges]})"


@dataclass(frozen=True)
class IncidenceMatrix:
    """n x s matrix whose columns are the characteristic vectors."""

    A: np.ndarray

    def __post_init__(self):
        import numpy as np

        A = self.A
        if A.ndim != 2 or not np.isin(A, (0, 1)).all():
            raise ClutterError("incidence entries must be 0/1")
        # a set of column tuples: np.unique(axis=) imports numpy.ma
        if len({tuple(col) for col in A.T.tolist()}) != A.shape[1]:
            raise ClutterError("incidence columns must be distinct")


def _integer(x) -> int:
    """x as an int when it is an integer (numpy integers included): a
    float, a string or a bool raises TypeError instead of being cast."""
    if isinstance(x, bool):
        raise TypeError("a bool is not a vertex count or index")
    return operator.index(x)


def parse_clutter(doc) -> Clutter:
    """Build a validated Clutter from a dict {"n":..,"edges":[[..],..]} or
    from the text shorthand (one edge per line, whitespace-separated indices).
    In the dict, n and every vertex must be integers and edges a list of
    lists: nothing is truncated or converted."""
    if isinstance(doc, str):
        edges = []
        for line in doc.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                edges.append([int(tok) for tok in line.split()])
            except ValueError:
                raise ClutterError(f"bad edge line: {line!r}")
        if not edges:
            raise ClutterError("no edges in clutter text")
        n = max((max(e) for e in edges if e), default=0)
        doc = {"n": n, "edges": edges}
    if not isinstance(doc, dict):
        raise ClutterError("clutter document must be a dict or text")
    try:
        n = _integer(doc["n"])
        raw_edges = doc["edges"]
        if not isinstance(raw_edges, list):
            raise TypeError
    except (KeyError, TypeError):
        raise ClutterError('clutter document needs integer "n" and list "edges"')
    if n < 1:
        raise ClutterError(f"n = {n} must be >= 1")
    if len(raw_edges) < 2:
        raise ClutterError("need at least two edges (s >= 2)")

    edges: list[tuple[int, ...]] = []
    for e in raw_edges:
        try:
            if not isinstance(e, list):
                raise TypeError
            raw = [_integer(i) for i in e]
        except TypeError:
            raise ClutterError(f"bad edge: {e!r}")
        verts = sorted(set(raw))
        if len(verts) != len(raw):
            raise ClutterError(f"edge {e!r} repeats a vertex")
        if not verts:
            raise ClutterError("empty edge")
        if verts[0] < 1 or verts[-1] > n:
            raise ClutterError(f"edge {e!r} has out-of-range vertex (n = {n})")
        edges.append(tuple(verts))

    # an edge is at fault when it repeats another or lies in a larger one;
    # the error names the first pair (i, j) at fault in row-major order
    sets = [set(e) for e in edges]
    counts = Counter(edges)
    larger = {k: [f for f in sets if len(f) > k] for k in {len(e) for e in edges}}
    for i, e in enumerate(sets):
        if counts[edges[i]] > 1 or any(e < f for f in larger[len(e)]):
            for j, f in enumerate(sets):
                if j != i and e == f:
                    raise ClutterError(f"duplicate edge {edges[i]}")
                if j != i and e < f:
                    raise ClutterError(
                        f"edge {edges[i]} is contained in {edges[j]} (not a clutter)"
                    )

    covered = set().union(*sets)
    isolated = sorted(set(range(1, n + 1)) - covered)
    if isolated:
        warnings.warn(f"isolated vertices (in no edge): {isolated}", stacklevel=2)

    return Clutter(n=n, edges=tuple(edges))


def load_clutter(path: str) -> Clutter:
    """Load a clutter from a JSON file or from the text shorthand."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ClutterError(f"bad JSON in {path}: {exc}")
        return parse_clutter(doc)
    return parse_clutter(text)


def incidence(C: Clutter) -> IncidenceMatrix:
    """The n x s incidence matrix; column j is the vector of edge j."""
    import numpy as np

    A = np.array(C.vectors, dtype=np.int64).T
    return IncidenceMatrix(A)


def difference_matrix(C: Clutter) -> np.ndarray:
    """The s x n matrix B = V - V[0] of differences v_i - v_1; row 0 is zero.

    Its columns generate X in exponent space.  Its Smith invariant factors,
    which give |X| and the complete-intersection test, are
    `intlattice.difference_factors`."""
    import numpy as np

    V = np.array(C.vectors, dtype=np.int64)
    return V - V[0]


def uniformity(C: Clutter):
    """(True, d) if every edge has the same size d, else (False, None)."""
    sizes = {len(e) for e in C.edges}
    if len(sizes) == 1:
        return True, sizes.pop()
    return False, None
