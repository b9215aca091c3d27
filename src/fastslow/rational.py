"""Exact integer linear algebra.

Invariant computations must produce exact integer vectors, so every span
here is held by one ``Echelon``: integer rows reduced by fraction-free
updates (after Bareiss, 1968) and divided by their gcd.  Rational inputs
are cleared to integers on entry, and only ``rref`` makes ``Fraction``s.
Matrices are plain lists of row tuples; sizes are tiny (species by
reactions), so clarity wins over cleverness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

IntVector = tuple[int, ...]
Vector = tuple[Fraction, ...]


class Echelon:
    """An integer echelon basis of a growing span.

    Each row is a tuple of coprime integers whose pivot, its first
    non-zero entry, is positive, and each row is zero at the pivots of
    the rows added before it.  So one pass over the rows in order
    reduces a vector to zero exactly when it lies in the span.
    """

    def __init__(self, vectors: Iterable[Sequence[int]] = ()):
        self.rows: list[IntVector] = []
        self.pivots: list[int] = []
        for vector in vectors:
            self.add(vector)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vector: Sequence[int]) -> bool:
        """Reduce ``vector`` against the rows and keep the remainder when
        it is non-zero: whether the span grew."""
        v = list(vector)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                g = gcd(v[p], row[p])
                a, b = row[p] // g, v[p] // g
                v = [a * x - b * y for x, y in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        self.rows.append(_primitive(v, v[pivot]))
        self.pivots.append(pivot)
        return True

    def reduced(self) -> tuple[list[IntVector], list[int]]:
        """The reduced row echelon form of the span, its rows scaled to
        coprime integers, and its ascending pivot columns.

        Adding the rows again, last pivot first, clears each pivot column
        from the rows before it; a row is zero before its own pivot, so
        that leaves the pivots in place.
        """
        order = sorted(range(self.rank), key=self.pivots.__getitem__, reverse=True)
        span = Echelon(self.rows[i] for i in order)
        return span.rows[::-1], span.pivots[::-1]


def _primitive(v: list[int], lead: int) -> IntVector:
    """``v`` divided by the gcd of its entries, with the sign of ``lead``."""
    g = -gcd(*v) if lead < 0 else gcd(*v)
    return tuple(v) if g in (0, 1) else tuple(x // g for x in v)


def _basis(vectors: Iterable[Sequence[int | Fraction]]) -> Echelon:
    return Echelon(map(integer_scaled, vectors))


def rref(vectors: Sequence[Sequence[int | Fraction]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form of the span of ``vectors``.

    Returns the non-zero rows (pivots normalised to 1, pivot columns
    cleared elsewhere) and the list of pivot column indices.  The result
    is the unique canonical basis of the row space.
    """
    rows, pivots = _basis(vectors).reduced()
    return [tuple(Fraction(x, r[p]) for x in r) for r, p in zip(rows, pivots)], pivots


def rank(vectors: Sequence[Sequence[int | Fraction]]) -> int:
    return _basis(vectors).rank


def in_span(vector: Sequence[int | Fraction], basis: Sequence[Sequence[int | Fraction]]) -> bool:
    return not _basis(basis).add(integer_scaled(vector))


def nullspace(matrix: Sequence[Sequence[int | Fraction]]) -> list[IntVector]:
    """Integer basis of {x | A x = 0}."""
    return left_nullspace(list(zip(*matrix)))


def left_nullspace(matrix: Sequence[Sequence[int | Fraction]]) -> list[IntVector]:
    """Integer basis of {y | y^T A = 0}.

    The rows of the echelon basis of [A | I] that are zero on A, cut to
    their I part: that part records the combination of rows of A that
    the row is.  A matrix with no columns annihilates nothing, so the
    result is the full standard basis.
    """
    n = len(matrix)
    width = len(matrix[0]) if n else 0
    span = _basis((*row, *(int(i == j) for j in range(n))) for i, row in enumerate(matrix))
    return [r[width:] for r, p in zip(span.rows, span.pivots) if p >= width]


def integer_scaled(vector: Sequence[int | Fraction]) -> IntVector:
    """Scale a rational vector to coprime integers, leading entry positive."""
    denom = lcm(*(x.denominator for x in vector))
    ints = [x.numerator * (denom // x.denominator) for x in vector]
    return _primitive(ints, next((x for x in ints if x), 0))


def rref_int_basis(vectors: Sequence[Sequence[int | Fraction]]) -> list[IntVector]:
    """Canonical integer basis of a span: RREF rows scaled to coprime integers."""
    return _basis(vectors).reduced()[0]


def dot(a: Sequence[int | Fraction], b: Sequence[int | Fraction]):
    return sum(x * y for x, y in zip(a, b))


SEMIFLOW_MAX_ROWS = 4000


def minimal_semiflows(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]] | None:
    """All minimal-support non-negative integer vectors y with y^T A = 0.

    Classic invariant enumeration: carry an identity alongside A and
    cancel one column at a time by combining rows of opposite sign,
    pruning rows whose support strictly contains another's.  Returns
    ``None`` if the intermediate table exceeds ``SEMIFLOW_MAX_ROWS``
    (the caller falls back to a signed basis).
    """
    nrows = len(matrix)
    if nrows == 0:
        return []
    ncols = len(matrix[0])
    table: list[tuple[list[int], list[int]]] = [
        (list(matrix[i]), [1 if j == i else 0 for j in range(nrows)])
        for i in range(nrows)
    ]

    def normalised(res: list[int], inv: list[int]) -> tuple[list[int], list[int]]:
        g = 0
        for x in res:
            g = gcd(g, abs(x))
        for x in inv:
            g = gcd(g, abs(x))
        if g > 1:
            res = [x // g for x in res]
            inv = [x // g for x in inv]
        return res, inv

    for col in range(ncols):
        keep = [(r, y) for r, y in table if r[col] == 0]
        plus = [(r, y) for r, y in table if r[col] > 0]
        minus = [(r, y) for r, y in table if r[col] < 0]
        if len(keep) + len(plus) * len(minus) > SEMIFLOW_MAX_ROWS:
            return None
        for rp, yp in plus:
            for rm, ym in minus:
                a, b = -rm[col], rp[col]
                res = [a * u + b * v for u, v in zip(rp, rm)]
                inv = [a * u + b * v for u, v in zip(yp, ym)]
                keep.append(normalised(res, inv))
        pruned: list[tuple[list[int], list[int]]] = []
        supports: list[frozenset[int]] = []
        order = sorted(keep, key=lambda t: sum(1 for x in t[1] if x))
        for r, y in order:
            sup = frozenset(i for i, x in enumerate(y) if x)
            if any(s <= sup for s in supports):
                continue
            supports.append(sup)
            pruned.append((r, y))
        table = pruned
    flows = sorted(set(tuple(y) for _, y in table))
    return [f for f in flows if any(f)]
