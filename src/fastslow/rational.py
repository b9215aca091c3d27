"""Exact linear algebra over the rationals.

Invariant computations must produce exact integer vectors, so everything
here works with ``fractions.Fraction`` and scales results to coprime
integers.  Matrices are plain lists of row tuples; sizes are tiny (species
by reactions), so clarity wins over cleverness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Vector = tuple[Fraction, ...]


def _rows(vectors: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in v] for v in vectors]


def rref(vectors: Sequence[Sequence[int | Fraction]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form of the span of ``vectors``.

    Returns the non-zero rows (pivots normalised to 1, pivot columns
    cleared elsewhere) and the list of pivot column indices.  The result
    is the unique canonical basis of the row space.
    """
    m = _rows(vectors)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        factor = m[row][col]
        m[row] = [x / factor for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return [tuple(r) for r in m[:row]], pivots


def rank(vectors: Sequence[Sequence[int | Fraction]]) -> int:
    return len(rref(vectors)[0])


def in_span(vector: Sequence[int | Fraction], basis: Sequence[Sequence[int | Fraction]]) -> bool:
    if not any(vector):
        return True
    return rank(list(basis) + [list(vector)]) == rank(basis)


def nullspace(matrix: Sequence[Sequence[int | Fraction]]) -> list[Vector]:
    """Basis of {x | A x = 0} from the free columns of the RREF of A."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    if ncols == 0:
        return []
    reduced, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in zip(reduced, pivots):
            v[p] = -r[f]
        basis.append(tuple(v))
    return basis


def left_nullspace(matrix: Sequence[Sequence[int | Fraction]]) -> list[Vector]:
    """Basis of {y | y^T A = 0}.

    A matrix with no columns annihilates nothing, so the result is the
    full standard basis.
    """
    nrows = len(matrix)
    if nrows == 0:
        return []
    ncols = len(matrix[0])
    if ncols == 0:
        return [
            tuple(Fraction(1) if j == i else Fraction(0) for j in range(nrows))
            for i in range(nrows)
        ]
    transpose = [[matrix[r][c] for r in range(nrows)] for c in range(ncols)]
    return nullspace(transpose)


def integer_scaled(vector: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, leading entry positive."""
    fracs = [Fraction(x) for x in vector]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-v for v in ints]
            break
    return tuple(ints)


def rref_int_basis(vectors: Sequence[Sequence[int | Fraction]]) -> list[tuple[int, ...]]:
    """Canonical integer basis of a span: RREF rows scaled to coprime integers."""
    reduced, _ = rref(vectors)
    return [integer_scaled(r) for r in reduced]


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
