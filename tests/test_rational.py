from __future__ import annotations

import random
from fractions import Fraction

from fastslow.rational import (
    Echelon,
    dot,
    in_span,
    integer_scaled,
    left_nullspace,
    minimal_semiflows,
    nullspace,
    rank,
    rref,
    rref_int_basis,
)
from oracles import _rref, coprime_oracle, null_oracle


class TestRref:
    def test_identity_like(self):
        rows, pivots = rref([[1, 2], [3, 4]])
        assert pivots == [0, 1]
        assert rows == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]

    def test_dependent_rows_collapse(self):
        rows, pivots = rref([[1, 2, 3], [2, 4, 6], [1, 2, 4]])
        assert len(rows) == 2
        assert pivots == [0, 2]

    def test_canonical_for_span(self):
        a = rref([[1, 1, 0], [0, 1, 1]])[0]
        b = rref([[1, 2, 1], [1, 1, 0]])[0]
        assert a == b  # same row space, same reduced form

    def test_rank(self):
        assert rank([[1, 0], [0, 1], [1, 1]]) == 2
        assert rank([[0, 0]]) == 0

    def test_pivots_normalised_to_one(self):
        assert rref([[2, 1]]) == ([(1, Fraction(1, 2))], [0])


class TestAgainstOracle:
    """The integer kernel against the Gauss-Jordan elimination over
    ``Fraction`` in ``oracles._rref``, on seeded random matrices of 1-7
    rows and columns; every fifth has rational entries."""

    @staticmethod
    def matrices():
        for case in range(2000):
            rng = random.Random(f"rational-oracle:{case}")
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            pool = [0, 0, 1, -1] if case % 2 else [0, 0, 0, 1, -1, 2, -3, 5]
            matrix = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
            if case % 5 == 0:
                matrix = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in matrix]
            yield rng, matrix, cols

    def test_kernel_matches_oracle(self):
        for rng, matrix, cols in self.matrices():
            reduced, pivots = _rref(matrix, cols)
            assert rank(matrix) == len(pivots)
            assert rref(matrix) == ([tuple(r) for r in reduced], pivots)
            assert rref_int_basis(matrix) == [coprime_oracle(r) for r in reduced]
            vector = [rng.choice([0, 1, -1, 2]) for _ in range(cols)]
            grows = len(_rref(matrix + [vector], cols)[1]) > len(pivots)
            assert in_span(vector, matrix) is not grows

    def test_null_spaces_span_oracle(self):
        for _, matrix, cols in self.matrices():
            n = len(matrix)
            expected = null_oracle(list(zip(*matrix)), n)
            assert _rref(left_nullspace(matrix), n) == _rref(expected, n)
            assert _rref(nullspace(matrix), cols) == _rref(null_oracle(matrix, cols), cols)

    def test_add_grows_exactly_with_oracle_rank(self):
        for _, matrix, cols in self.matrices():
            basis = Echelon()
            for i, row in enumerate(matrix):
                grows = len(_rref(matrix[: i + 1], cols)[1]) > len(_rref(matrix[:i], cols)[1])
                assert basis.add(integer_scaled(row)) is grows
            assert basis.rank == len(_rref(matrix, cols)[1])


class TestNullspaces:
    def test_nullspace_orthogonality(self):
        matrix = [[1, -1, 0], [0, 1, -1]]
        for v in nullspace(matrix):
            assert all(dot(row, v) == 0 for row in matrix)

    def test_left_nullspace_orthogonality(self):
        matrix = [[-1, 1], [-1, 1], [1, -1]]
        basis = left_nullspace(matrix)
        assert len(basis) == 2
        cols = [[row[j] for row in matrix] for j in range(2)]
        for y in basis:
            assert all(dot(y, col) == 0 for col in cols)

    def test_no_columns_gives_standard_basis(self):
        basis = left_nullspace([[], [], []])
        assert len(basis) == 3
        assert rank(basis) == 3

    def test_in_span(self):
        basis = [[1, 0, 1], [0, 1, 1]]
        assert in_span([1, 1, 2], basis)
        assert not in_span([1, 1, 1], basis)
        assert in_span([0, 0, 0], basis)


class TestIntegerScaling:
    def test_fractions_cleared(self):
        assert integer_scaled([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)

    def test_common_factor_removed(self):
        assert integer_scaled([2, 4, 6]) == (1, 2, 3)

    def test_leading_sign_positive(self):
        assert integer_scaled([-2, 4]) == (1, -2)

    def test_rref_int_basis(self):
        basis = rref_int_basis([[Fraction(1, 2), Fraction(1, 2), 0], [0, 1, 1]])
        assert basis == [(1, 0, -1), (0, 1, 1)]


class TestMinimalSemiflows:
    def test_single_reaction_split(self):
        # A -> B + C over species rows (A, B, C)
        matrix = [[-1], [1], [1]]
        flows = minimal_semiflows(matrix)
        assert flows is not None
        assert set(flows) == {(1, 1, 0), (1, 0, 1)}

    def test_inhibition_flows(self):
        matrix = [
            (-1, 1, 0, 0, 0),
            (-1, 1, 1, -1, 1),
            (0, 0, 1, -1, 0),
            (0, 0, 0, 0, 1),
            (0, 0, -1, 1, 0),
            (1, -1, 0, 0, -1),
        ]
        flows = minimal_semiflows([list(r) for r in matrix])
        assert flows is not None
        assert set(flows) == {
            (0, 0, 1, 0, 1, 0),  # I + EI
            (0, 1, 0, 0, 1, 1),  # E + EI + SE
            (1, 0, 0, 1, 0, 1),  # S + P + SE
        }

    def test_no_flows_for_pure_sink(self):
        assert minimal_semiflows([[-1]]) == []

    def test_flows_annihilate_matrix(self):
        matrix = [[-1, 0], [1, -2], [0, 1], [0, 1]]
        flows = minimal_semiflows(matrix)
        assert flows is not None and flows
        cols = [[row[j] for row in matrix] for j in range(2)]
        for f in flows:
            assert all(x >= 0 for x in f)
            assert all(dot(f, col) == 0 for col in cols)
