"""Exact rational scalars, vectors and dense matrices.

Everything in this module computes over arbitrary-precision rationals
(stdlib ``fractions.Fraction``); there is no tolerance anywhere.  Row
reduction is done internally on integer-scaled rows (per-row gcd pulls keep
the entries small) and converted back to rationals at the end, which is much
faster than pivoting on Fraction objects directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class ZeroDiagonalError(ValueError):
    """A triangular solve hit a zero diagonal entry."""


def rat(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact rational.

    Floats are rejected: the exact layer never guesses what a float meant.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class NonFiniteError(ValueError):
    """A float that is NaN or infinite has no exact value."""


def rat_from(value) -> Fraction:
    """rat, with a float read as the exact rational it is (its binary
    value, 0.1 as 3602879701896397/36028797018963968); NaN and infinities
    raise NonFiniteError."""
    if isinstance(value, float):
        try:
            return Fraction(value)
        except (ValueError, OverflowError):
            raise NonFiniteError(f"non-finite value {value!r}") from None
    return rat(value)


def int_ratios(values) -> tuple:
    """``(numerators, den)``: each value, read as rat_from reads it (a
    float at its exact binary value, NonFiniteError for a NaN or an
    infinity), is ``numerator / den`` for the least common denominator
    ``den``.  An int, a Fraction or a float is read through its
    ``as_integer_ratio()``, so none of them builds a Fraction."""
    if not isinstance(values, (tuple, list)):
        values = list(values)
    try:
        pairs = [v.as_integer_ratio() for v in values]
    except (ValueError, OverflowError, AttributeError):
        # a NaN or an infinity, or a value with no such method ('p/q')
        pairs = [rat_from(v).as_integer_ratio() for v in values]
    if not pairs:
        return [], 1
    nums, dens = zip(*pairs)
    den = lcm(*set(dens))
    if den == 1:
        return list(nums), 1
    return [n * (den // d) for n, d in pairs], den


# ---------------------------------------------------------------------------
# vectors (plain tuples of Fractions)

def vadd(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vscale(k, u) -> tuple:
    k = rat(k)
    return tuple(k * a for a in u)


def vdot(u, v) -> Fraction:
    """sum(a * b) over paired entries of two exact vectors.

    The products are summed as integer numerators over the lcm of their
    denominators, and one Fraction is built for the result, not two (a
    product and a partial sum) per term.
    """
    num, den = 0, 1
    for a, b in zip(u, v, strict=True):
        p = a.numerator * b.numerator
        if p:
            q = a.denominator * b.denominator
            if q == den:
                num += p
            else:
                d = lcm(den, q)
                num = num * (d // den) + p * (d // q)
                den = d
    return Fraction(num, den)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense row-major matrix of Fractions, immutable after construction.

    Its hash is worked out once, on first use, and kept: a matrix shared
    by many instances (an instance's Q) is hashed once however often the
    instances are looked up."""

    rows: int
    cols: int
    entries: tuple

    @cached_property
    def _hash(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def from_rows(rows) -> "RationalMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(rat(v) for v in r)
        return RationalMatrix(nrows, ncols, tuple(flat))

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix(rows, cols, (ZERO,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        flat = [ZERO] * (n * n)
        for i in range(n):
            flat[i * n + i] = ONE
        return RationalMatrix(n, n, tuple(flat))

    @staticmethod
    def diagonal(values) -> "RationalMatrix":
        values = [rat(v) for v in values]
        n = len(values)
        flat = [ZERO] * (n * n)
        for i, v in enumerate(values):
            flat[i * n + i] = v
        return RationalMatrix(n, n, tuple(flat))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self.entries[j::self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        flat = []
        for j in range(self.cols):
            flat.extend(self.entries[j::self.cols])
        return RationalMatrix(self.cols, self.rows, tuple(flat))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            self.rows, self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            self.rows, self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols,
                              tuple(-a for a in self.entries))

    def scale(self, k) -> "RationalMatrix":
        k = rat(k)
        return RationalMatrix(self.rows, self.cols,
                              tuple(k * a for a in self.entries))

    def matvec(self, v) -> tuple:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(vdot(self.row(i), v) for i in range(self.rows))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = other.transpose()
        flat = []
        for i in range(self.rows):
            ri = self.row(i)
            flat.extend(vdot(ri, bt.row(j)) for j in range(other.cols))
        return RationalMatrix(self.rows, other.cols, tuple(flat))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.row(i) == self.column(i) for i in range(self.rows))

    def _same_shape(self, other: "RationalMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


# ---------------------------------------------------------------------------
# row reduction

def common_denominator(values):
    """``(numerators, den)`` for ints and Fractions: each value is
    ``numerator / den`` for the least common denominator ``den``.  A
    value that is the shared ``ZERO`` is taken as 0 unread, so a sparse
    row or matrix pays for its nonzero entries only."""
    values = list(values)
    den = lcm(*{v.denominator for v in values if v is not ZERO})
    if den == 1:
        return [0 if v is ZERO else v.numerator for v in values], 1
    return [0 if v is ZERO else v.numerator * (den // v.denominator)
            for v in values], den


def _scaled_int_rows(mat: RationalMatrix) -> list:
    """Each row scaled by the lcm of its denominators; preserves row space."""
    return [common_denominator(mat.row(i))[0] for i in range(mat.rows)]


def _gcd_normalize(row: list) -> None:
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for j, v in enumerate(row):
            row[j] = v // g


def int_echelon(rows) -> dict:
    """Forward elimination of integer rows, one row at a time.

    Returns ``{pivot column: row}``.  Each kept row is zero before its pivot
    column, its entries have no common factor, and no two kept rows share a
    pivot column, so the kept rows are independent and span the input rows;
    their number is the rank.
    """
    echelon = {}
    for row in rows:
        lead, rest = int_reduce(echelon, row)
        if lead >= 0:
            echelon[lead] = rest
    return echelon


def int_reduce(echelon: dict, row):
    """Reduce an integer row against ``int_echelon``'s result.

    Returns ``(lead, rest)``: ``rest`` is the row minus a combination of the
    echelon rows, scaled by a nonzero integer, and ``lead`` its first
    nonzero column, or -1 when the row lies in the echelon rows' span.
    """
    row = list(row)
    n = len(row)
    lead = next((j for j in range(n) if row[j]), -1)
    while lead >= 0:
        prow = echelon.get(lead)
        if prow is None:
            break
        p, q = prow[lead], row[lead]
        g = gcd(p, q)
        p //= g
        q //= g
        row = [a * p - b * q for a, b in zip(row, prow)]
        _gcd_normalize(row)
        lead = next((j for j in range(lead + 1, n) if row[j]), -1)
    return lead, row


def rref(mat: RationalMatrix):
    """Reduced row echelon form.

    Returns ``(reduced, pivot_columns)``; the rank is ``len(pivot_columns)``.
    The forward elimination of int_echelon, then each pivot column cleared
    above its row, last pivot first.
    """
    echelon = int_echelon(_scaled_int_rows(mat))
    pivots = sorted(echelon)
    work = [echelon[c] for c in pivots]
    for k in range(len(work) - 1, 0, -1):
        prow = work[k]
        p = prow[pivots[k]]
        for i in range(k):
            q = work[i][pivots[k]]
            if q:
                work[i] = [a * p - b * q for a, b in zip(work[i], prow)]
                _gcd_normalize(work[i])
    flat = []
    for row, c in zip(work, pivots):
        p = Fraction(row[c])
        flat.extend(Fraction(v) / p for v in row)
    flat.extend([ZERO] * ((mat.rows - len(pivots)) * mat.cols))
    return RationalMatrix(mat.rows, mat.cols, tuple(flat)), tuple(pivots)


def matrix_rank(mat: RationalMatrix) -> int:
    return len(int_echelon(_scaled_int_rows(mat)))


def null_space_basis(mat: RationalMatrix) -> list:
    """Basis of the right null space, one vector per free column of rref.

    The basis is canonical for the rref: vector ``k`` has a 1 in the
    ``k``-th free column and zeros in the other free columns.
    """
    reduced, pivots = rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(mat.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * mat.cols
        v[f] = ONE
        for k, p in enumerate(pivots):
            v[p] = -reduced.at(k, f)
        basis.append(tuple(v))
    return basis


def solve_lower_triangular(mat: RationalMatrix, rhs) -> tuple:
    """Forward substitution for square lower-triangular systems."""
    n = mat.rows
    if mat.cols != n:
        raise ValueError("not square")
    if len(rhs) != n:
        raise ValueError("dimension mismatch")
    rhs = [rat(v) for v in rhs]
    x = [ZERO] * n
    for i in range(n):
        d = mat.at(i, i)
        if d == 0:
            raise ZeroDiagonalError(f"zero diagonal at position {i}")
        acc = rhs[i]
        row = mat.row(i)
        for j in range(i):
            if row[j]:
                acc -= row[j] * x[j]
        x[i] = acc / d
    return tuple(x)
