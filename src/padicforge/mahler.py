"""Interpolation series in the binomial basis and the coefficient criteria.

A function f on Z_p has a unique expansion f(x) = sum_i a_i * C(x, i).
Coefficients are kept as exact rationals, never p-adic truncations, so
integer-valuedness and the denominator order rho are decidable without any
precision analysis; reduction mod p^k happens only at evaluation time.
Polynomials and series are evaluated by `expr.compile_map`, in the same
generated code as expressions: since C(x, i) = (x)_i / i!, a series
compiles as its falling-factorial polynomial sum (a_i / i!) (x)_i.

Series here are truncated: polynomials and desk-scale functions only.  The
criteria operations refuse degrees above DEGREE_CAP (exact lifts get
expensive as ord_p(i!) grows); past that the brute-force checkers in
`certify` are the tool.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import Modulus, ord_p

DEGREE_CAP = 64


class WrongPrime(ValueError):
    """A p=2-only (or odd-p-only) criterion was asked about the wrong prime."""


class NotIntegerValued(ValueError):
    """The series takes non-integral values on Z_p (some a_i is not p-integral)."""


class DegreeCapExceeded(ValueError):
    """Series degree above the cap accepted by the criteria operations."""


def floor_log(n, p):
    """Largest e with p^e <= n, for n >= 1."""
    e = 0
    q = p
    while q <= n:
        e += 1
        q *= p
    return e


@lru_cache(maxsize=None)
def _stirling_row(n, basis):
    """Row n of the Stirling numbers into basis: S2(n, k) with
    x^n = sum_k S2(n,k) * (x)_k into "falling", signed s1(n, k) with
    (x)_n = sum_k s1(n,k) * x^k into "monomial"."""
    if n == 0:
        return (1,)
    prev = _stirling_row(n - 1, basis)
    row = [0] * (n + 1)
    for k, c in enumerate(prev):
        row[k] += (k if basis == "falling" else 1 - n) * c
        row[k + 1] += c
    return tuple(row)


def _trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class RationalPoly:
    """A polynomial with exact rational coefficients in a declared basis.

    basis "monomial" lists coefficients of 1, x, x^2, ...; basis "falling"
    lists coefficients of (x)_0, (x)_1, (x)_2, ...  Conversion between the
    two is exact (integer Stirling numbers), so the common denominator of
    the coefficients is the same in either basis.
    """

    coeffs: tuple
    basis: str = "monomial"

    def __post_init__(self):
        if self.basis not in ("monomial", "falling"):
            raise ValueError(f"unknown basis {self.basis!r}")
        object.__setattr__(
            self, "coeffs", _trim(Fraction(c) for c in self.coeffs) or (Fraction(0),)
        )

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def to_monomial(self):
        return self._rebased("monomial")

    def to_falling(self):
        return self._rebased("falling")

    def _rebased(self, basis):
        """self in basis, one Stirling row of it for each of self's coefficients."""
        if self.basis == basis:
            return self
        out = [Fraction(0)] * (self.degree + 1)
        for n, c in enumerate(self.coeffs):
            if c:
                for k, s in enumerate(_stirling_row(n, basis)):
                    out[k] += c * s
        return RationalPoly(out, basis)

    def __hash__(self):  # cached: hashing a long tuple of Fractions is slow, and
        h = self.__dict__.get("_hash")  # compile_map's cache hashes every polynomial it gets
        if h is None:  # of coeffs only; equality still tells the two bases apart
            h = hash(self.coeffs)
            object.__setattr__(self, "_hash", h)
        return h

    def eval_mod(self, x, modulus: Modulus):
        """f(x) mod p^k at the integer representative x; see expr.compile_map."""
        from .expr import compile_map  # expr imports this module

        return compile_map(self, modulus)(x)

    def scale(self, q):
        return RationalPoly([Fraction(q) * c for c in self.coeffs], self.basis)

    def __add__(self, other):
        a, b = self.to_monomial().coeffs, other.to_monomial().coeffs
        n = max(len(a), len(b))
        out = [Fraction(0)] * n
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out, "monomial")

    def __mul__(self, other):
        a, b = self.to_monomial().coeffs, other.to_monomial().coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return RationalPoly(out, "monomial")

    def compose(self, inner):
        """self(inner(x)), by Horner over polynomial arithmetic."""
        acc = RationalPoly([0])
        for c in reversed(self.to_monomial().coeffs):
            acc = acc * inner + RationalPoly([c])
        return acc


@dataclass(frozen=True)
class MahlerSeries:
    """Truncated interpolation-series coefficients a_0 ... a_d of a function."""

    coeffs: tuple
    p: int

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs) or (Fraction(0),)
        )

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __hash__(self):  # cached, as RationalPoly's: certify keys a record on it
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.coeffs, self.p))
            object.__setattr__(self, "_hash", h)
        return h

    def _require_integer_valued(self):
        for i, c in enumerate(self.coeffs):
            if c.denominator % self.p == 0:
                raise NotIntegerValued(
                    f"coefficient a_{i} = {c} is not a {self.p}-adic integer"
                )

    def _require_criteria_ready(self):
        require_degree_cap(self.degree)
        self._require_integer_valued()


def require_degree_cap(degree):
    """Raise DegreeCapExceeded for a degree above DEGREE_CAP."""
    if degree > DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {degree} above criteria cap {DEGREE_CAP}")


def coeffs_from_values(values, p):
    """Interpolation coefficients from the values f(0), ..., f(d).

    a_i is the i-th forward difference at 0, computed exactly on the
    rational difference table.
    """
    row = [Fraction(v) for v in values]
    coeffs = []
    while row:
        coeffs.append(row[0])
        row = [row[j + 1] - row[j] for j in range(len(row) - 1)]
    return MahlerSeries(tuple(coeffs), p)


def series_from_poly(poly: RationalPoly, p):
    """Interpolation coefficients of a polynomial: a_i = i! * (falling coefficient)."""
    falling = poly.to_falling()
    return MahlerSeries(
        tuple(c * math.factorial(i) for i, c in enumerate(falling.coeffs)), p
    )


def _poly_from_series(series: MahlerSeries):
    """The falling-factorial polynomial of a series, since C(x, i) = (x)_i / i!;
    the inverse of series_from_poly."""
    return RationalPoly([c / math.factorial(i) for i, c in enumerate(series.coeffs)], "falling")


def is_compatible(series: MahlerSeries):
    """Coefficient test for the 1-Lipschitz property.

    True iff ord_p(a_i) >= floor(log_p i) for every i >= 1 (vacuous below
    i = p).  Exact: this is equivalent to f preserving every congruence
    mod p^k.
    """
    series._require_criteria_ready()
    p = series.p
    for i, c in enumerate(series.coeffs):
        if i >= p and ord_p(c, p) < floor_log(i, p):
            return False
    return True


def is_measure_preserving_2adic(series: MahlerSeries):
    """Coefficient test for bijectivity mod 2^k at every k.

    True iff a_1 is odd and ord_2(a_i) >= floor(log2 i) + 1 for i >= 2.
    Exact (necessary and sufficient) at p = 2.
    """
    if series.p != 2:
        raise WrongPrime("measure-preservation coefficient test is 2-adic only")
    series._require_criteria_ready()
    a = series.coeffs
    if len(a) < 2 or ord_p(a[1], 2) != 0:
        return False
    return all(ord_p(a[i], 2) >= floor_log(i, 2) + 1 for i in range(2, len(a)))


def is_ergodic_2adic(series: MahlerSeries):
    """Coefficient test for single-cycle behavior mod 2^k at every k.

    True iff a_0 is odd, a_1 = 1 mod 4, and
    ord_2(a_i) >= floor(log2(i+1)) + 1 for i >= 2.  Exact at p = 2.
    """
    if series.p != 2:
        raise WrongPrime("ergodicity coefficient test is 2-adic only")
    return _ergodic_coefficients(series, 2)


def is_ergodic_sufficient_oddp(series: MahlerSeries):
    """Sufficient (not necessary) single-cycle test for odd p.

    Requires a_0 a unit, a_1 = 1 mod p, and
    ord_p(a_i) >= floor(log_p(i+1)) + 1 for i >= 2.  A False here must
    never be advertised as "not ergodic": no coefficient converse exists
    for odd p.
    """
    if series.p == 2:
        raise WrongPrime("the odd-p sufficient test does not apply at p = 2")
    return _ergodic_coefficients(series, 1)


def _ergodic_coefficients(series: MahlerSeries, a1_order):
    """Both ergodicity tests, with a_1 = 1 mod p^a1_order; see is_ergodic_2adic."""
    series._require_criteria_ready()
    p, a = series.p, series.coeffs
    if ord_p(a[0], p) != 0 or len(a) < 2 or ord_p(a[1] - 1, p) < a1_order:
        return False
    return all(ord_p(a[i], p) >= floor_log(i + 1, p) + 1 for i in range(2, len(a)))


def rho_lambda(poly: RationalPoly, p):
    """The denominator order rho and the lift exponent lambda of a polynomial.

    rho = ord_p of the least common denominator of the coefficients
    (either basis gives the same answer); lambda = least k >= 1 with
    2(p^k - 1)/(p - 1) - k > rho.
    """
    rho = 0
    for c in poly.coeffs:
        o = ord_p(c.denominator, p)
        if o > rho:
            rho = o
    lam = 1
    while 2 * (p**lam - 1) // (p - 1) - lam <= rho:
        lam += 1
    return rho, lam
