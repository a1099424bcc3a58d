"""Exact arithmetic in Z/p^k and the p-adic primitives everything else builds on.

Residues are stored as arbitrary-precision naturals in [0, p^k); digit
vectors are computed on demand rather than kept alongside.  All values are
immutable after construction and every operation here is pure, so objects
can be shared freely across threads.

Composite moduli m = p_1^{k_1} ... p_s^{k_s} never get direct ring
arithmetic: they are split into prime-power components (CRT) and each
component is handled in its own Z/p^k.  The last section owns packed words.
"""

import math
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

#: Sentinel returned by ord_p(0, p): the zero of Z_p is divisible by every
#: power of p.
INFINITE = math.inf


class NotAUnit(ValueError):
    """Inversion (or unit-reduction of an exponent) hit a non-unit."""


class BaseNotOneUnit(ValueError):
    """Exponentiation base is not congruent to 1 modulo p (odd modulo 2)."""


def _iroot(n, e):
    """floor(n^(1/e)) for n >= 1, by Newton's method from above, started
    from a float estimate where the root is in float range."""
    log_root = math.log(n) / e
    if log_root < 700:  # below e^700 the estimate is within 1e-13 of the root
        x = int(math.exp(log_root) * (1 + 1e-12)) + 1
    else:
        x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _brief(n):
    """n in decimal or, past 30 digits, its sign, first 12 digits and digit
    count: an error message must not raise past the int-to-str limit."""
    a = abs(n)
    d = int(a.bit_length() * math.log10(2)) + 1  # the digit count or one more
    d -= a < 10 ** (d - 1)
    return str(n) if d <= 30 else f"{'-' * (n < 0)}{a // 10 ** (d - 12)}... ({d} digits)"


# Miller-Rabin with the first 13 primes as bases decides every n below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASES_PRODUCT = math.prod(_PRIME_BASES)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_TRIAL_BOUND = 2**16  # CompositeModulus.from_int divides out the primes below it
_MAX_MODULUS_BITS = 2**20  # p^k past it would take unbounded time and memory to build


def is_prime(n):
    """Deterministic Miller-Rabin test for n < _PRIME_TEST_BOUND; ValueError above."""
    if math.gcd(n, _BASES_PRODUCT) != 1 or n < 2:
        return n in _PRIME_BASES
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"cannot decide whether {_brief(n)} is prime: primes must be"
                         f" below {_PRIME_TEST_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    # n passes base a if a^d = 1 or a^(d * 2^r) = -1 for some r < s; below
    # 1373653 bases 2 and 3 decide (Jaeschke, Math. Comp. 61, 1993)
    for a in _PRIME_BASES if n >= 1_373_653 else (2, 3):
        if pow(a, d, n) != 1 and all(pow(a, d << r, n) != n - 1 for r in range(s)):
            return False
    return True


@dataclass(frozen=True)
class Modulus:
    """A prime-power modulus p^k with the prime and exponent kept explicit."""

    p: int
    k: int
    value: int = field(init=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus base {self.p} is not prime")
        if self.k < 1:
            raise ValueError("modulus exponent must be positive")
        if self.k * self.p.bit_length() > _MAX_MODULUS_BITS:
            raise ValueError(f"modulus {self.p}^{_brief(self.k)} has more than"
                             f" {_MAX_MODULUS_BITS} bits")
        object.__setattr__(self, "value", self.p**self.k)

    def residue(self, x):
        """Wrap an integer as a ResidueInt modulo this modulus."""
        return ResidueInt(x % self.value, self)

    def __str__(self):
        return f"{self.p}^{self.k}"


@dataclass(frozen=True)
class ResidueInt:
    """An element of Z/p^k carrying its modulus, range-checked when built.

    It has no arithmetic: callers compute on .residue and wrap the result.
    """

    residue: int
    modulus: Modulus

    def __post_init__(self):
        if not 0 <= self.residue < self.modulus.value:
            raise ValueError(
                f"residue {_brief(self.residue)} out of range for modulus {self.modulus}"
            )

    def __int__(self):
        return self.residue


@dataclass(frozen=True)
class CompositeModulus:
    """m = p_1^{k_1} ... p_s^{k_s} with pairwise distinct primes, kept factored."""

    factors: tuple
    value: int = field(init=False, compare=False)
    # CRT basis: per factor, the value that is 1 mod it and 0 mod the others
    basis: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        primes = [f.p for f in self.factors]
        if primes != sorted(set(primes)) or not primes:
            raise ValueError("factors must have strictly increasing distinct primes")
        v = math.prod(f.value for f in self.factors)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "basis", tuple(
            v // f.value * pow(v // f.value, -1, f.value) for f in self.factors))

    @classmethod
    def from_int(cls, m):
        """Factor m into prime-power components: trial division by the primes
        below _TRIAL_BOUND, then what is left must be 1 or a prime power q^e
        (q above the bound, so e <= bit_length / 16)."""
        if m < 2:
            raise ValueError("composite modulus must be at least 2")
        factors = []
        n = m
        for p in range(2, min(math.isqrt(m) + 1, _TRIAL_BOUND)):
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            if k:  # p is prime: its prime factors are divided out
                factors.append(Modulus(p, k))
        if n > 1:
            roots = ((_iroot(n, e), e) for e in range(n.bit_length() // 16, 1, -1))
            q, e = next(((q, e) for q, e in roots if q**e == n and is_prime(q)), (n, 1))
            if e == 1 and not is_prime(n):
                raise ValueError(f"cannot factor {_brief(m)}: {_brief(n)} has no prime factor"
                                 f" below {_TRIAL_BOUND} and is not a prime power")
            factors.append(Modulus(q, e))
        return cls(tuple(factors))

    def radical(self):
        """Product of the distinct prime divisors of m."""
        return math.prod(f.p for f in self.factors)

    def decompose(self, x):
        """Residues of x modulo each prime-power component."""
        return [x % f.value for f in self.factors]

    def combine(self, runs):
        """CRT over a block: runs[i] lists residues mod factor i, all runs
        of one length, and the result lists the values mod m that match
        them, position by position.  Each factor is one pass, adding its
        run weighted by its basis value; a last pass reduces mod m."""
        if len(runs) != len(self.factors):
            raise ValueError("one run per factor required")
        (first, b), *rest = zip(runs, self.basis)
        total = [b * r for r in first]
        for run, b in rest:
            total = [t + b * r for t, r in zip(total, run)]
        v = self.value
        return [t % v for t in total]

    def __str__(self):
        return " * ".join(str(f) for f in self.factors)


def ord_p(n, p):
    """Largest e with p^e dividing n; INFINITE for n = 0.

    Accepts negative integers and exact Fractions (ord of a quotient is the
    difference of the ords).
    """
    if isinstance(n, Fraction):
        if n == 0:
            return INFINITE
        return ord_p(n.numerator, p) - ord_p(n.denominator, p)
    if n == 0:
        return INFINITE
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def mod_inverse(u: ResidueInt):
    """Multiplicative inverse of a unit mod p^k."""
    if u.residue % u.modulus.p == 0:
        raise NotAUnit(f"{_brief(u.residue)} is divisible by {u.modulus.p}")
    return ResidueInt(pow(u.residue, -1, u.modulus.value), u.modulus)


def reduce_exponent(e, modulus: Modulus):
    """Reduce an exponent (int, Fraction with unit denominator, or ResidueInt)
    to its representative in [0, p^k)."""
    if isinstance(e, ResidueInt):
        if e.modulus != modulus:
            raise ValueError(f"mixed moduli: {modulus} vs {e.modulus}")
        return e.residue
    if isinstance(e, Fraction):
        if e.denominator == 1:
            return e.numerator % modulus.value
        if e.denominator % modulus.p == 0:
            raise NotAUnit(
                f"exponent denominator {e.denominator} not a unit mod {modulus}"
            )
        return e.numerator * pow(e.denominator, -1, modulus.value) % modulus.value
    return e % modulus.value


def unit_pow(u: ResidueInt, e):
    """u^e mod p^k for a 1-unit base u (any odd u when p = 2).

    The exponent is reduced mod p^k first; this is well defined because
    u^{p^k} = 1 mod p^k for such bases, and it is how negative and
    rational p-adic exponents (inverses, roots) are reached.
    """
    m = u.modulus
    if m.p == 2:
        if u.residue % 2 == 0:
            raise BaseNotOneUnit(f"{_brief(u.residue)} is even, not a unit mod {m}")
    elif u.residue % m.p != 1:
        raise BaseNotOneUnit(f"{_brief(u.residue)} is not a 1-unit mod {m}")
    exp = reduce_exponent(e, m)
    return ResidueInt(pow(u.residue, exp, m.value), m)


# --- packed words: values of a fixed width, little-endian on every host -----
# A byte width that an array typecode has goes through that array, any other
# word by word.  Slot n of an int packed bits wide (8 | bits) starts at bit bits*n.

_TYPECODES = {array(t).itemsize: t for t in "BHILQ"}  # byte width -> unsigned typecode


def _little(words: array) -> array:  # an array holds its items in host byte order
    if sys.byteorder == "big":
        words.byteswap()
    return words


def words_to_bytes(values, width: int) -> bytes:
    """values, ints in [0, 2^(8*width)), as width-byte words; OverflowError outside."""
    code = _TYPECODES.get(width)
    if code is None:
        return b"".join([v.to_bytes(width, "little") for v in values])
    return _little(array(code, values)).tobytes()


def bytes_to_words(data: bytes, width: int):
    """words_to_bytes's exact inverse: an array where a typecode fits, else a list."""
    code = _TYPECODES.get(width)
    if code is None:
        return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    return _little(array(code, data))


def pack_slots(values, bits: int) -> int:
    """values, each in [0, 2^bits), as one int with values[n] in slot n."""
    return int.from_bytes(words_to_bytes(values, bits // 8), "little")


def unpack_slots(x: int, bits: int, count: int):
    """pack_slots's inverse: the count slots of x, 0 <= x < 2^(bits*count)."""
    return bytes_to_words(x.to_bytes(bits // 8 * count, "little"), bits // 8)


def slot_ones(bits: int, count: int) -> int:
    """1 in each of count slots: times it, a value below 2^bits fills them all."""
    return int.from_bytes(b"\1".ljust(bits // 8, b"\0") * count, "little")
