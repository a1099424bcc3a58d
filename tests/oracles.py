"""Brute-force reference implementations shared by the test modules.

Everything here recomputes from first principles (exact rational
arithmetic, exhaustive walks, a full-pivot elimination solver, and
per-index or per-order scans in place of the full-period passes of the
sequence diagnostics) and deliberately avoids the library code under test.  The one exception is
eval_tree, the node-by-node expression interpreter the library used
before it compiled expressions; it calls core's mod_inverse and
unit_pow, whose checks and messages the compiled path must reproduce,
and evaluates POLY leaves with poly_eval_mod, not with the library's
compiled polynomials.
"""

import math
import random
from fractions import Fraction

from padicforge.core import ResidueInt, mod_inverse, unit_pow
from padicforge.expr import BitwiseOddPrime
from padicforge.mahler import NotIntegerValued

_BITWISE = frozenset(("XOR", "AND", "OR", "NEG"))


def mahler_value(coeffs, x):
    """Exact value of sum_i a_i * C(x, i) at an integer point."""
    return sum(Fraction(c) * math.comb(x, i) for i, c in enumerate(coeffs))


def series_eval_mod(coeffs, x, p, k):
    """sum_i a_i * C(x, i) at the integer x >= 0, summed exactly and then
    reduced mod p^k; every denominator must be prime to p."""
    value = mahler_value(coeffs, x)
    q = p**k
    return value.numerator * pow(value.denominator, -1, q) % q


def poly_value(mono_coeffs, x):
    """Exact Horner evaluation of a monomial-basis coefficient list."""
    acc = Fraction(0)
    for c in reversed(mono_coeffs):
        acc = acc * x + Fraction(c)
    return acc


def as_int(value):
    value = Fraction(value)
    if value.denominator != 1:
        raise ValueError(f"non-integral value {value}")
    return value.numerator


def crt_value(residues, moduli):
    """The x in [0, prod(moduli)) with x = r mod q for each residue r and
    its modulus q (pairwise coprime), by Garner's mixed-radix steps."""
    x, radix = 0, 1
    for r, q in zip(residues, moduli):
        x += radix * ((r - x) * pow(radix, -1, q) % q)
        radix *= q
    return x


def value_table(fn, size):
    """[fn(0) mod size, ..., fn(size-1) mod size]."""
    return [fn(x) % size for x in range(size)]


def preserves_congruences(table, p, k):
    """True iff x = y mod p^j implies f(x) = f(y) mod p^j for all j <= k.

    Checked level by level on the full table; equivalent to the all-pairs
    distance condition by ultrametricity.
    """
    size = p**k
    assert len(table) == size
    for j in range(1, k):
        q = p**j
        for r in range(q):
            want = table[r] % q
            if any(table[x] % q != want for x in range(r + q, size, q)):
                return False
    return True


def compatibility_probe_full_table(fn, p, k):
    """The bounded compatibility probe with no early exit.

    Tabulates fn on all of Z/p^k first, then scans levels 1..k-1 in order,
    inputs in increasing order.  Returns the first violation as
    {"level": j, "input_residue": r}, or None when every level holds.
    """
    size = p**k
    table = [fn(x) % size for x in range(size)]
    for j in range(1, k):
        q = p**j
        for x in range(q, size):
            if (table[x] - table[x % q]) % q:
                return {"level": j, "input_residue": x % q}
    return None


def is_bijection(table):
    return len(set(table)) == len(table)


def zero_cycle_length(table):
    """Length of the cycle through 0, or None if the orbit of 0 never returns."""
    size = len(table)
    x = table[0]
    steps = 1
    while x != 0 and steps <= size:
        x = table[x]
        steps += 1
    return steps if x == 0 else None


def is_transitive(table):
    """Single cycle through all residues, walked from 0."""
    return zero_cycle_length(table) == len(table)


def orbit(fn, start, steps, size):
    out = [start % size]
    for _ in range(steps - 1):
        out.append(fn(out[-1]) % size)
    return out


def random_integer_valued_poly(rng: random.Random, max_degree=8):
    """Random falling-basis coefficients c_i/d_i with every c_i*i!/d_i an integer.

    The integrality constraint per term keeps the interpolation
    coefficients integral, so the polynomial is integer-valued at every
    prime.  Returns the falling-basis coefficient list.
    """
    degree = rng.randint(1, max_degree)
    coeffs = []
    for i in range(degree + 1):
        den = rng.choice([1, 1, 1, 2, 3, 6, 18])
        while True:
            num = rng.randint(-40, 40)
            if (num * math.factorial(i)) % den == 0:
                break
        coeffs.append(Fraction(num, den))
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return coeffs


def falling_value(coeffs, x):
    """Exact value of a falling-basis coefficient list at an integer point."""
    acc = Fraction(0)
    ff = 1
    for i, c in enumerate(coeffs):
        if i:
            ff *= x - (i - 1)
        acc += Fraction(c) * ff
    return acc


def poly_eval_mod(poly, x, m):
    """RationalPoly value mod m at the integer x, rebuilding the scaled form.

    Works modulo p^k * D for the common denominator D; the p-part of D must
    divide the scaled value (else NotIntegerValued), the unit part is
    removed by its inverse.
    """
    d = 1
    for c in poly.coeffs:
        d = d * c.denominator // math.gcd(d, c.denominator)
    ints = [int(c * d) for c in poly.coeffs]
    big = m.value * d
    if poly.basis == "monomial":
        acc = 0
        for c in reversed(ints):
            acc = (acc * x + c) % big
    else:
        acc = 0
        ff = 1
        for i, c in enumerate(ints):
            if i:
                ff = ff * (x - (i - 1)) % big
            acc = (acc + c * ff) % big
    unit = d
    p_part = 1
    while unit % m.p == 0:
        unit //= m.p
        p_part *= m.p
    if acc % p_part:
        raise NotIntegerValued(f"value at {x} has denominator divisible by {m.p}")
    acc //= p_part
    if unit > 1:
        acc = acc * pow(unit, -1, m.value)
    return acc % m.value


def _valuation(n, p):
    """p-adic valuation of a nonzero integer."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def solve_mod_pk_fullscan(rows, rhs, p, k):
    """General solution of A z = b over Z/p^k by full-pivot elimination.

    An elimination independent of the library's Howell basis: every
    nonzero entry of the remaining block gets its own valuation, the first
    one of least valuation in row-major order is the pivot, and back-
    substitution gives the solutions.  Returns (particular, kernel_gens)
    or None.  The library must agree on which systems are solvable; its
    particular solution may be another member of the same coset.
    """
    m = p ** k
    a = [[v % m for v in row] for row in rows]
    b = [v % m for v in rhs]
    nrows, ncols = len(a), len(a[0])
    col_of = list(range(ncols))
    piv_val = []
    t = 0
    while t < nrows and t < ncols:
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] == 0:
                    continue
                e = _valuation(a[i][j], p)
                if best is None or e < best[0]:
                    best = (e, i, j)
                    if e == 0:
                        break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        e, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        b[t], b[bi] = b[bi], b[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
            col_of[t], col_of[bj] = col_of[bj], col_of[t]
        inv_unit = pow(a[t][t] // p ** e, -1, m)
        a[t] = [v * inv_unit % m for v in a[t]]
        b[t] = b[t] * inv_unit % m
        pe = p ** e
        for i in range(t + 1, nrows):
            if a[i][t]:
                q = a[i][t] // pe
                a[i] = [(vi - q * vt) % m for vi, vt in zip(a[i], a[t])]
                b[i] = (b[i] - q * b[t]) % m
        piv_val.append(e)
        t += 1
    rank = len(piv_val)
    if any(b[i] % m for i in range(rank, nrows)):
        return None

    def back_substitute(target, start, preset):
        z = list(preset)
        for i in range(start, -1, -1):
            s = (target[i] - sum(a[i][j] * z[j] for j in range(i + 1, ncols))) % m
            pe = p ** piv_val[i]
            if s % pe:
                return None
            z[i] = (s // pe) % (m // pe)
        return z

    particular = back_substitute(b, rank - 1, [0] * ncols)
    if particular is None:
        return None
    zeros = [0] * nrows
    gens = []
    for free in range(rank, ncols):
        preset = [0] * ncols
        preset[free] = 1
        gens.append(back_substitute(zeros, rank - 1, preset))
    for t in range(rank):
        slack = p ** (k - piv_val[t])
        if slack % m == 0:
            continue
        preset = [0] * ncols
        preset[t] = slack
        gens.append(back_substitute(zeros, t - 1, preset))

    def unpermute(z):
        out = [0] * ncols
        for pos, orig in enumerate(col_of):
            out[orig] = z[pos]
        return out

    return unpermute(particular), [unpermute(g) for g in gens]


def eval_tree(e, x, m):
    """Value mod m at the exact integer point x (x may exceed the modulus).

    Every kind but POLY first reduces its inputs, which is harmless for
    1-Lipschitz operations; POLY consumes x exactly.
    """
    kind = e.kind
    if kind == "VAR":
        return x % m.value
    if kind == "CONST":
        q = e.value
        if q.denominator == 1:
            return q.numerator % m.value
        den_inv = mod_inverse(ResidueInt(q.denominator % m.value, m)).residue
        return q.numerator * den_inv % m.value
    if kind == "POLY":
        return poly_eval_mod(e.poly, x, m)
    if kind == "DELTA":
        return (eval_tree(e.children[0], x + 1, m) - eval_tree(e.children[0], x, m)) % m.value
    if kind == "COMPOSE":
        return eval_tree(e.children[0], eval_tree(e.children[1], x, m), m)
    if kind in _BITWISE:
        if m.p != 2:
            raise BitwiseOddPrime(f"{kind} needs p = 2, modulus is {m}")
        a = eval_tree(e.children[0], x, m)
        if kind == "NEG":
            return m.value - 1 - a
        b = eval_tree(e.children[1], x, m)
        if kind == "XOR":
            return a ^ b
        if kind == "AND":
            return a & b
        return a | b
    a = eval_tree(e.children[0], x, m)
    if kind == "ADD":
        return (a + eval_tree(e.children[1], x, m)) % m.value
    if kind == "SUB":
        return (a - eval_tree(e.children[1], x, m)) % m.value
    if kind == "MUL":
        return a * eval_tree(e.children[1], x, m) % m.value
    if kind == "POW":
        exponent = eval_tree(e.children[1], x, m)
        return unit_pow(ResidueInt(a, m), exponent).residue
    if kind == "INV":
        return mod_inverse(ResidueInt(a, m)).residue
    raise AssertionError(kind)


def relation_holds_at(rel, seq, m, n):
    """Whether x_{n+r} = c + sum c_j x_{n+j} holds at one cyclic index n,
    by plain indexing."""
    period = len(seq)
    acc = rel.constant
    for j, cj in enumerate(rel.coeffs):
        acc += cj * seq[(n + j) % period]
    return (acc - seq[(n + rel.order) % period]) % m.value == 0


def first_violation_scan(rel, seq, m):
    """Least index where rel fails, one index at a time, or None."""
    return next((n for n in range(len(seq)) if not relation_holds_at(rel, seq, m, n)), None)


def prefix_lower_bound_scan(seq, m, r_max):
    """The difference-prefix bound by trying every order from 1 up.

    Orders whose windows over the first min(period, 2*r_max + 2)
    differences have no solution are skipped; an order with no more
    equations than unknowns ends the scan as the bound, and r_max + 1
    means every order up to r_max is ruled out.
    """
    period = len(seq)
    n = min(period, 2 * r_max + 2)
    diff = [(seq[(i + 1) % period] - seq[i]) % m.value for i in range(n)]
    for r in range(1, r_max + 1):
        if n - r <= r:
            return r
        rows = [diff[i:i + r] for i in range(n - r)]
        if solve_mod_pk_fullscan(rows, diff[r:], m.p, m.k) is not None:
            return r
    return r_max + 1


def bit_plane_periods_divisors(seq, k):
    """Least period of each bit plane of one full period, by trying every
    divisor of the length against the plane's rotation."""
    period = len(seq)
    divisors = [d for d in range(1, period + 1) if period % d == 0]
    out = []
    for j in range(k):
        bits = [(x >> j) & 1 for x in seq]
        out.append(next(d for d in divisors if bits[d:] + bits[:d] == bits))
    return out


def prefix_bound_fixed_windows(seq, m, r_max):
    """The difference-prefix bound on fixed windows, one solve per order.

    With n = min(period, 2*r_max + 2), every order r from 1 up to
    top = min(r_max, (n - 1) // 2) is solved on the same n - 1 cyclic
    windows dx_{i+r} = sum c_j dx_{i+j}, i < n - 1; the first solvable
    order is the bound, and top + 1 means every order up to top is ruled
    out.
    """
    period = len(seq)
    n = min(period, 2 * r_max + 2)
    top = min(r_max, (n - 1) // 2)
    dx = [(seq[(i + 1) % period] - seq[i % period]) % m.value for i in range(n - 1 + top)]
    for r in range(1, top + 1):
        rows = [dx[i:i + r] for i in range(n - 1)]
        if solve_mod_pk_fullscan(rows, dx[r:r + n - 1], m.p, m.k) is not None:
            return r
    return top + 1


def primes_below(limit):
    """The primes below limit, by trial division of each n by the primes up
    to its square root."""
    primes = []
    for n in range(2, limit):
        root = math.isqrt(n)
        for p in primes:
            if p > root:
                primes.append(n)
                break
            if n % p == 0:
                break
        else:
            primes.append(n)  # 2, before any prime is known
    return primes


class LengthMismatch(ValueError):
    """Triangle shorter than the digit count it is asked to produce."""


def digits(x: ResidueInt):
    """Base-p digit vector of x, least significant first, padded to length k."""
    out = []
    r = x.residue
    p = x.modulus.p
    for _ in range(x.modulus.k):
        out.append(r % p)
        r //= p
    return out


def triangle_digit(t, i, bits):
    """psi_i of the digit triangle t evaluated on the digit vector bits[0..i-1]."""
    acc = 0
    for mono in t.psi[i]:
        acc ^= all(bits[j] for j in mono)
    return acc


def triangle_eval(t, x: ResidueInt) -> ResidueInt:
    """The map of the digit triangle t (a BoolTriangle) at x, digit by digit."""
    m = x.modulus
    if m.p != 2:
        raise BitwiseOddPrime("digit triangles act on base-2 expansions")
    if t.length < m.k:
        raise LengthMismatch(f"triangle has {t.length} digits, modulus needs {m.k}")
    bits = digits(x)
    out = 0
    for i in range(m.k):
        out |= (triangle_digit(t, i, bits) ^ bits[i]) << i
    return ResidueInt(out, m)
