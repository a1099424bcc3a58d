import random
from fractions import Fraction

import pytest
from oracles import crt_value, digits, primes_below

from padicforge.core import (
    INFINITE,
    BaseNotOneUnit,
    CompositeModulus,
    Modulus,
    NotAUnit,
    ResidueInt,
    bytes_to_words,
    is_prime,
    mod_inverse,
    ord_p,
    pack_slots,
    slot_ones,
    unit_pow,
    unpack_slots,
    words_to_bytes,
)


def test_modulus_construction():
    m = Modulus(2, 4)
    assert m.value == 16
    assert str(m) == "2^4"
    with pytest.raises(ValueError):
        Modulus(4, 2)
    with pytest.raises(ValueError):
        Modulus(5, 0)
    # p^k is built eagerly, so an exponent past the bit bound is refused first
    assert Modulus(2, 2**19 - 1).value == 1 << 2**19 - 1
    with pytest.raises(ValueError, match=r"^modulus 3\^100000000000000000000 has more than"
                                         " 1048576 bits$"):
        Modulus(3, 10**20)
    with pytest.raises(ValueError, match=r"^modulus 2\^100000000000\.\.\. \(41 digits\) has"):
        Modulus(2, 10**40)


def test_residue_range_checked():
    m = Modulus(3, 2)
    with pytest.raises(ValueError):
        ResidueInt(9, m)
    assert m.residue(10).residue == 1


@pytest.mark.parametrize("build, error, message", [
    (lambda m, r: mod_inverse(ResidueInt(r, m)), NotAUnit, "{r} is divisible by 2"),
    (lambda m, r: unit_pow(ResidueInt(r, m), 3), BaseNotOneUnit,
     "{r} is even, not a unit mod 2^20000"),
    (lambda m, r: ResidueInt(2 * r, m), ValueError,
     "residue {2r} out of range for modulus 2^20000"),
])
def test_errors_past_the_digit_limit(build, error, message):
    # r = 2^19999 has 6021 decimal digits, past the default int-to-str
    # limit of 4300: each message names the residue by its first 12 digits
    # and its digit count instead of raising
    r = 2 ** 19999
    with pytest.raises(error) as exc:
        build(Modulus(2, 20000), r)
    assert exc.type is error
    assert str(exc.value) == message.format(
        r="199013842016... (6021 digits)", **{"2r": "398027684033... (6021 digits)"})


@pytest.mark.parametrize("value, shown", [
    (-5, "-5"), (10 ** 30 - 1, "9" * 30), (-(10 ** 30 - 1), "-" + "9" * 30),
    (10 ** 30, "100000000000... (31 digits)"), (-(10 ** 40), "-100000000000... (41 digits)"),
])
def test_messages_write_numbers_briefly(value, shown):
    # 30 digits or fewer in full, sign included; longer ones by their sign,
    # first 12 digits and digit count
    with pytest.raises(ValueError) as exc:
        ResidueInt(value, Modulus(3, 1))
    assert str(exc.value) == f"residue {shown} out of range for modulus 3^1"


def test_ord_p():
    assert ord_p(12, 2) == 2
    assert ord_p(0, 5) == INFINITE
    assert ord_p(250, 5) == 3
    assert ord_p(-12, 2) == 2
    assert ord_p(Fraction(5, 18), 2) == -1
    assert ord_p(Fraction(5, 18), 3) == -2
    assert ord_p(Fraction(0), 7) == INFINITE


def test_ord_multiplicative_exhaustive():
    # ord_p(x*y) = ord_p(x) + ord_p(y), with p^k as the cap imposed by
    # reducing the product; exhaustive for p^k <= 3^5.
    for p, k in [(2, 5), (3, 5)]:
        m = p**k
        for x in range(1, m):
            for y in range(1, m):
                expect = min(ord_p(x, p) + ord_p(y, p), k)
                got = ord_p(x * y % m, p)
                if got == INFINITE:
                    got = k
                assert min(got, k) == expect


def test_digits():
    assert digits(Modulus(2, 4).residue(11)) == [1, 1, 0, 1]
    assert digits(Modulus(3, 3).residue(0)) == [0, 0, 0]
    assert digits(Modulus(5, 4).residue(250)) == [0, 0, 0, 2]
    # positional reconstruction
    m = Modulus(3, 4)
    for x in range(m.value):
        ds = digits(m.residue(x))
        assert sum(d * 3**i for i, d in enumerate(ds)) == x


def test_mod_inverse():
    assert mod_inverse(Modulus(2, 4).residue(3)).residue == 11
    assert mod_inverse(Modulus(7, 5).residue(1)).residue == 1
    assert mod_inverse(Modulus(5, 3).residue(7)).residue == 18  # brute-scan oracle
    with pytest.raises(NotAUnit):
        mod_inverse(Modulus(5, 3).residue(10))


def test_mod_inverse_exhaustive():
    # u * u^-1 = 1 for every unit mod p^k, p^k <= 2^10
    for p, k in [(2, 10), (3, 6), (5, 4)]:
        m = Modulus(p, k)
        for u in range(1, m.value):
            if u % p == 0:
                continue
            assert mod_inverse(m.residue(u)).residue * u % m.value == 1


def test_unit_pow():
    m16 = Modulus(2, 4)
    assert unit_pow(m16.residue(3), 11).residue == 11
    assert unit_pow(m16.residue(3), -5).residue == 11  # -5 = 11 mod 16
    assert unit_pow(m16.residue(9), 0).residue == 1
    assert unit_pow(m16.residue(201 % 16), 201).residue == 9  # square-multiply oracle
    with pytest.raises(BaseNotOneUnit):
        unit_pow(m16.residue(6), 2)
    with pytest.raises(BaseNotOneUnit):
        unit_pow(Modulus(5, 2).residue(7), 2)  # 7 != 1 mod 5
    assert unit_pow(Modulus(5, 2).residue(6), 5).residue == pow(6, 5, 25)


def test_unit_pow_rational_exponent():
    # 1/3 = 11 mod 16, so 3^(1/3) = 3^11 = 11 mod 16
    m16 = Modulus(2, 4)
    assert unit_pow(m16.residue(3), Fraction(1, 3)).residue == 11
    with pytest.raises(NotAUnit):
        unit_pow(m16.residue(3), Fraction(1, 2))


def test_unit_pow_homomorphism_exhaustive():
    # u^(e1+e2) = u^e1 * u^e2, exhaustive for p^k <= 2^8 over sampled exponents
    m = Modulus(2, 8)
    exps = [0, 1, 2, 3, 7, 100, 255]
    for u in range(1, 256, 2):
        r = m.residue(u)
        for e1 in exps:
            for e2 in exps:
                lhs = unit_pow(r, e1 + e2).residue
                rhs = unit_pow(r, e1).residue * unit_pow(r, e2).residue % 256
                assert lhs == rhs


def test_unit_pow_order_divides_pk():
    # u^(p^k) = 1 mod p^k for every 1-unit, exhaustive for p^k <= 3^4;
    # this identity is what justifies reducing exponents mod p^k.
    for p, k in [(2, 4), (3, 4)]:
        m = Modulus(p, k)
        for u in range(m.value):
            if (p == 2 and u % 2 == 1) or (p != 2 and u % p == 1):
                assert unit_pow(m.residue(u), m.value).residue == 1


def test_composite_modulus():
    cm = CompositeModulus.from_int(100000)
    assert [(f.p, f.k) for f in cm.factors] == [(2, 5), (5, 5)]
    assert cm.value == 100000
    assert cm.radical() == 10
    x = 31415
    parts = cm.decompose(x)
    assert parts == [31415 % 32, 31415 % 3125]
    assert cm.combine([[r] for r in parts]) == [x]
    with pytest.raises(ValueError):
        CompositeModulus((Modulus(5, 1), Modulus(2, 1)))  # wrong order
    with pytest.raises(ValueError):
        CompositeModulus.from_int(1)


def test_is_prime_agrees_with_trial_division_below_a_million():
    assert [n for n in range(-3, 10**6) if is_prime(n)] == primes_below(10**6)


def test_is_prime_decides_large_n_up_to_its_bound_and_refuses_above():
    # 2^61 - 1 is a Mersenne prime, far beyond trial division; 3215031751 is
    # the least strong pseudoprime to bases 2, 3, 5 and 7, and
    # 3317044064679887385961981 the least to every base up to 41
    assert is_prime(2**61 - 1) and is_prime(100000000000000000039)
    assert not is_prime(3215031751) and not is_prime((2**61 - 1) * (2**19 - 1))
    with pytest.raises(ValueError, match="cannot decide whether"):
        is_prime(3317044064679887385961981)


def test_composite_modulus_factors_past_trial_division():
    big = 100000000000000000039
    assert CompositeModulus.from_int(8 * big).factors == (Modulus(2, 3), Modulus(big, 1))
    # a cofactor past trial division may be an exact power of a prime
    assert CompositeModulus.from_int(65537**2).factors == (Modulus(65537, 2),)
    assert CompositeModulus.from_int(12 * 65537**3).factors == (
        Modulus(2, 2), Modulus(3, 1), Modulus(65537, 3))
    assert CompositeModulus.from_int(big**2).factors == (Modulus(big, 2),)
    with pytest.raises(ValueError, match="cannot factor 4295229443"):
        CompositeModulus.from_int(65537 * 65539)  # two primes past the trial bound
    with pytest.raises(ValueError, match="cannot factor 18448995968014090249"):
        CompositeModulus.from_int((65537 * 65539) ** 2)  # a square, but not of a prime


def test_errors_shorten_huge_numbers_to_leading_digits_and_count():
    bound = "primes must be below 3317044064679887385961981"
    with pytest.raises(ValueError) as exc:
        is_prime(10**4000 + 1)
    assert str(exc.value) == f"cannot decide whether 100000000000... (4001 digits) is prime: {bound}"
    with pytest.raises(ValueError) as exc:
        CompositeModulus.from_int(10**40 * 65537 * 65539)
    assert str(exc.value) == ("cannot factor 429522944300... (50 digits): 4295229443 has no"
                              " prime factor below 65536 and is not a prime power")
    # up to 30 digits a number is written out
    with pytest.raises(ValueError, match=f"^cannot decide whether {2**89 - 1} is prime"):
        is_prime(2**89 - 1)


def test_composite_crt_roundtrip():
    cm = CompositeModulus.from_int(360)  # 2^3 * 3^2 * 5
    assert cm.combine(list(zip(*map(cm.decompose, range(360))))) == list(range(360))


@pytest.mark.parametrize("m, factors", [
    (2**5, 1), (8 * 65537, 2), (360, 3), (2**3 * 3 * 5**2 * 7, 4)])
def test_block_crt_matches_a_plain_crt(m, factors):
    # 8 * 65537: a factor past trial division
    cm = CompositeModulus.from_int(m)
    moduli = [f.value for f in cm.factors]
    assert len(moduli) == factors
    rng = random.Random(m)
    for count in (0, 1, 2**16 + 1):
        runs = [[rng.randrange(q) for _ in range(count)] for q in moduli]
        assert cm.combine(runs) == [crt_value(rs, moduli) for rs in zip(*runs)]
    with pytest.raises(ValueError, match="one run per factor"):
        cm.combine([[0]] * (factors + 1))


@pytest.mark.parametrize("width", [*range(1, 10), 16])
def test_words_round_trip_through_little_endian_bytes(width):
    # 1, 2, 4 and 8 bytes go through an array, the other widths word by word
    top = 2 ** (8 * width) - 1
    rng = random.Random(width)
    values = [0, top, 1, top - 1] + [rng.randrange(top + 1) for _ in range(200)]
    data = words_to_bytes(values, width)
    assert data == b"".join(v.to_bytes(width, "little") for v in values)
    assert list(bytes_to_words(data, width)) == values
    assert words_to_bytes(iter(values), width) == data
    assert words_to_bytes([], width) == b"" and list(bytes_to_words(b"", width)) == []
    for bad in (-1, top + 1):
        with pytest.raises(OverflowError):
            words_to_bytes([0, bad], width)


@pytest.mark.parametrize("bits", [32, 64, 128])
def test_slots_round_trip_through_one_int(bits):
    rng = random.Random(bits)
    values = [0, 2**bits - 1] + [rng.randrange(2**bits) for _ in range(300)] + [0, 0]
    x = pack_slots(values, bits)
    assert x == sum(v << bits * n for n, v in enumerate(values))
    assert list(unpack_slots(x, bits, len(values))) == values  # trailing zero slots kept
    assert pack_slots([], bits) == 0 and list(unpack_slots(0, bits, 0)) == []


@pytest.mark.parametrize("bits", [8, 32, 64, 128, 192])
def test_slot_ones_is_a_plain_sum(bits):
    for count in (0, 1, 2, 1000):
        assert slot_ones(bits, count) == sum(1 << bits * n for n in range(count))
