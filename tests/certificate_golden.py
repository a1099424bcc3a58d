"""The certificate golden file: its items, its lines and its regeneration.

    PYTHONPATH=src python tests/certificate_golden.py

rewrites golden/certificates.txt beside this file.  The items are rebuilt
from fixed seeds at p = 2, 3 and 5: corpus.py trees; build_ergodic and
build_measure_preserving wrappings of them; the trees plus d +- C(x, p),
which is not 1-Lipschitz, so that the compatibility probe runs; and
integer-valued polynomials as a polynomial, as a series and under CLASS_A;
the DSL maps the certify-mix benchmark pool serves, its BRUTE_ONLY
probes and its p = 2 shift maps; and p = 2 maps that miss a shift family
by one side condition.  Each line holds one (item, prime,
property): the item's class, then the certificate's verdict, theorem,
checked modulus and witness.  elapsed_ms is left out, so the file
changes only when a certificate does.  A change that rewrites the file
lists each changed line in CHANGES.md.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from padicforge.certify import (
    CLASS_A,
    COMPATIBLE,
    ERGODIC,
    MEASURE_PRESERVING,
    FunctionClass,
    compatibility_certificate,
    ergodicity_certificate,
    infer_class,
    measure_preservation_certificate,
)
from padicforge.funcalg import add, build_ergodic, build_measure_preserving, parse_dsl, poly_node
from padicforge.mahler import RationalPoly, series_from_poly

from corpus import random_compatible_ast
from oracles import random_integer_valued_poly

GOLDEN = Path(__file__).with_name("golden") / "certificates.txt"
PRIMES = (2, 3, 5)
TREES, WRAPPINGS, POLYS = 80, 20, 60  # per prime; with POOL and NEAR_MISSES, 974 items
# and 2,922 lines
PROPERTIES = {  # property -> certificate(f, p, class or None)
    ERGODIC: ergodicity_certificate,
    MEASURE_PRESERVING: measure_preservation_certificate,
    COMPATIBLE: lambda f, p, _: compatibility_certificate(f, p),
}
# (name, prime, DSL source) of the certify-mix pool's DSL maps: the ten
# BRUTE_ONLY probes and the two p = 2 shift maps, as build_ergodic builds them
POOL = [
    ("shift-readme", 2, "1 + x + 2*delta(x xor (2*x + 1))"),
    ("shift-squares-mask", 2, "7 + x + 2*delta((x*x) xor ((x + 32) and x))"),
    ("brute-xor-square", 2, "1 + x + 2*((x*x) xor ((x + 32) and x))"),
    ("brute-measure-only", 2, "3 + 5*x + 2*(x xor (4*x + 1))"),
    ("brute-or-mix", 2, "1 + ((x*x + 3*x) xor (x and 12)) + 4*(x or 5)"),
    ("brute-sextic", 3, "1 + x + (5/18)*ff(x,6)"),
    ("brute-quartic-ff4/6", 3, "1 + x + (1/6)*ff(x,4)"),
    ("brute-pow-ff3", 3, "1 + x + (1/3)*ff(x,3)*(1+3*x)^x"),
    ("brute-ff5/5", 5, "1 + x + (1/5)*ff(x,5)"),
    ("brute-xor-and", 2, "1 + x + 4*((x xor 3)*(x and 5))"),
    ("brute-or", 2, "1 + 3*x + 2*(x or 6)"),
    ("brute-xor1", 2, "x xor 1"),
]
# (name, prime, DSL source) of maps one side condition away from a shift
# family: a linear coefficient other than 1 under delta, and an even one
NEAR_MISSES = [
    ("ergodic-coefficient-3", 2, "1 + 3*x + 2*delta(x xor 1)"),
    ("measure-coefficient-2", 2, "1 + 2*x + 4*(x xor 1)"),
]


def items(p):
    """(name, map, class or None) for every item at p, from seed 500 + p."""
    rng = random.Random(500 + p)
    trees = [random_compatible_ast(rng, p, rng.randint(1, 4)) for _ in range(TREES)]
    for i, tree in enumerate(trees):
        yield f"p{p}/tree/{i:03}", tree, None
    unit = lambda: rng.choice([c for c in range(1, 3 * p) if c % p])
    for i, tree in enumerate(trees[:WRAPPINGS]):
        yield f"p{p}/ergodic/{i:03}", build_ergodic(tree, unit(), p), None
    for i, tree in enumerate(trees[WRAPPINGS:2 * WRAPPINGS]):
        d = rng.randint(0, 2 * p)
        yield f"p{p}/measure/{i:03}", build_measure_preserving(tree, unit(), d, p), None
    for i, tree in enumerate(trees[2 * WRAPPINGS:3 * WRAPPINGS]):
        c = Fraction(rng.choice((-1, 1)), math.factorial(p))  # c * (x)_p = +-C(x, p)
        binomial = RationalPoly([rng.randint(-p, p)] + [0] * (p - 1) + [c], "falling")
        yield f"p{p}/probe/{i:03}", add(tree, poly_node(binomial)), None
    for i in range(POLYS):
        poly = RationalPoly(random_integer_valued_poly(rng), "falling")
        yield f"p{p}/poly/{i:03}", poly, None
        yield f"p{p}/series/{i:03}", series_from_poly(poly, p), None
        yield f"p{p}/class-a/{i:03}", poly, FunctionClass(CLASS_A)
    for name, prime, source in POOL:
        if prime == p:
            yield f"p{p}/pool/{name}", parse_dsl(source), None
    for name, prime, source in NEAR_MISSES:
        if prime == p:
            yield f"p{p}/near-miss/{name}", parse_dsl(source), None


def _class_text(f, p, cls):
    cls = cls or infer_class(f, p)
    fields = [f"{name}={getattr(cls, name)}" for name in ("degree", "rho", "lam")
              if getattr(cls, name) is not None]
    return f"{cls.tag}({','.join(fields)})" if fields else cls.tag


def certificate_text(f, p, cls, prop):
    """verdict, theorem, checked modulus and witness of one certificate."""
    cert = PROPERTIES[prop](f, p, cls)
    m = cert.checked_modulus
    witness = "-" if cert.witness is None else json.dumps(
        cert.witness, sort_keys=True, separators=(",", ":"))
    return f"{cert.verdict} {cert.theorem} {m.p}^{m.k} {witness}"


def all_items():
    """(name, p, map, class or None) for every item at every prime."""
    return [(name, p, f, cls) for p in PRIMES for name, f, cls in items(p)]


def lines(every_item):
    """{(item name, property): line} for every item and property."""
    out = {}
    for name, p, f, cls in every_item:
        text = _class_text(f, p, cls)
        for prop in PROPERTIES:
            out[name, prop] = f"{name} {prop} {text} {certificate_text(f, p, cls, prop)}"
    return out


def read_golden():
    out = {}
    for line in GOLDEN.read_text().splitlines():
        if line and not line.startswith("#"):
            name, prop = line.split(" ", 2)[:2]
            out[name, prop] = line
    return out


def main():
    header = ("# one line per (item, property): item, property, class, verdict, theorem,\n"
              "# checked modulus, witness.  Regenerate: PYTHONPATH=src python"
              " tests/certificate_golden.py\n")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(header + "".join(line + "\n" for line in lines(all_items()).values()))


if __name__ == "__main__":
    main()
