"""Seeded stream generators over prime-power and composite moduli.

A GeneratorSpec pairs a state map with its modulus, seed, and optional
output map.  Construction certifies the state map (one certificate per
prime factor) unless the caller explicitly opts out; the stream itself
is then plain iteration of x -> f(x), with composite moduli advanced as
CRT components in lockstep and recombined on output.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Union

from .certify import (
    CapExceeded,
    DEFAULT_STATE_CAP,
    PROVEN,
    MapLike,
    bijective_mod,
    ergodicity_certificate,
)
from .core import CompositeModulus, Modulus
from .expr import FnExpr, compile_map
from .funcalg import expr_from_json, expr_to_json


class NotCertified(Exception):
    """State or output map lacks a PROVEN certificate and unchecked=False."""


class NotBinaryModulus(Exception):
    """Byte emission needs an output word of at least 8 bits over p=2."""


AnyModulus = Union[Modulus, CompositeModulus]


def _factors(m: AnyModulus):
    if isinstance(m, CompositeModulus):
        return list(m.factors)
    return [m]


@dataclass(frozen=True)
class GeneratorSpec:
    state_fn: MapLike
    modulus: AnyModulus
    seed: int
    out_fn: Optional[FnExpr] = None
    out_modulus: Optional[Modulus] = None
    unchecked: bool = False
    certificates: tuple = ()

    def __post_init__(self):
        if not 0 <= self.seed < self.modulus.value:
            raise ValueError(f"seed {self.seed} outside 0..{self.modulus.value - 1}")
        if (self.out_fn is None) != (self.out_modulus is None):
            raise ValueError("out_fn and out_modulus come together")
        if self.out_modulus is not None and self.modulus.value % self.out_modulus.value:
            raise ValueError("output modulus must divide the state modulus")


def make_generator(state_fn: MapLike, modulus: AnyModulus, seed: int, *,
                   out_fn: Optional[FnExpr] = None,
                   out_modulus: Optional[Modulus] = None,
                   unchecked: bool = False,
                   cap: Optional[int] = None) -> GeneratorSpec:
    """Build a GeneratorSpec, certifying the maps unless unchecked=True.

    The state map must earn a PROVEN ergodicity certificate for every
    prime factor of the modulus; the output map, when present, must be
    bijective on its output modulus.  Anything weaker raises
    NotCertified, naming the offending factor, so accepting an
    uncertified generator is always an explicit caller decision.
    """
    certs = ()
    if not unchecked:
        collected = []
        for factor in _factors(modulus):
            cert = ergodicity_certificate(state_fn, factor.p, cap=cap)
            if cert.verdict != PROVEN:
                raise NotCertified(
                    f"state map is {cert.verdict} at p={factor.p}"
                    " (pass unchecked=True to accept it anyway)")
            collected.append(cert)
        if out_fn is not None:
            ok, witness = bijective_mod(out_fn, out_modulus, cap)
            if not ok:
                raise NotCertified(
                    f"output map collides on {witness} mod"
                    f" {out_modulus.p}^{out_modulus.k}")
        certs = tuple(collected)
    return GeneratorSpec(state_fn, modulus, seed, out_fn, out_modulus,
                         unchecked, certs)


class GeneratorState:
    """Single-owner iteration state for one GeneratorSpec."""

    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        m = spec.modulus
        self._maps = [compile_map(spec.state_fn, f) for f in _factors(m)]
        if isinstance(m, CompositeModulus):
            self._parts, self._word = m.decompose(spec.seed), m.combine
        else:
            self._parts, self._word = [spec.seed], itemgetter(0)
        self._out = None
        if spec.out_fn is not None:
            self._out = compile_map(spec.out_fn, spec.out_modulus)
            self._out_value = spec.out_modulus.value

    @property
    def current(self) -> int:
        return self._word(self._parts)

    def next(self) -> int:
        parts = self._parts
        for i, step in enumerate(self._maps):
            parts[i] = step(parts[i])
        if self._out is not None:
            return self._out(self._word(parts) % self._out_value)
        return self._word(parts)

    def take(self, count: int) -> list:
        return [self.next() for _ in range(count)]


def _word_bits(spec: GeneratorSpec) -> int:
    m = spec.out_modulus if spec.out_fn is not None else spec.modulus
    if not isinstance(m, Modulus) or m.p != 2:
        raise NotBinaryModulus("byte emission needs a 2-power output modulus")
    if m.k < 8:
        raise NotBinaryModulus(f"output words have {m.k} bits, need at least 8")
    return m.k


def emit_bytes(spec: GeneratorSpec, count: int, state: Optional[GeneratorState] = None) -> bytes:
    """count output words, each contributing its low floor(bits/8) bytes, little-endian."""
    width = _word_bits(spec) // 8
    state = state if state is not None else GeneratorState(spec)
    out = bytearray()
    for _ in range(count):
        word = state.next() % (1 << (8 * width))
        out += word.to_bytes(width, "little")
    return bytes(out)


def full_period_census(spec: GeneratorSpec, cap: Optional[int] = None) -> dict:
    """Walk exactly modulus.value steps and count every output value.

    period is the step at which the state first returns to the seed, or
    None if it never does within one full modulus of steps.  uniform is
    True iff all observed output counts are equal and the whole output
    space was hit.
    """
    cap = cap if cap is not None else DEFAULT_STATE_CAP
    total = spec.modulus.value
    if total > cap:
        raise CapExceeded(f"{spec.modulus} states exceeds cap {cap}")
    state = GeneratorState(spec)
    counts: dict = {}
    period = None
    for step in range(1, total + 1):
        out = state.next()
        counts[out] = counts.get(out, 0) + 1
        if period is None and state.current == spec.seed:
            period = step
    out_space = (spec.out_modulus.value if spec.out_fn is not None else total)
    sizes = set(counts.values())
    uniform = len(counts) == out_space and len(sizes) == 1
    return {
        "period": period,
        "counts": counts,
        "uniform": uniform,
        "expected_count": total // out_space,
    }


def spec_to_json(spec: GeneratorSpec) -> dict:
    if not isinstance(spec.state_fn, FnExpr):
        raise TypeError("only expression state maps serialize to JSON")
    blob: dict = {
        "state_fn": expr_to_json(spec.state_fn),
        "modulus": _modulus_to_json(spec.modulus),
        "seed": spec.seed,
    }
    if spec.out_fn is not None:
        blob["out_fn"] = expr_to_json(spec.out_fn)
        blob["out_modulus"] = _modulus_to_json(spec.out_modulus)
    if spec.unchecked:
        blob["unchecked"] = True
    return blob


def spec_from_json(blob: dict, cap: Optional[int] = None) -> GeneratorSpec:
    """Rebuild a generator from its JSON form, re-certifying unless flagged.
    A missing or mistyped field raises ValueError("malformed generator spec")."""
    try:
        out_fn = expr_from_json(blob["out_fn"]) if "out_fn" in blob else None
        out_modulus = _modulus_from_json(blob["out_modulus"]) if "out_modulus" in blob else None
        state_fn, modulus, seed = (expr_from_json(blob["state_fn"]),
                                   _modulus_from_json(blob["modulus"]), blob["seed"])
        if type(seed) is not int:
            raise TypeError(f"seed {seed!r} is not an integer")
    except (LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed generator spec: {type(exc).__name__}: {exc}") from None
    return make_generator(state_fn, modulus, seed, out_fn=out_fn, out_modulus=out_modulus,
                          unchecked=bool(blob.get("unchecked", False)), cap=cap)


def _modulus_to_json(m: AnyModulus) -> dict:
    if isinstance(m, CompositeModulus):
        return {"factors": [[f.p, f.k] for f in m.factors]}
    return {"p": m.p, "k": m.k}


def _modulus_from_json(blob: dict) -> AnyModulus:
    pairs = blob["factors"] if "factors" in blob else [(blob["p"], blob["k"])]
    if any(type(v) is not int for pair in pairs for v in pair):
        raise TypeError(f"modulus {blob} has a p or k that is not an integer")
    factors = tuple(Modulus(p, k) for p, k in pairs)
    return CompositeModulus(factors) if "factors" in blob else factors[0]
