"""Seeded stream generators over prime-power and composite moduli.

A GeneratorSpec pairs a state map with its modulus, seed, and optional
output map.  Construction certifies the state map (one certificate per
prime factor) unless the caller explicitly opts out.  Streams advance
through walk, one loop that returns a block of states: composite moduli
walk each CRT component as a block and recombine the block with one pass
per factor (CompositeModulus.combine), and emit_blocks makes one block of
words at a time, packed by core.words_to_bytes, which sequence_from_bytes inverts.
Each modulus lists its own factors and writes its own JSON (core), so a
one-factor CompositeModulus streams and emits bytes as its prime power does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional, Union

from .certify import (
    PROVEN,
    REFUTED,
    MapLike,
    _require_cap,
    bijective_mod,
    ergodicity_certificate,
)
from .core import CompositeModulus, Modulus, _brief, modulus_from_json, words_to_bytes
from .expr import FnExpr, compile_map
from .funcalg import expr_from_json, expr_to_json


class NotCertified(Exception):
    """State or output map lacks a PROVEN certificate and unchecked=False.
    verdict is the state map's, UNKNOWN or REFUTED; an output map that
    collides is REFUTED, the default."""

    def __init__(self, message: str, verdict: str = REFUTED):
        super().__init__(message)
        self.verdict = verdict


class NotBinaryModulus(ValueError):
    """Byte emission needs an output word of at least 8 bits over p=2."""


AnyModulus = Union[Modulus, CompositeModulus]
_BLOCK = 1 << 16  # words or states per block


def walk(step: Callable[[int], int], x: int, count: int) -> List[int]:
    """The count states after x: step(x), step(step(x)), ..."""
    states = []
    for _ in range(count):
        x = step(x)
        states.append(x)
    return states


def _check_seed(seed: int, m: AnyModulus) -> None:
    """A seed is a state: 0 <= seed < m.value."""
    if not 0 <= seed < m.value:
        raise ValueError(f"seed {_brief(seed)} outside 0..{_brief(m.value - 1)}")


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
        _check_seed(self.seed, self.modulus)
        if (self.out_fn is None) != (self.out_modulus is None):
            raise ValueError("out_fn and out_modulus come together")
        if self.out_modulus is not None and not isinstance(self.out_modulus, Modulus):
            raise ValueError("output modulus must be a prime power")
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
    uncertified generator is always an explicit caller decision.  The
    spec's own rules (GeneratorSpec) run before any certificate.
    """
    return _certified(GeneratorSpec(state_fn, modulus, seed, out_fn, out_modulus, unchecked),
                      cap)


def _certified(spec: GeneratorSpec, cap: Optional[int]) -> GeneratorSpec:
    """spec with its certificates; see make_generator."""
    if spec.unchecked:
        return spec
    certs = []
    for factor in spec.modulus.factors:
        cert = ergodicity_certificate(spec.state_fn, factor.p, cap=cap)
        if cert.verdict != PROVEN:
            raise NotCertified(
                f"state map is {cert.verdict} at p={factor.p}"
                " (pass unchecked=True to accept it anyway)", cert.verdict)
        certs.append(cert)
    if spec.out_fn is not None:
        ok, witness = bijective_mod(spec.out_fn, spec.out_modulus, cap)
        if not ok:
            raise NotCertified(
                f"output map collides on {witness} mod {spec.out_modulus}", REFUTED)
    return replace(spec, certificates=tuple(certs))


class GeneratorState:
    """Single-owner iteration state for one GeneratorSpec."""

    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        self._maps = [compile_map(spec.state_fn, f) for f in spec.modulus.factors]
        self._parts = [spec.seed % f.value for f in spec.modulus.factors]
        self._output = lambda states: states
        if spec.out_fn is not None:
            out = compile_map(spec.out_fn, spec.out_modulus)
            size = spec.out_modulus.value
            self._output = lambda states: [out(x % size) for x in states]

    def _states(self, count: int) -> list:
        """The next count states, each CRT factor walked as one block."""
        runs = [walk(step, x, count) for step, x in zip(self._maps, self._parts)]
        self._parts = [run[-1] for run in runs if run] or self._parts
        return runs[0] if len(runs) == 1 else self.spec.modulus.combine(runs)

    def next(self) -> int:
        return self.take(1)[0]

    def take(self, count: int) -> list:
        return self._output(self._states(count))


def _output_modulus(spec: GeneratorSpec) -> AnyModulus:
    """The modulus of the spec's words: the output map's, or the state's."""
    return spec.out_modulus if spec.out_fn is not None else spec.modulus


def _word_bits(spec: GeneratorSpec) -> int:
    m, *others = _output_modulus(spec).factors
    if others or m.p != 2:
        raise NotBinaryModulus("byte emission needs a 2-power output modulus")
    if m.k < 8:
        raise NotBinaryModulus(f"output words have {m.k} bits, need at least 8")
    return m.k


def emit_blocks(spec: GeneratorSpec, count: int,
                state: Optional[GeneratorState] = None) -> Iterator[bytes]:
    """emit_bytes's bytes, one block of at most 2^16 words at a time."""
    bits = _word_bits(spec)
    width, mask = bits // 8, (1 << bits - bits % 8) - 1
    state = state if state is not None else GeneratorState(spec)
    for done in range(0, count, _BLOCK):
        words = state.take(min(_BLOCK, count - done))
        if bits % 8:  # only the low bytes of each word are emitted
            words = map(mask.__and__, words)
        yield words_to_bytes(words, width)


def emit_bytes(spec: GeneratorSpec, count: int, state: Optional[GeneratorState] = None) -> bytes:
    """count output words, each contributing its low floor(bits/8) bytes, little-endian."""
    return b"".join(emit_blocks(spec, count, state))


def full_period_census(spec: GeneratorSpec, cap: Optional[int] = None) -> dict:
    """Walk exactly modulus.value steps and count every output value.

    period is the step at which the state first returns to the seed, or
    None if it never does within one full modulus of steps.  uniform is
    True iff all observed output counts are equal and the whole output
    space was hit.
    """
    _require_cap(spec.modulus, cap)
    total = spec.modulus.value
    state = GeneratorState(spec)
    counts = Counter()
    period = None
    for done in range(0, total, _BLOCK):
        states = state._states(min(_BLOCK, total - done))
        if period is None and spec.seed in states:
            period = done + states.index(spec.seed) + 1
        counts.update(state._output(states))
    out_space = _output_modulus(spec).value
    uniform = len(counts) == out_space and len(set(counts.values())) == 1
    return {
        "period": period,
        "counts": dict(counts),
        "uniform": uniform,
        "expected_count": total // out_space,
    }


def spec_to_json(spec: GeneratorSpec) -> dict:
    if not isinstance(spec.state_fn, FnExpr):
        raise TypeError("only expression state maps serialize to JSON")
    blob: dict = {
        "state_fn": expr_to_json(spec.state_fn),
        "modulus": spec.modulus.to_json(),
        "seed": spec.seed,
    }
    if spec.out_fn is not None:
        blob["out_fn"] = expr_to_json(spec.out_fn)
        blob["out_modulus"] = spec.out_modulus.to_json()
    if spec.unchecked:
        blob["unchecked"] = True
    return blob


def spec_from_json(blob: dict, cap: Optional[int] = None) -> GeneratorSpec:
    """Rebuild a generator from its JSON form, re-certifying unless flagged.
    A missing or mistyped field, or a spec that breaks GeneratorSpec's
    rules, raises ValueError("malformed generator spec")."""
    try:
        out_fn = expr_from_json(blob["out_fn"]) if "out_fn" in blob else None
        out_modulus = modulus_from_json(blob["out_modulus"]) if "out_modulus" in blob else None
        state_fn, modulus, seed = (expr_from_json(blob["state_fn"]),
                                   modulus_from_json(blob["modulus"]), blob["seed"])
        unchecked = blob.get("unchecked", False)
        if type(seed) is not int:
            raise TypeError(f"seed {seed!r} is not an integer")
        if type(unchecked) is not bool:
            raise TypeError(f"unchecked {unchecked!r} is not a boolean")
    except (LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed generator spec: {type(exc).__name__}: {exc}") from None
    try:
        spec = GeneratorSpec(state_fn, modulus, seed, out_fn, out_modulus, unchecked)
    except ValueError as exc:
        raise ValueError(f"malformed generator spec: {exc}") from None
    return _certified(spec, cap)
