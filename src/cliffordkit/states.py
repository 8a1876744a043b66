"""Symbolic calculus of physical state labels |K, b, l, s>.

A state carries a division-ring tag K (with conjugation bar), baryon and
lepton numbers, and its tensor bookkeeping (k undotted and r dotted
fundamental factors, so l = k/2, l-dot = r/2).  Spin is derived, not stored:
the vector-label spin is |k - r|/2, and fusion additionally reports the
additive reading s1 + s2 (the two disagree for opposite-chirality pairs such
as nu (x) nu-bar; both are exposed, nothing is reconciled here).

Operations: fuse (tensor product: rings compose through the K (x) K table,
charges add, factor counts add), double (complexification H -> C or R -> C;
the ominus variant conjugates the ring and negates the charges), annihilate
(conjugate pair contraction; complexified rings expand as K (+) iK and yield
multiplicity 2), plus sector/superposition predicates and the mass rule
m = m_e (l + 1/2)(l-dot + 1/2) for an exact m_e.  Every state, the doubled
and annihilated ones too, is built by the `StateVector` constructor (so are
`_make` and `_replace`), whose checks require a `StateRingTag` ring and
integer charges and factor counts, and reject negative factor counts.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from .core import _checked_make, _exact_part, clifford
from .rings import StateRingTag, ring_transition


class StateError(ValueError):
    pass


class Sector(NamedTuple):
    """Coherent-subspace label: the (baryon, lepton) charge pair."""

    b: int
    lepton: int

    def __add__(self, other):
        return Sector(self.b + other.b, self.lepton + other.lepton)

    def __str__(self):
        return f"({self.b},{self.lepton})"


class StateVector(NamedTuple("StateVector", [
        ("ring", StateRingTag), ("b", int), ("lepton", int), ("k", int),
        ("r", int)])):
    """|K, b, l, s> with the (k, r) tensor bookkeeping behind the spin label."""

    __slots__ = ()

    def __new__(cls, ring, b, lepton, k, r):
        if type(ring) is not StateRingTag:
            raise StateError(f"a state's ring must be a StateRingTag: {ring!r}")
        if not (type(b) is type(lepton) is type(k) is type(r) is int):
            raise StateError("b, lepton, k and r must be integers")
        if k < 0 or r < 0:
            raise StateError("factor counts must be non-negative")
        return super().__new__(cls, ring, b, lepton, k, r)

    _make = classmethod(_checked_make)

    @property
    def m(self) -> int:
        """Total count of fundamental factors."""
        return self.k + self.r

    @property
    def spin(self) -> Fraction:
        """The vector-label spin |l - l-dot| = |k - r|/2."""
        return Fraction(abs(self.k - self.r), 2)

    @property
    def l(self) -> Fraction:
        return Fraction(self.k, 2)

    @property
    def ldot(self) -> Fraction:
        return Fraction(self.r, 2)

    @property
    def statistics(self) -> str:
        return "fermion" if self.m % 2 else "boson"

    @property
    def sector(self) -> Sector:
        return Sector(self.b, self.lepton)

    def label(self, spin=None) -> str:
        s = self.spin if spin is None else Fraction(spin)
        return f"|{self.ring},{self.b},{self.lepton},{s}⟩"

    def to_json(self) -> dict:
        return {"ring": self.ring.base, "conjugated": self.ring.conjugated,
                "b": self.b, "lepton": self.lepton, "k": self.k, "r": self.r}

    def __str__(self):
        return self.label()


def state(ring, b, lepton, k, r) -> StateVector:
    if isinstance(ring, str):
        ring = StateRingTag.parse(ring)
    return StateVector(ring, b, lepton, k, r)


def conjugate(s: StateVector) -> StateVector:
    """Antistate: conjugate ring, negated charges, swapped chirality counts."""
    return StateVector(s.ring.conjugate(), -s.b, -s.lepton, s.r, s.k)


def fuse(s1: StateVector, s2: StateVector) -> StateVector:
    """Tensor product of states: |K1 (x) K2, b1+b2, l1+l2, ...>.

    Factor counts add component-wise; the result's own spin label is
    |k - r|/2, while the printed additive reading is `additive_spin`.
    """
    return StateVector(ring_transition(s1.ring, s2.ring),
                       s1.b + s2.b, s1.lepton + s2.lepton,
                       s1.k + s2.k, s1.r + s2.r)


def additive_spin(s1: StateVector, s2: StateVector) -> Fraction:
    return s1.spin + s2.spin


class FusionResult(NamedTuple):
    """A fused state together with both spin readings.

    The printed fusion rule adds the operand spins; the fused vector's own
    label carries |l - l-dot|.  They disagree exactly for opposite-chirality
    operands, and both numbers are reported rather than reconciled.
    """

    state: StateVector
    spin_additive: Fraction

    @property
    def spin_vector(self) -> Fraction:
        return self.state.spin

    @property
    def spin_rule_mismatch(self) -> bool:
        return self.spin_additive != self.state.spin

    def label(self) -> str:
        return self.state.label(spin=self.spin_additive)


def fuse_detailed(s1: StateVector, s2: StateVector) -> FusionResult:
    return FusionResult(fuse(s1, s2), additive_spin(s1, s2))


def double(s: StateVector, sign: str) -> StateVector:
    """Complexify a state's ring: K (+) iK ~ C.

    `sign` '+' keeps the quantum numbers of s; '-' yields the conjugated ring
    and negates b and l.  Spin and factor counts are unchanged.  Rejects
    already-complex rings.
    """
    sign = _normalize_sign(sign)
    if s.ring.base == "C":
        raise StateError("cannot double an already-complex ring")
    if sign == "+":
        return StateVector(StateRingTag("C"), s.b, s.lepton, s.k, s.r)
    return StateVector(StateRingTag("C", conjugated=True),
                       -s.b, -s.lepton, s.k, s.r)


def _normalize_sign(sign: str) -> str:
    if sign in ("+", "⊕", "plus", "p"):
        return "+"
    if sign in ("-", "⊖", "minus", "m"):
        return "-"
    raise StateError(f"doubling sign must be + or -, got {sign!r}")


class StateSum:
    """Formal integer combination of state vectors."""

    def __init__(self, terms=None):
        self.terms = {}
        for sv, mult in (terms or {}).items():
            if mult:
                self.terms[sv] = mult

    def add(self, sv: StateVector, mult: int = 1):
        new = dict(self.terms)
        new[sv] = new.get(sv, 0) + mult
        return StateSum(new)

    @property
    def total_multiplicity(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other):
        return isinstance(other, StateSum) and self.terms == other.terms

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda kv: str(kv[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for sv, mult in self:
            parts.append(str(sv) if mult == 1 else f"{mult}{sv}")
        return " + ".join(parts)


def annihilate(s: StateVector, sbar: StateVector) -> StateSum:
    """Contract a state with its conjugate.

    Requires conjugate rings and opposite charges.  Complexified rings expand
    as (K (+) iK) (x) (K (-) iK): the four cross terms carry coefficients
    1, -i, +i, +1, the imaginary pair cancels, and the fused state comes out
    with the multiplicity (1 + i)(1 - i) = 2.  Undoubled rings contract by plain fusion.
    """
    if sbar.ring != s.ring.conjugate():
        raise StateError(f"rings {s.ring} and {sbar.ring} are not conjugate")
    if (sbar.b, sbar.lepton) != (-s.b, -s.lepton):
        raise StateError("annihilation requires opposite (b, l) sectors")
    fused = fuse(s, sbar)
    if s.ring.base == "C":
        # (1 + i)(1 - i) by the product kernel, with i = e1 in Cl(0,1): the
        # cross terms cancel, the scalar left is the multiplicity, and the
        # base (H for active, R for inert doubling) fuses to R either way
        alg = clifford(0, 1)
        pair = (alg.one() + alg.gen(1)) * (alg.one() - alg.gen(1))
        mult = pair.c.get(alg.unit_key, 0)
        if pair.c.keys() != {alg.unit_key} or mult.denominator != 1 or mult < 1:
            raise StateError("complex cross terms of the pair do not cancel")
        fused = StateVector(StateRingTag("R"), fused.b, fused.lepton,
                            fused.k, fused.r)
        return StateSum({fused: mult.numerator})
    return StateSum({fused: 1})


def mass(s: StateVector, m_e=1) -> Fraction:
    """m = m_e (l + 1/2)(l-dot + 1/2), exactly."""
    m_e = _exact_part(m_e)
    if m_e <= 0:
        raise StateError("m_e must be positive")
    return m_e * (s.l + Fraction(1, 2)) * (s.ldot + Fraction(1, 2))


def superposable(s1: StateVector, s2: StateVector) -> bool:
    """Same coherent sector and same statistics parity."""
    return s1.sector == s2.sector and s1.statistics == s2.statistics


def fundamental_states() -> dict:
    """The four fundamental labels: active pair (type I) and inert (type II).

    The inert state is self-conjugate, so 'qbar_s' is the same label as 'q_s'.
    """
    qa = state("H", 0, 1, 1, 0)
    qa_bar = state("H~", 0, -1, 0, 1)
    qs = state("R", 0, 0, 1, 0)
    return {"q_a": qa, "qbar_a": qa_bar, "q_s": qs, "qbar_s": qs}


def named_states() -> dict:
    """CLI aliases bound to the printed labels.

    nu / nubar are the active fundamental pair; e- / e+ its doublings; gamma
    is the photon |R,0,0,1> (realized as (k,r) = (2,0) so its own vector
    label reads spin 1); qs the inert (sterile) state.
    """
    fund = fundamental_states()
    nu = fund["q_a"]
    out = {
        "nu": nu,
        "nubar": fund["qbar_a"],
        "qa": nu,
        "qabar": fund["qbar_a"],
        "qs": fund["q_s"],
        "e-": double(nu, "+"),
        "e+": double(nu, "-"),
        "gamma": state("R", 0, 0, 2, 0),
    }
    return out


def exact_fraction(text: str, what: str) -> Fraction:
    """`text` as an exact rational; a malformed or zero-denominator input,
    or one with more digits than Python turns back into text, is a
    StateError.  A decimal exponent past that digit limit is refused before
    `Fraction` raises 10 to it."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    try:
        exponent = text.lower().partition("e")[2]
        if limit and exponent and abs(int(exponent)) > limit:
            raise ValueError
        x = Fraction(text)
        str(x)  # a ValueError past the limit
        return x
    except (ValueError, ZeroDivisionError):
        raise StateError(f"{what} must be an exact rational: {text!r}") from None


def parse_state(text: str) -> StateVector:
    """Parse an alias, a |K,b,l,s> label, or the JSON object form (the keys
    of `to_json` only, `conjugated` optional); any malformed text, any other
    key and any missing key is a StateError.

    Label spins map to factor counts by chirality: unconjugated rings take
    (k, r) = (2s, 0), conjugated ones (0, 2s).  Every integer field has
    fewer digits than Python turns into text, so sums of two states print.
    """
    t = text.strip()
    aliases = named_states()
    if t in aliases:
        return aliases[t]
    try:
        if t.startswith("{"):
            import json
            d = json.loads(t)
            fields = ("b", "lepton", "k", "r")
            for fault, keys in (("unknown", d.keys() - {"ring", "conjugated", *fields}),
                                ("missing", {"ring", *fields} - d.keys())):
                if keys:
                    raise StateError(f"{fault} state keys {sorted(keys)}")
            sv = StateVector(StateRingTag(d["ring"], d.get("conjugated", False)),
                             *[d[name] for name in fields])
        elif t.startswith("|"):
            body = t[1:]
            for closer in ("⟩", ">"):
                if body.endswith(closer):
                    body = body[: -len(closer)]
                    break
            else:
                raise StateError(f"unterminated state label {text!r}")
            parts = [x.strip() for x in body.split(",")]
            if len(parts) != 4:
                raise StateError(f"state label needs 4 fields: {text!r}")
            ring = StateRingTag.parse(parts[0])
            b, lepton = int(parts[1]), int(parts[2])
            s = exact_fraction(parts[3], "spin")
            if s < 0 or (2 * s).denominator != 1:
                raise StateError(f"spin must be a non-negative half-integer: {parts[3]}")
            two_s = int(2 * s)
            k, r = ((0, two_s) if ring.conjugated else (two_s, 0))
            sv = StateVector(ring, b, lepton, k, r)
        else:
            raise StateError(f"cannot parse state {text!r}")
    except (ValueError, RecursionError) as e:
        # bad or too deeply nested JSON, an unknown ring, a non-integer field
        raise StateError(str(e)) from None
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and max(map(abs, sv[1:])) >= 10 ** (limit - 1):
        raise StateError(f"b, lepton, k and r must have fewer than {limit} digits")
    return sv
