"""Division-ring tags and the K (x) K transition table.

Two tag flavors share this module.  `RingTag`, the classification-side
label, carries doubling: R, C, H and the semisimple doubles R(+)R, H(+)H,
C(+)C of an algebra.  `StateRingTag`, the state-calculus label, carries the
conjugation bar instead: R, C, C~, H, H~ (R is self-conjugate).  A doubled
ring describes an algebra, never a state, so a state tag has no doubled form.

`ring_transition` implements the eleven printed K (x) K rows plus their
conjugate-symmetric completion: bars flip under conjugation of both inputs,
opposite-orientation complex pairs contract to R, and quaternionic parity
adds mod 2.  The completion is a documented extrapolation; the printed rows
are kept verbatim in PRINTED_TRANSITIONS for oracle cross-checks.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import _checked_make


class RingTag(Enum):
    R = "R"
    C = "C"
    H = "H"
    RR = "R(+)R"
    HH = "H(+)H"
    CC = "C(+)C"

    def __str__(self):
        return self.value

    @property
    def base(self) -> "RingTag":
        """The tag named by this tag's first letter."""
        return RingTag(self.value[0])

    @property
    def doubled(self) -> bool:
        return self is not self.base

    @property
    def dim_r(self) -> int:
        """Real dimension of the tagged ring."""
        return {"R": 1, "C": 2, "H": 4}[self.value[0]] * (1 + self.doubled)

    @staticmethod
    def doubled_of(base: "RingTag") -> "RingTag":
        return RingTag(f"{base}(+){base}")


class StateRingTag(NamedTuple("StateRingTag", [("base", str),
                                                 ("conjugated", bool)])):
    """State-calculus ring label: base in {R, C, H} and a conjugation bar."""

    __slots__ = ()

    def __new__(cls, base, conjugated=False):
        if base not in ("R", "C", "H"):
            raise ValueError(f"unknown ring base {base!r}")
        if type(conjugated) is not bool:
            raise ValueError(f"ring conjugation must be a bool: {conjugated!r}")
        if base == "R":
            conjugated = False  # R is self-conjugate: normalize
        return super().__new__(cls, base, conjugated)

    _make = classmethod(_checked_make)

    def conjugate(self) -> "StateRingTag":
        if self.base == "R":
            return self
        return StateRingTag(self.base, not self.conjugated)

    def __str__(self):
        return self.base + ("~" if self.conjugated else "")

    @staticmethod
    def parse(text: str) -> "StateRingTag":
        t = text.strip()
        conj = False
        if t.endswith("~") or t.endswith("̄") or t.endswith("¯"):
            conj, t = True, t[:-1]
        t = {"ℝ": "R", "ℂ": "C", "ℍ": "H"}.get(t, t)
        return StateRingTag(t, conj)


R = StateRingTag("R")
C = StateRingTag("C")
CBAR = StateRingTag("C", conjugated=True)
H = StateRingTag("H")
HBAR = StateRingTag("H", conjugated=True)

# The eleven printed rows of the K (x) K transition table, in printed order.
PRINTED_TRANSITIONS = (
    (R, R, R),
    (R, H, H),
    (H, R, H),
    (H, H, R),
    (C, R, C),
    (R, C, C),
    (C, H, C),
    (H, C, C),
    (C, C, C),
    (C, CBAR, R),
    (H, HBAR, R),
)


def ring_transition(k1: StateRingTag, k2: StateRingTag) -> StateRingTag:
    """K (x) K composition of state ring tags.

    Rules: a complex factor wins and keeps its orientation; two complex
    factors keep the common orientation or, when the orientations are
    opposite, contract to R; without complex factors the quaternionic parity
    adds mod 2 and the surviving H inherits the product of bars.
    """
    if type(k1) is not StateRingTag or type(k2) is not StateRingTag:
        raise TypeError(f"ring_transition composes StateRingTags, not "
                        f"{k1!r} and {k2!r}")
    c1, c2 = k1.base == "C", k2.base == "C"
    if c1 and c2:
        if k1.conjugated == k2.conjugated:
            return StateRingTag("C", k1.conjugated)
        return R
    if c1:
        return StateRingTag("C", k1.conjugated)
    if c2:
        return StateRingTag("C", k2.conjugated)
    h_parity = (k1.base == "H") ^ (k2.base == "H")
    if not h_parity:
        return R
    return StateRingTag("H", k1.conjugated ^ k2.conjugated)
