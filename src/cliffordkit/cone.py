"""The cone of representation labels (l, l-dot) and its degree oracle.

A label is the factor-count pair (k, r) with l = k/2, l-dot = r/2.  The
closed-form degree is `degree(k, r)` = (k+1)(r+1); `sym_dimension_oracle`
recomputes it as the exact rank of the symmetrization projector on the full
2^(k+r)-dimensional spintensor space, with no reference to the formula.
Each row's mass is `states.mass`, which takes an exact m_e only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import _checked_make
from .exactla import Echelon
from .states import StateVector, mass

ORACLE_CAP = 8  # the projector space is 2^(k+r)-dimensional


def _check_label(k, r):
    if not (type(k) is type(r) is int):
        raise TypeError(f"labels are integers, not {k!r}, {r!r}")
    if k < 0 or r < 0:
        raise ValueError("labels are non-negative")


class ReprLabel(NamedTuple("ReprLabel", [("k", int), ("r", int)])):
    __slots__ = ()

    def __new__(cls, k, r):
        _check_label(k, r)
        return super().__new__(cls, k, r)

    _make = classmethod(_checked_make)

    # a label reads (k, r) through StateVector's own properties: one rule each
    m, l, ldot, spin, statistics = (
        StateVector.m, StateVector.l, StateVector.ldot, StateVector.spin,
        StateVector.statistics)

    def __str__(self):
        return f"({self.l},{self.ldot})"


def degree(k: int, r: int) -> int:
    """dim Sym_(k,r) = (k+1)(r+1)."""
    _check_label(k, r)
    return (k + 1) * (r + 1)


def _orbit(word, k, r):
    """Closure of an index word under the block transpositions of S_k x S_r."""
    swaps = [(i, i + 1) for i in range(k - 1)]
    swaps += [(k + i, k + i + 1) for i in range(r - 1)]
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for i, j in swaps:
            lw = list(w)
            lw[i], lw[j] = lw[j], lw[i]
            t = tuple(lw)
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def sym_dimension_oracle(k: int, r: int) -> int:
    """Exact rank of the (S_k x S_r)-symmetrizer on (C^2)^(x)(k+r).

    Brute force: apply the projector to every basis spintensor (each image is
    the uniform average over the permutation orbit of its index word) and
    row-reduce.  Capped at k + r <= 8.
    """
    _check_label(k, r)
    m = k + r
    if m > ORACLE_CAP:
        raise ValueError(f"oracle capped at k+r <= {ORACLE_CAP}")
    dim = 1 << m
    words = [tuple((w >> i) & 1 for i in range(m)) for w in range(dim)]
    pos = {w: i for i, w in enumerate(words)}
    ech = Echelon(dim)
    for w in words:
        orb = _orbit(w, k, r)
        coeff = Fraction(1, len(orb))
        ech.insert({pos[t]: coeff for t in orb})
    return ech.rank


class ConeRow(NamedTuple):
    label: ReprLabel
    spin: Fraction
    statistics: str
    degree: int
    mass: Fraction


def enumerate_cone(max_m: int, m_e=1) -> list:
    """All labels with k + r <= max_m, grouped by spin line.

    Rows are sorted by (spin line, total factor count, k); each (k, r) is
    emitted once with its unsigned spin line, degree, parity and mass.
    """
    if max_m < 0:
        raise ValueError("max_m must be non-negative")
    rows = []
    for m in range(max_m + 1):
        for k in range(m + 1):
            lab = ReprLabel(k, m - k)
            rows.append(ConeRow(lab, lab.spin, lab.statistics,
                                degree(lab.k, lab.r), mass(lab, m_e)))
    rows.sort(key=lambda row: (row.spin, row.label.m, row.label.k))
    return rows
