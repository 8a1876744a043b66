"""The eight discrete symmetries of a complexified Clifford algebra.

Each symmetry is a composition of three commuting primitive maps: grade
involution (star), reversion (tilde), and the pseudo-automorphism (bar,
coefficient conjugation).  The label dictionary is fixed:

    Id            P = star        T = tilde       PT = tilde star
    C = bar       CP = bar star   CT = bar tilde  CPT = bar tilde star

Each map is one pass over the coefficients (`core.grade_map`).  On a purely
real algebra bar reduces to the identity, so only four maps are distinct
there; all eight separate on complexified algebras.  The composition table
is probed on a full R-basis, never asserted from labels: each call applies
the eight maps once to every probe e_A (and i*e_A over C) and reads from
the images a verified unit tableau per map, e_A -> i^k e_A with or without
conjugation.  Per probe it reads the image's one term, its coefficient's
type and the integer ratios of its parts (re, im), a dict key for i^k.  A
map is R-linear, so its tableau, checked on the R-basis of each span{e_A,
i*e_A}, is the map itself; composites are therefore exact when computed on
tableaux, and each is named by equality with a distinct base tableau.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import QC, QC_I, Multivector, grade_flips, grade_map

LABELS = ("Id", "P", "T", "PT", "C", "CP", "CT", "CPT")


class DiscreteSymmetry:
    """One of the eight maps, decomposed into its commuting components.

    Immutable, compared and hashed by (label, star, tilde, bar); `flips`,
    the grade signs of (star, tilde), is derived once per symmetry.  A
    slotted class rather than a NamedTuple, as `__call__` runs once per map
    and probe, and slots are the fastest fields to read."""

    __slots__ = ("label", "star", "tilde", "bar", "flips")

    def __init__(self, label, star, tilde, bar):
        for name, value in zip(self.__slots__, (label, star, tilde, bar,
                                                grade_flips(star, tilde))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return self.label, self.star, self.tilde, self.bar

    def __eq__(self, other):
        if type(other) is not DiscreteSymmetry:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return ("DiscreteSymmetry(label=%r, star=%r, tilde=%r, bar=%r)"
                % self._key())

    def __call__(self, a: Multivector) -> Multivector:
        return grade_map(a, self.flips, self.bar)


def symmetry(label: str) -> DiscreteSymmetry:
    if label not in LABELS:
        raise ValueError(f"unknown symmetry label {label!r}")
    # a label spells its components: P is star, T is tilde, C is bar
    return DiscreteSymmetry(label, "P" in label, "T" in label, "C" in label)


ALL_SYMMETRIES = tuple(symmetry(l) for l in LABELS)


# the units i^k by exponent k, keyed by the integer ratios of their parts
# (re, im); and tables from k = 0..3 to its low and high bit as a digit
_UNITS = {(1, 1, 0, 1): 0, (0, 1, 1, 1): 1, (-1, 1, 0, 1): 2, (0, 1, -1, 1): 3}
_LO, _HI = (bytes.maketrans(b"\0\1\2\3", bits) for bits in (b"0101", b"0011"))


def _exponent(alg, s, x, key):
    """k with s(x) = i^k e_A, for the probe x = e_A or i e_A of A = key: the
    image must be one term on A whose coefficient, of the algebra's own type
    (Fraction over R, QC over C), has integer parts (re, im) forming a unit."""
    img = s(x)
    v = img.c.get(key) if len(img.c) == 1 else None
    re, im = (v.re, v.im) if type(v) is QC else (v, 0)
    k = (_UNITS.get(re.as_integer_ratio() + im.as_integer_ratio())
         if type(v) is (QC if alg.field == "C" else Fraction) else None)
    if k is None:
        raise RuntimeError(f"{s.label} sends {x} to {img}, not a unit times "
                           f"{alg.key_name(key)}: it matches none of the eight maps")
    return k


def _tableau(alg, s, probes, iprobes):
    """(lo, hi, conj) bit-planes of s, from its images of e_A and (over C) i e_A:
    bit A of the planes says that s(e_A) = i^k e_A with k = lo + 2 hi, and
    (over C) that s conjugates, s(i e_A) = i^(k-1) e_A, not i^(k+1)."""
    ks = bytearray(_exponent(alg, s, x, key) for key, x in enumerate(probes))
    ds = bytearray()  # per key: 1 if s is C-linear there, 3 if antilinear
    for key, (x, k) in enumerate(zip(iprobes, ks)):
        ds.append((_exponent(alg, s, x, key) - k) & 3)
        if ds[-1] not in (1, 3):
            raise RuntimeError(f"{s.label} is neither C-linear nor antilinear on "
                               f"{alg.key_name(key)}: it matches none of the eight maps")
    # each plane in one step (last key first), not one 2^n-bit copy per key
    return tuple(int(b"0" + v[::-1].translate(t), 2)
                 for v, t in ((ks, _LO), (ks, _HI), (ds, _HI)))


def _compose(a, b):
    """The tableau of a after b: k = k_a + (-k_b if a conjugates else k_b)
    mod 4 per key, as bit-plane arithmetic."""
    a_lo, a_hi, a_conj = a
    b_lo, b_hi, b_conj = b
    b_hi ^= b_lo & a_conj  # -k flips the high bit of odd k
    return (a_lo ^ b_lo, a_hi ^ b_hi ^ (a_lo & b_lo), a_conj ^ b_conj)


def _probe(alg):
    """(composition table, number of distinct maps), probed on an R-basis.

    Each map is applied once to every probe e_A (and i e_A over C); its
    images must be unit multiples of e_A, read as a tableau.  Two R-linear
    maps that agree on an R-basis are equal, so the tableau is the map, and
    the composite of two tableaux is the tableau of the composite map."""
    one = alg.scalar(1)  # coerced once; the probe keys are every key, in turn
    probes = [Multivector(alg, {k: one}) for k in range(alg.dim)]
    iprobes = [Multivector(alg, {k: QC_I}) for k in range(alg.dim) if alg.field == "C"]
    tableaux = [_tableau(alg, s, probes, iprobes) for s in ALL_SYMMETRIES]
    first = {}  # tableau -> label of the first map with it
    for s, t in zip(ALL_SYMMETRIES, tableaux):
        first.setdefault(t, s.label)
    table = {}
    for a, ta in zip(ALL_SYMMETRIES, tableaux):
        for b, tb in zip(ALL_SYMMETRIES, tableaux):
            label = first.get(_compose(ta, tb))
            if label is None:
                raise RuntimeError(f"composite {a.label} after {b.label} "
                                   f"matches none of the eight maps")
            table[(a.label, b.label)] = label
    return table, len(first)


def composition_table(alg) -> dict:
    """(a, b) -> label of a after b, identified by probing on an R-basis.

    Raises if some composite matches none of the eight maps, which cannot
    happen for genuine involutive components.
    """
    return _probe(alg)[0]


class GroupStructure(NamedTuple):
    order: int
    abelian: bool
    exponent: int
    distinct_maps: int
    table: dict

    def __repr__(self):  # the table is a field, but left out
        return (f"GroupStructure(order={self.order!r}, "
                f"abelian={self.abelian!r}, exponent={self.exponent!r}, "
                f"distinct_maps={self.distinct_maps!r})")

    @property
    def elementary_abelian(self) -> bool:
        return self.abelian and self.exponent <= 2

    def __str__(self):
        if self.order == 8 and self.elementary_abelian:
            return "Z2 x Z2 x Z2"
        return f"group of order {self.order}"


def group_structure(alg) -> GroupStructure:
    """Computed (not asserted) group data of the eight maps on `alg`, with
    the composition table it was computed from."""
    table, distinct = _probe(alg)
    abelian = all(table[(a, b)] == table[(b, a)] for a in LABELS for b in LABELS)
    # 4 cannot happen for involutive components
    exponent = 2 if all(table[(s, s)] == "Id" for s in LABELS) else 4
    return GroupStructure(order=8, abelian=abelian, exponent=exponent,
                          distinct_maps=distinct, table=table)
