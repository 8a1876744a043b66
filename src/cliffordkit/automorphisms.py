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
the eight maps to the probes once, then each map to those images, and names
every composite by exact equality with a distinct base image list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import QC_I, Multivector, grade_flips, grade_map

LABELS = ("Id", "P", "T", "PT", "C", "CP", "CT", "CPT")


@dataclass(frozen=True)
class DiscreteSymmetry:
    """One of the eight maps, decomposed into its commuting components."""

    label: str
    star: bool
    tilde: bool
    bar: bool
    flips: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "flips", grade_flips(self.star, self.tilde))

    def __call__(self, a: Multivector) -> Multivector:
        return grade_map(a, self.flips, self.bar)

    @property
    def antiautomorphism(self) -> bool:
        """True when the map reverses products (reversion occurs oddly)."""
        return self.tilde


def symmetry(label: str) -> DiscreteSymmetry:
    if label not in LABELS:
        raise ValueError(f"unknown symmetry label {label!r}")
    # a label spells its components: P is star, T is tilde, C is bar
    return DiscreteSymmetry(label, "P" in label, "T" in label, "C" in label)


ALL_SYMMETRIES = tuple(symmetry(l) for l in LABELS)


def apply(sym, a: Multivector) -> Multivector:
    if isinstance(sym, str):
        sym = symmetry(sym)
    return sym(a)


def _probe(alg):
    """(composition table, number of distinct maps), probed on an R-basis.

    Equality on an R-basis is equality of R-linear maps.  Each map is applied
    to the probes once; a composite a after b is a applied to b's images."""
    # 1 and i side by side, so that a mismatch shows within the low grades
    units = (1, QC_I) if alg.field == "C" else (1,)
    probes = [alg.blade(k, u) for k in alg.basis for u in units]
    images = [[s(x) for x in probes] for s in ALL_SYMMETRIES]
    distinct = []  # (label, images) of the first map with each image list
    for s, imgs in zip(ALL_SYMMETRIES, images):
        if all(imgs != d for _label, d in distinct):
            distinct.append((s.label, imgs))
    table = {}
    for a in ALL_SYMMETRIES:
        for b, imgs in zip(ALL_SYMMETRIES, images):
            composite = [a(y) for y in imgs]
            label = next((l for l, d in distinct if composite == d), None)
            if label is None:
                raise RuntimeError(f"composite {a.label} after {b.label} "
                                   f"matches none of the eight maps")
            table[(a.label, b.label)] = label
    return table, len(distinct)


def composition_table(alg) -> dict:
    """(a, b) -> label of a after b, identified by probing on an R-basis.

    Raises if some composite matches none of the eight maps, which cannot
    happen for genuine involutive components.
    """
    return _probe(alg)[0]


@dataclass
class GroupStructure:
    order: int
    abelian: bool
    exponent: int
    distinct_maps: int
    table: dict = field(repr=False, compare=False)

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
