from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cliffordkit import (ALL_SYMMETRIES, clifford, composition_table,
                         conjugation, complexify, group_structure,
                         pseudo_automorphism, symmetry)
from cliffordkit.automorphisms import LABELS, DiscreteSymmetry
from cliffordkit.core import QC, QC_I, Multivector, grade_flips
from cliffordkit.factorize import tensor_algebra
from conftest import (Budget, check_record, complex_multivectors,
                      multivectors)

C2 = complexify((2, 0))
C4 = complexify((1, 3))


def test_pt_is_clifford_conjugation():
    pt = symmetry("PT")
    a = C2.gen(1) + C2.blade(0b11, Fraction(2, 3)) * C2.i()
    assert pt(a) == conjugation(a)


def test_c_is_identity_on_real_elements():
    c = symmetry("C")
    alg = clifford(1, 3)
    a = alg.gen(2) + alg.blade(0b1111)
    assert c(a) == a


@given(complex_multivectors())
def test_cpt_is_involutive(a):
    cpt = symmetry("CPT")
    assert cpt(cpt(a)) == a


def test_composition_examples():
    tab = composition_table(C2)
    assert tab[("P", "P")] == "Id"
    assert tab[("C", "PT")] == "CPT"
    assert tab[("T", "P")] == "PT"
    assert tab[("CT", "CP")] == "PT"


def test_group_is_elementary_abelian_of_order_8():
    for alg in (C2, C4):
        tab = composition_table(alg)
        labels = set(LABELS)
        assert set(tab.values()) == labels            # closure
        for a in LABELS:
            assert tab[(a, a)] == "Id"                # exponent 2
            for b in LABELS:
                assert tab[(a, b)] == tab[(b, a)]     # abelian
        gs = group_structure(alg)
        assert gs.order == 8 and gs.elementary_abelian
        assert gs.distinct_maps == 8
        assert str(gs) == "Z2 x Z2 x Z2"
    # the table is a field, but no argument of repr
    check_record(gs, order=8, abelian=True, exponent=2, distinct_maps=8,
                 table=gs.table)
    assert repr(gs) == ("GroupStructure(order=8, abelian=True, exponent=2, "
                        "distinct_maps=8)")


def test_maps_collapse_on_real_algebra():
    gs = group_structure(clifford(1, 3))
    assert gs.distinct_maps == 4  # bar is the identity over R


def test_eight_maps_pairwise_distinct_on_c2():
    # a single distinguishing element witnesses all 28 inequalities
    a = (C2.one() + C2.gen(1) + C2.gen(2) * C2.i()
         + C2.blade(0b11, Fraction(1, 2)))
    images = [s(a) for s in ALL_SYMMETRIES]
    for i in range(8):
        for j in range(i + 1, 8):
            assert images[i] != images[j], (LABELS[i], LABELS[j])


@given(complex_multivectors(algebras=[C2]), complex_multivectors(algebras=[C2]))
def test_automorphism_character(a, b):
    for s in ALL_SYMMETRIES:
        if s.tilde:  # reversion reverses products
            assert s(a * b) == s(b) * s(a)
        else:
            assert s(a * b) == s(a) * s(b)
        assert s(a + b) == s(a) + s(b)


@given(complex_multivectors(algebras=[C2, C4]))
def test_bar_commutes_with_star_and_tilde(a):
    from cliffordkit import grade_involution, reversion
    bar = pseudo_automorphism
    assert bar(grade_involution(a)) == grade_involution(bar(a))
    assert bar(reversion(a)) == reversion(bar(a))


def test_symmetry_from_label():
    a = C2.gen(1)
    assert symmetry("P")(a) == -a
    # a symmetry is the record of its label and components; its grade
    # flips are derived, once, and no constructor argument
    s = symmetry("CP")
    check_record(s, label="CP", star=True, tilde=False, bar=True)
    assert repr(s) == "DiscreteSymmetry(label='CP', star=True, tilde=False, bar=True)"
    assert s.flips == grade_flips(True, False)
    with pytest.raises(TypeError):
        DiscreteSymmetry("CP", True, False, True, flips=s.flips)
    with pytest.raises(ValueError, match=r"^unknown symmetry label 'Q'$"):
        symmetry("Q")


# (star, tilde, bar) of each label, written out independently of the program
LABEL_BITS = {
    "Id": (0, 0, 0), "P": (1, 0, 0), "T": (0, 1, 0), "PT": (1, 1, 0),
    "C": (0, 0, 1), "CP": (1, 0, 1), "CT": (0, 1, 1), "CPT": (1, 1, 1),
}


def _reference_map(label, a):
    """pseudo_automorphism . grade_involution . reversion, blade by blade,
    with each component switched on by its bit."""
    star, tilde, bar = LABEL_BITS[label]
    out = {}
    for k, v in a.c.items():
        g = k.bit_count()
        if tilde:
            v = v * (-1) ** (g * (g - 1) // 2)
        if star:
            v = v * (-1) ** g
        if bar and a.alg.field == "C":
            v = QC(v.re, -v.im)
        out[k] = v
    return out


SYMMETRY_ALGEBRAS = ([clifford(p, n - p) for n in range(7) for p in range(n + 1)]
                     + [clifford(p, n - p, "C") for n in range(7)
                        for p in range(n + 1)]
                     + [tensor_algebra([complexify((1, 1)), (0, 2)])])


@st.composite
def blade_sums(draw):
    """A sparse element of one of SYMMETRY_ALGEBRAS, keys drawn from its basis."""
    alg = draw(st.sampled_from(SYMMETRY_ALGEBRAS))
    parts = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    coeffs = {}
    for key in draw(st.lists(st.sampled_from(alg.basis), max_size=8)):
        value = draw(parts)
        if alg.field == "C":
            value = QC(value, draw(parts))
        coeffs[key] = value
    return alg.mv(coeffs)


@given(blade_sums())
def test_each_map_is_its_three_component_composite(a):
    for s in ALL_SYMMETRIES:
        image = s(a)
        assert image.alg is a.alg
        assert image.c == _reference_map(s.label, a), s.label
        assert all(type(v) is type(a.alg.scalar(0)) for v in image.c.values())


def _predicted_table_and_count(n, field):
    """The Z2^3 table from the label bits, each element named by the first
    label with the same per-grade signs (and bar, over C only)."""
    def pattern(bits):
        star, tilde, bar = bits
        signs = tuple((star * g + tilde * (g * (g - 1) // 2)) & 1
                      for g in range(n + 1))
        return signs, bar if field == "C" else 0

    first = {}
    for label in LABELS:
        first.setdefault(pattern(LABEL_BITS[label]), label)
    table = {}
    for a in LABELS:
        for b in LABELS:
            bits = tuple(x ^ y for x, y in zip(LABEL_BITS[a], LABEL_BITS[b]))
            table[(a, b)] = first[pattern(bits)]
    return table, len(first)


@pytest.mark.parametrize("field", ["R", "C"])
def test_table_and_distinct_maps_match_prediction_to_n6(field):
    for n in range(7):
        for p in range(n + 1):
            alg = clifford(p, n - p, field)
            want_table, want_distinct = _predicted_table_and_count(n, field)
            assert composition_table(alg) == want_table, alg
            gs = group_structure(alg)
            assert gs.table == want_table, alg
            assert gs.distinct_maps == want_distinct, alg
            assert (gs.order, gs.abelian, gs.exponent) == (8, True, 2), alg


# one complexified and one real algebra per n = 7..12, and both extremes at 12
PAST_N6 = [(3, 4, "C"), (7, 0, "R"), (4, 4, "C"), (1, 7, "R"), (9, 0, "C"),
           (5, 4, "R"), (2, 8, "C"), (10, 0, "R"), (7, 4, "C"), (0, 11, "R"),
           (6, 6, "C"), (0, 12, "R"), (12, 0, "R")]


def test_table_and_distinct_maps_match_prediction_past_n6():
    budget = Budget(3)  # about 1.2 s on a quiet 2-core host, 2 s loaded
    for p, q, field in PAST_N6:
        alg = clifford(p, q, field)
        want_table, want_distinct = _predicted_table_and_count(p + q, field)
        assert composition_table(alg) == want_table, alg
        gs = group_structure(alg)
        assert (gs.table, gs.distinct_maps) == (want_table, want_distinct), alg
        assert (gs.order, gs.abelian, gs.exponent) == (8, True, 2), alg
    budget.done("CPT tables past n = 6 (13 algebras)")


def test_non_involutive_map_matches_none(monkeypatch):
    honest = DiscreteSymmetry.__call__

    def doubled_odd_p(self, a):
        out = honest(self, a)
        if self.label != "P":
            return out
        return Multivector(a.alg, {k: 2 * v if k.bit_count() & 1 else v
                                   for k, v in out.c.items()})

    monkeypatch.setattr(DiscreteSymmetry, "__call__", doubled_odd_p)
    for probe in (composition_table, group_structure):
        with pytest.raises(RuntimeError, match="matches none"):
            probe(C2)


def _dense_probe(alg):
    """The dense reference: (table, distinct maps) from applying every map
    to every probe, then every map to those images, and naming each
    composite by equality of whole image lists."""
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
            table[(a.label, b.label)] = next(
                l for l, d in distinct if composite == d)
    return table, len(distinct)


@pytest.mark.parametrize("alg", SYMMETRY_ALGEBRAS, ids=repr)
def test_tableau_matches_dense_reference(alg):
    table, distinct = _dense_probe(alg)
    assert composition_table(alg) == table
    gs = group_structure(alg)
    assert (gs.table, gs.distinct_maps) == (table, distinct)


def test_each_map_applied_once_per_probe(monkeypatch):
    honest = DiscreteSymmetry.__call__
    calls = []
    monkeypatch.setattr(DiscreteSymmetry, "__call__",
                        lambda self, a: calls.append(1) or honest(self, a))
    for alg in (clifford(1, 3), C4, clifford(3, 3, "C")):
        calls.clear()
        composition_table(alg)
        probes = alg.dim * (2 if alg.field == "C" else 1)
        assert len(calls) == 8 * probes, alg


def test_map_off_its_key_is_rejected(monkeypatch):
    honest = DiscreteSymmetry.__call__

    def e1_to_e2(self, a):
        out = honest(self, a)
        if self.label != "T" or 0b01 not in out.c:
            return out
        return Multivector(a.alg, {0b10 if k == 0b01 else k: v
                                   for k, v in out.c.items()})

    monkeypatch.setattr(DiscreteSymmetry, "__call__", e1_to_e2)
    for probe in (composition_table, group_structure):
        with pytest.raises(RuntimeError, match="not a unit times e1"):
            probe(C2)


def test_map_neither_linear_nor_antilinear_is_rejected(monkeypatch):
    honest = DiscreteSymmetry.__call__

    def i_to_minus_one(self, a):
        # R-linear, 1 -> 1 but i -> -1: neither i*u nor conj(i)*u
        if self.label != "C":
            return honest(self, a)
        return Multivector(a.alg, {k: QC(v.re - v.im) for k, v in a.c.items()
                                   if v.re != v.im})

    monkeypatch.setattr(DiscreteSymmetry, "__call__", i_to_minus_one)
    for probe in (composition_table, group_structure):
        with pytest.raises(RuntimeError, match="neither C-linear nor antilinear"):
            probe(C2)


# the dihedral group of z -> i^k z and z -> i^k conj(z), under the eight labels
DIHEDRAL = {"Id": (0, 0), "P": (1, 0), "T": (2, 0), "PT": (3, 0),
            "C": (0, 1), "CP": (1, 1), "CT": (2, 1), "CPT": (3, 1)}


def _dihedral(label, z):
    k, conj = DIHEDRAL[label]
    return (QC(1), QC_I, QC(-1), QC(0, -1))[k] * (QC(z.re, -z.im) if conj else z)


def test_tableau_composes_units_and_conjugation(monkeypatch):
    # every map scales each blade by the same unit, with or without
    # conjugation: the composites need the Z4 carry and the negation of
    # an exponent under conjugation, which the eight genuine maps never do
    def dihedral_map(self, a):
        return Multivector(a.alg, {k: _dihedral(self.label, v)
                                   for k, v in a.c.items()})

    monkeypatch.setattr(DiscreteSymmetry, "__call__", dihedral_map)
    want = {}
    for a in LABELS:
        for b in LABELS:
            images = [_dihedral(a, _dihedral(b, z)) for z in (QC(1), QC_I)]
            want[(a, b)] = next(l for l in LABELS if images
                                == [_dihedral(l, z) for z in (QC(1), QC_I)])
    assert want[("C", "P")] == "CPT" and want[("P", "C")] == "CP"
    for alg in (C2, C4):
        assert composition_table(alg) == want
        gs = group_structure(alg)
        assert (gs.distinct_maps, gs.abelian, gs.exponent) == (8, False, 4)
        assert str(gs) == "group of order 8"


def _rewriting_p(rewrite):
    """P with each coefficient v of its honest image replaced by rewrite(v)."""
    honest = DiscreteSymmetry.__call__

    def rewritten(self, a):
        out = honest(self, a)
        if self.label != "P":
            return out
        return Multivector(a.alg, {k: rewrite(v) for k, v in out.c.items()})
    return rewritten


@pytest.mark.parametrize("coeff", [QC(Fraction(1, 2), 0), QC(0, Fraction(1, 2)),
                                   QC(2), QC(1, 1)], ids=repr)
def test_non_unit_coefficient_matches_none(monkeypatch, coeff):
    monkeypatch.setattr(DiscreteSymmetry, "__call__",
                        _rewriting_p(lambda v: coeff * v))
    for probe in (composition_table, group_structure):
        with pytest.raises(RuntimeError, match="matches none"):
            probe(C2)


@pytest.mark.parametrize("real", [lambda x: x, int], ids=["Fraction", "int"])
def test_real_coefficient_in_complex_algebra_matches_none(monkeypatch, real):
    # +-e_A goes to the real +-1 in place of QC(+-1, 0): a unit in value,
    # but not a coefficient of a complexified algebra
    monkeypatch.setattr(DiscreteSymmetry, "__call__",
                        _rewriting_p(lambda v: real(v.re) if not v.im else v))
    for probe in (composition_table, group_structure):
        with pytest.raises(RuntimeError, match="matches none"):
            probe(C2)


@pytest.mark.parametrize("rewrite", [lambda v: 2 * v, lambda v: v / 2, QC],
                         ids=["twice", "half", "QC"])
def test_real_map_off_the_units_is_rejected(monkeypatch, rewrite):
    # e_A -> 2 e_A, e_A -> e_A / 2, and a complex-typed unit in a real algebra
    monkeypatch.setattr(DiscreteSymmetry, "__call__", _rewriting_p(rewrite))
    for probe in (composition_table, group_structure):
        with pytest.raises(RuntimeError, match="not a unit times 1"):
            probe(clifford(1, 3))
