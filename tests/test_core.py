import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given

from cliffordkit import (PAPER_CHAINS, QC, Signature, center_basis, clifford,
                         conjugation, even_subalgebra_basis, grade,
                         grade_involution, pseudo_automorphism, reversion,
                         symmetry, tensor_algebra, volume_element)
from cliffordkit.classify import _central_square_keys
from cliffordkit.core import CliffordAlgebra, Multivector, grade_flips, grade_map
from cliffordkit.exactla import Echelon
from conftest import (check_record, complex_multivectors, multivector_pairs,
                      multivector_triples, small_signatures)
from test_ideals import REAL_TENSORS


def test_signature_validation():
    Signature(12, 0)
    with pytest.raises(ValueError):
        Signature(13, 0)
    with pytest.raises(ValueError):
        Signature(-1, 2)
    sig = clifford(1, 3).sig
    check_record(sig, p=1, q=3)
    # _make and _replace build through the same checks
    with pytest.raises(ValueError):
        Signature._make((20, 0))
    with pytest.raises(TypeError):
        sig._replace(q=1.5)
    assert repr(sig) == "Signature(p=1, q=3)"
    # ordered by (p, q), and found as a dict key by any equal signature
    assert (sorted([Signature(2, 0), Signature(0, 2), Signature(1, 0),
                    Signature(1, 1)])
            == [Signature(0, 2), Signature(1, 0), Signature(1, 1), Signature(2, 0)])
    assert {sig: "x"}[Signature(p=1, q=3)] == "x"


def test_signature_rejects_a_non_int_p():
    # p is checked as q is: a float, a bool or a Decimal is no component
    for p, q in [(1.0, 1), (True, 0), (Decimal(1), 2), (1, 1.0), (0, False)]:
        with pytest.raises(TypeError):
            Signature(p, q)


def test_generator_relations():
    for p, q in [(2, 0), (1, 1), (0, 2), (1, 3), (3, 2)]:
        alg = clifford(p, q)
        gens = alg.gens()
        for i, e in enumerate(gens):
            want = alg.one() if i < p else -alg.one()
            assert e * e == want
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                assert gens[i] * gens[j] == -(gens[j] * gens[i])


def test_keys_fields_and_mixed_operands_rejected():
    alg = clifford(1, 1)
    with pytest.raises(ValueError, match=r"^4 is not a basis key of Cl\(1,1\)$"):
        alg.blade(4)
    with pytest.raises(ValueError, match=r"^generator index 3 not in 1\.\.2$"):
        alg.gen(3)
    with pytest.raises(ValueError,
                       match="^imaginary unit requires a complexified algebra$"):
        alg.i()
    with pytest.raises(ValueError,
                       match=r"^algebra mismatch: Cl\(1,1\) vs Cl\(2,0\)$"):
        alg.one() + clifford(2, 0).one()
    with pytest.raises(ValueError, match="^field must be 'R' or 'C'$"):
        CliffordAlgebra(Signature(1, 1), "Q")


def test_blade_takes_only_int_keys():
    # 1.0 and True hash like the key 1, so the index lookup alone would let
    # them in as keys that str() and products refuse; -1 and dim lie
    # outside the basis
    for alg in (clifford(2, 0), clifford(2, 0, "C"),
                tensor_algebra([(1, 0), (0, 1)])):
        for key in (1.0, True, -1, alg.dim):
            with pytest.raises(ValueError,
                               match=r"^.* is not a basis key of "):
                alg.blade(key)
        assert str(alg.blade(1) * alg.blade(1)) == "1"


def test_cl20_basics():
    alg = clifford(2, 0)
    e1, e2 = alg.gens()
    assert e1 * e1 == alg.one()
    e12 = e1 * e2
    assert e12 * e12 == -alg.one()
    # equal elements hash equal, however they were built
    assert len({e12, -(e2 * e1), alg.blade(0b11, Fraction(2)) / 2}) == 1
    assert len({e1 + e2, e2 + e1, e1 - -e2}) == 1


def test_cl02_bivector_squares_to_minus_one():
    # forced by e1^2 = e2^2 = -1 and anticommutation
    alg = clifford(0, 2)
    e12 = alg.blade(0b11)
    assert e12 * e12 == -alg.one()


def test_quaternion_units_in_spacetime_algebra():
    # phi = e123 and psi = e124 in Cl(1,3) are quaternion units
    alg = clifford(1, 3)
    phi = alg.blade(0b0111)
    psi = alg.blade(0b1011)
    assert phi * phi == -alg.one()
    assert psi * psi == -alg.one()
    assert phi * psi == -(psi * phi)


@given(multivector_triples())
def test_associativity(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)


@given(multivector_pairs())
def test_distributivity(ab):
    a, b = ab
    c = a + b
    assert a * c + b * c == (a + b) * c


def test_involution_examples():
    alg = clifford(2, 0)
    e1, e2 = alg.gens()
    assert grade_involution(e1) == -e1
    e12 = e1 * e2
    assert reversion(e12) == -e12        # e2 e1 = -e1 e2
    x = alg.one() + e1 + e12
    assert conjugation(x) == alg.one() - e1 - e12


@given(multivector_pairs())
def test_reversion_antihomomorphism(ab):
    a, b = ab
    assert reversion(a * b) == reversion(b) * reversion(a)


@given(multivector_pairs())
def test_grade_involution_homomorphism(ab):
    a, b = ab
    assert grade_involution(a * b) == grade_involution(a) * grade_involution(b)


@given(multivector_pairs())
def test_conjugation_antihomomorphism(ab):
    a, b = ab
    assert conjugation(a * b) == conjugation(b) * conjugation(a)


def test_pseudo_automorphism_conjugates_coefficients():
    alg = clifford(1, 1, "C")
    x = alg.gen(1) * alg.i()
    assert pseudo_automorphism(x) == -x
    real = alg.blade(0b10, Fraction(3, 2))
    assert pseudo_automorphism(real) == real


def test_pseudo_automorphism_identity_on_real_algebra():
    alg = clifford(2, 1)
    x = alg.gen(1) + alg.blade(0b110, Fraction(-2, 3))
    assert pseudo_automorphism(x) is x


@given(complex_multivectors())
def test_pseudo_automorphism_involutive(a):
    assert pseudo_automorphism(pseudo_automorphism(a)) == a


@given(st_pairs := multivector_pairs(algebras=[clifford(1, 1, "C"),
                                               clifford(2, 0, "C")]))
def test_pseudo_automorphism_multiplicative(ab):
    a, b = ab
    bar = pseudo_automorphism
    assert bar(a * b) == bar(a) * bar(b)


def test_volume_and_center():
    # Cl(3,0): omega^2 = -1 and Z = {1, omega}
    alg = clifford(3, 0)
    w = volume_element(alg)
    assert w * w == -alg.one()
    zb = center_basis(alg)
    assert [x.c for x in zb] == [alg.one().c, w.c]

    # Cl(1,0): omega^2 = +1, Z spanned by {1, e1}
    alg = clifford(1, 0)
    w = volume_element(alg)
    assert w * w == alg.one()
    assert len(center_basis(alg)) == 2

    # Cl(2,0): trivial center
    alg = clifford(2, 0)
    assert len(center_basis(alg)) == 1


def test_center_matches_parity_of_n():
    for p, q in [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
                 (2, 2), (3, 2)]:
        alg = clifford(p, q)
        want = 1 if alg.n % 2 == 0 else 2
        assert len(center_basis(alg)) == want


def _reference_center_keys(alg):
    """The brute-force scan: every key against every generator."""
    return [k for k in alg.basis
            if all(alg.keys_commute(k, g) for g in alg.generator_keys())]


# the tensor algebras of PAPER_CHAINS, and tensors with odd factors, whose
# centers are larger than {1}
TENSORS = [tensor_algebra(fac) for entries in PAPER_CHAINS.values()
           for fac, _ring in entries]
TENSORS += [tensor_algebra([(1, 0), (2, 1)]),
            tensor_algebra([(1, 0), (0, 1), (0, 3)]),
            tensor_algebra([clifford(1, 1, "C"), (0, 3)])]


def test_center_matches_brute_force_scan():
    algs = [clifford(p, q, field) for field in "RC"
            for p, q in small_signatures(8)] + TENSORS
    for alg in algs:
        want = [alg.blade(k).c for k in _reference_center_keys(alg)]
        assert [z.c for z in center_basis(alg)] == want, alg


def _reference_generator_rows(alg):
    """Row t: the generators s with popcount(e_t & m(e_s)) + popcount(e_s &
    m(e_t)) odd, m = `sign_mask`, which is when e_s e_t = -e_t e_s."""
    n = alg.n
    masks = [alg.sign_mask(1 << t) for t in range(n)]
    return [sum(1 << s for s in range(n) if (masks[t] >> s ^ masks[s] >> t) & 1)
            for t in range(n)]


def test_generator_rows_match_sign_mask():
    # the closed forms of both classes against the sign masks, everywhere
    # up to the cap
    algs = [clifford(p, q, field) for field in "RC"
            for p, q in small_signatures(12)] + TENSORS
    assert len(algs) == 182 + len(TENSORS)
    for alg in algs:
        assert alg.generator_rows() == _reference_generator_rows(alg), alg


def test_basis_runs_cut_the_basis_into_rising_runs():
    # each run is a bit-set of keys; read in rising key order and laid end
    # to end they give `basis`, in both classes and everywhere to the cap
    algs = [clifford(p, q, field) for field in "RC"
            for p, q in small_signatures(12)] + TENSORS
    for alg in algs:
        got = []
        for run in alg.basis_runs():
            got += [k for k in range(alg.dim) if run >> k & 1]
        assert got == list(alg.basis), alg


def _reference_basis(alg):
    """The canonical order as each class built it by hand before
    `order_key`: (grade, mask) for a Clifford algebra, and for a tensor
    algebra the product of the factor bases, the first factor slowest."""
    if isinstance(alg, CliffordAlgebra):
        return sorted(range(alg.dim), key=lambda m: (grade(m), m))
    basis, off = [0], 0
    for f in alg.factors:
        basis = [k | m << off for k in basis for m in _reference_basis(f)]
        off += f.n
    return basis


def test_order_key_states_the_reference_order():
    # `basis` is the keys sorted by `order_key`; both must give the order
    # of the hand-built tables, on the whole basis and on any key subset
    rng = random.Random(39)
    algs = [clifford(p, q, field) for field in "RC"
            for p, q in small_signatures(12)] + TENSORS + REAL_TENSORS
    assert len(algs) == 182 + len(TENSORS) + len(REAL_TENSORS)
    for alg in algs:
        want = _reference_basis(alg)
        assert list(alg.basis) == want, alg
        assert [alg.index[k] for k in want] == list(range(alg.dim)), alg
        place = {k: i for i, k in enumerate(want)}
        for _ in range(4):
            keys = rng.sample(range(alg.dim), rng.randint(1, min(alg.dim, 64)))
            assert sorted(keys, key=alg.order_key) == sorted(keys, key=place.get), alg


def test_central_split_key_matches_brute_force_to_n12():
    # the old reading (a central non-scalar key that squares to +1, any key
    # over C) and the omega rule: only odd n has a non-scalar center, {1,
    # omega}, and omega^2 = +1 there iff p - q = 1 (mod 4)
    count = 0
    for field in "RC":
        for p, q in small_signatures(12):
            alg = clifford(p, q, field)
            want = next((k for k in _reference_center_keys(alg)[1:]
                         if field == "C" or alg.square_sign(k) == 1), None)
            omega = alg.n % 2 and (field == "C" or (p - q) % 4 == 1)
            assert want == (alg.volume_key if omega else None), alg
            keys = _central_square_keys(alg)
            assert (keys[1] if len(keys) > 1 else None) == want, alg
            count += 1
    assert count == 182


def test_omega_square_mod4_rule():
    # omega^2 = +1 iff p-q = 0,1 (mod 4), by direct computation
    for p in range(5):
        for q in range(5 - p):
            if p + q == 0:
                continue
            alg = clifford(p, q)
            w = volume_element(alg)
            want = alg.one() if (p - q) % 4 in (0, 1) else -alg.one()
            assert w * w == want, (p, q)


def test_omega_commutes_with_generators_iff_n_odd():
    for p, q in [(3, 0), (1, 2), (2, 1), (2, 0), (1, 1), (2, 2), (4, 1)]:
        alg = clifford(p, q)
        w = volume_element(alg)
        central = all(w * g == g * w for g in alg.gens())
        assert central == (alg.n % 2 == 1), (p, q)


def test_even_subalgebra_basis():
    assert even_subalgebra_basis((1, 1)) == [0b00, 0b11]
    assert len(even_subalgebra_basis((2, 4))) == 32
    # closure: products of even blades stay even
    alg = clifford(2, 2)
    evens = even_subalgebra_basis(alg)
    for a in evens:
        for b in evens:
            prod = alg.blade(a) * alg.blade(b)
            assert all(grade(k) % 2 == 0 for k in prod.c)


def test_qc_arithmetic():
    a = QC(1, 2)
    b = QC(Fraction(1, 2), -1)
    assert a * b == QC(Fraction(5, 2), 0)
    assert (a / b) * b == a
    assert pseudo_automorphism(clifford(0, 0, "C").blade(0, a)).c[0] == QC(1, -2)
    assert QC(3) == 3 and bool(QC(0, 0)) is False
    with pytest.raises(AttributeError, match="^QC is immutable$"):
        QC(1).re = 2


def test_complex_algebra_rejects_plain_real_mixup():
    alg = clifford(1, 0)
    with pytest.raises(TypeError):
        alg.blade(0, QC(1, 1))


@pytest.mark.parametrize("alg", [clifford(1, 2), clifford(1, 2, "C"),
                                 tensor_algebra([(1, 1), (0, 2)])],
                         ids=["real", "complex", "tensor"])
def test_only_exact_scalars_enter(alg):
    exact = QC if alg.field == "C" else Fraction
    x = alg.mv({alg.unit_key: 3, alg.basis[1]: 1})
    assert all(type(v) is exact for v in x.c.values())
    # int coefficients would reach the echelon, whose int / int gives floats
    ech = Echelon(alg.dim)
    ech.insert(x.columns())
    assert all(type(v) is exact for v in ech.rows[0])
    assert ech.rows[0][:2] == [1, Fraction(1, 3)]
    # bools are not scalars, as they are not signature components
    for bad in (0.5, 0.0, Decimal("0.5"), "1/2", True, False):
        with pytest.raises(TypeError):
            alg.scalar(bad)
        with pytest.raises(TypeError):
            alg.mv({alg.unit_key: bad})
        with pytest.raises(TypeError):
            x * bad


def test_qc_admits_only_exact_parts():
    third = Fraction(1, 3)
    assert QC(third, 2).re is third
    assert QC(third, 2).im == 2 and type(QC(third, 2).im) is Fraction
    for bad in (0.1, 0.5, 0.0, 1.0, Decimal("0.1"), "1/2", None, True, False):
        with pytest.raises(TypeError):
            QC(bad)
        with pytest.raises(TypeError):
            QC(1, bad)
        with pytest.raises(TypeError):
            QC(1) + bad
    assert QC(1) != True  # noqa: E712 - a bool is no scalar, not even 1
    q = QC(1, 2)
    for name in ("re", "im"):
        with pytest.raises(AttributeError, match="^QC is immutable$"):
            setattr(q, name, Fraction(3))
    assert (q.re, q.im) == (1, 2)


def test_qc_and_symmetries_refuse_deletion():
    # deleting a slot would leave an object that can no longer print or act
    q = QC(1, 2)
    for name in ("re", "im"):
        with pytest.raises(AttributeError, match="^QC is immutable$"):
            delattr(q, name)
    assert (str(q), q * q) == ("1+2i", QC(-3, 4))
    cpt = symmetry("CPT")
    for name in ("label", "flips"):
        with pytest.raises(AttributeError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(cpt, name)
    alg = clifford(1, 1, "C")
    x = alg.blade(0b01, QC(1, 2))
    assert repr(cpt).startswith("DiscreteSymmetry(label='CPT'")
    assert cpt(x) == alg.blade(0b01, QC(-1, 2))


@pytest.mark.parametrize("v", [QC(0, 1), QC(1, 0), QC(0, Fraction(-3, 2)),
                               QC(Fraction(5, 7), 0), QC(0, 0), QC(1, -2)],
                         ids=repr)
def test_negation_and_conjugation_of_zero_parts(v):
    # a zero part may be kept as it is, but every part stays a Fraction equal
    # to the one plain Fraction negation gives
    def parts(x):
        assert type(x) is QC and type(x.re) is type(x.im) is Fraction
        return x.re, x.im

    assert parts(-v) == (-v.re, -v.im)
    alg = clifford(2, 1, "C")
    for flips in ((0, 0, 0, 0), (1, 1, 1, 1), grade_flips(1, 1)):
        for key in alg.basis:
            out = grade_map(Multivector(alg, {key: v}), flips, bar=True).c
            want = ((-v.re, v.im) if flips[grade(key) & 3] else (v.re, -v.im))
            assert list(out) == [key] and parts(out[key]) == want


def test_clifford_rejects_non_integer_signatures():
    clifford(1, 0)  # a cached Cl(1,0) must not answer for 1.0
    for p, q in [(1.7, 0), (1.0, 0), (1, 2.0), ("1", 0), (True, 0), (1, False)]:
        with pytest.raises(TypeError):
            clifford(p, q)
        with pytest.raises(TypeError):
            clifford((p, q))
