"""Acceptance criteria, one test per criterion.

Everything here is exact (tolerance 0): table reproductions, witness
verifications, and byte-exact CLI goldens.  Each test prints a PASS line
(visible with -s or -rA) and enforces the stated runtime bound.
"""

import json
import pathlib
import random
from fractions import Fraction

from cliffordkit import (PAPER_CHAINS, RingTag, StateRingTag, classify,
                         classify_complex, clifford, complex_doubling_iso,
                         division_ring_of, division_ring_oracle,
                         even_subalgebra_iso, fuse, is_primitive,
                         karoubi_factorize, left_ideal_basis, named_states,
                         paper_idempotents, annihilate, ring_transition, state,
                         superposable, tensor_algebra, verify_tensor_iso)
from cliffordkit.automorphisms import ALL_SYMMETRIES, LABELS, composition_table
from cliffordkit.classify import _central_square_keys
from cliffordkit.cli import main
from cliffordkit.cone import degree, sym_dimension_oracle
from cliffordkit.ideals import (idempotent_factor_count, find_square_set,
                                max_commuting_square_set, primitive_idempotent,
                                radon_hurwitz)
from cliffordkit.rings import PRINTED_TRANSITIONS
from conftest import Budget, small_signatures

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_criterion_1_classification_sweep():
    budget = Budget(30)
    sigs = small_signatures(8)
    assert len(sigs) == 45
    for p, q in sigs:
        want = classify((p, q)).ring
        got = division_ring_oracle((p, q))
        assert got is want, (p, q, want, got)
        if (p - q) % 8 in (1, 5):
            assert got.doubled
    budget.done("1 (classification sweep, 45 algebras)")


def test_oracle_sweep_to_n12():
    budget = Budget(30)
    sigs = small_signatures(12)
    assert len(sigs) == 91
    for p, q in sigs:
        want = classify((p, q)).ring
        got = division_ring_oracle((p, q))
        assert got is want, (p, q, want, got)
    budget.done("oracle sweep, 91 algebras with p+q <= 12")


def test_criterion_2_paper_idempotents():
    budget = Budget(5)
    reg = paper_idempotents()
    for key, (p, q) in [("f20", (2, 0)), ("f11", (1, 1)), ("f02", (0, 2)),
                        ("f24", (2, 4))]:
        f = reg[key]
        assert f.element * f.element == f.element, key
        assert is_primitive(f), key
        k = idempotent_factor_count((p, q))
        assert len(f.factors) == k
        assert len(left_ideal_basis(f)) == 1 << (p + q - k), key
    budget.done("2 (printed idempotents certified primitive)")


def test_criterion_3_karoubi_verification():
    budget = Budget(60)
    for p, q in small_signatures(8):
        if (p + q) % 2 == 0:
            chain = karoubi_factorize((p, q))
            assert all((s.p, s.q) in {(2, 0), (1, 1), (0, 2)}
                       for s in chain.factors)
    for (p, q), entries in PAPER_CHAINS.items():
        for factors, _ring in entries:
            verify_tensor_iso((p, q), factors)
    assert len(PAPER_CHAINS[(4, 2)]) == 3
    assert len(PAPER_CHAINS[(3, 3)]) == 2
    budget.done("3 (Karoubi chains, incl. all printed alternatives)")


# Algebra-level realizations for the printed transition rows.  The bars are
# invisible at this level (the pseudo-automorphism is the identity on real
# algebras), so the two conjugate rows reuse the unbarred realization and add
# the doubling-expansion cancellation check (see criterion 6's annihilation).
_ROW_REALIZATIONS = {
    ("R", "R"): ([(1, 1), (2, 0)], (3, 1)),
    ("R", "H"): ([(1, 1), (0, 2)], (1, 3)),
    ("H", "R"): ([(0, 2), (2, 0)], (0, 4)),
    ("H", "H"): ([(0, 2), (0, 2)], (2, 2)),
    ("C", "R"): ([(0, 1), (2, 0)], (3, 0)),
    ("R", "C"): ([(1, 1), (0, 1)], (1, 2)),
    ("C", "H"): ([(0, 1), (0, 2)], (1, 2)),
    ("H", "C"): ([(0, 2), (0, 1)], (1, 2)),
    ("C", "C"): ([(0, 1), (0, 1)], None),  # C (+) C: no real Clifford target
}


def test_criterion_4_ring_transition_cross_validation():
    budget = Budget(10)
    assert len(PRINTED_TRANSITIONS) == 11
    for k1, k2, want in PRINTED_TRANSITIONS:
        assert ring_transition(k1, k2) == want
        factors, target = _ROW_REALIZATIONS[(k1.base, k2.base)]
        if target is not None:
            verify_tensor_iso(target, factors)
            assert classify(target).ring.base is RingTag(want.base)
        computed = division_ring_of(tensor_algebra(factors))
        if k1.conjugated or k2.conjugated:
            # conjugate rows: the doubling expansion (1 + i)(1 - i) cancels
            # the imaginary pair and contracts the underlying bases, which
            # the unbarred algebra-level product already realizes; the
            # kernel forms it with i = e1 in Cl(0,1), as `annihilate` does
            c01 = clifford(0, 1)
            pair = (c01.one() + c01.gen(1)) * (c01.one() - c01.gen(1))
            assert pair == c01.blade(c01.unit_key, 2)
            if k1.base == "C":
                # both provenances of the doubled ring contract to R
                for pair in ([(0, 2), (0, 2)], [(1, 1), (1, 1)]):
                    assert division_ring_of(tensor_algebra(pair)) is RingTag.R
            else:
                assert computed.base is RingTag(want.base)
        else:
            assert computed.base is RingTag(want.base), (str(k1), str(k2))
            if computed.doubled:
                # only the C (x) C row doubles, matching the printed
                # "C or C (+) C structure" for charged states
                assert (k1.base, k2.base) == ("C", "C")
    budget.done("4 (11 transition rows vs tensor-algebra oracle)")


def test_criterion_5_isomorphism_chain():
    budget = Budget(10)
    # even part of the conformal algebra is the de Sitter algebra
    w = even_subalgebra_iso((2, 4))
    assert (w.target.p, w.target.q) == (4, 1)
    # Cl(4,1) is the complexified space-time algebra, i.e. the Dirac algebra
    dw = complex_doubling_iso((4, 1))
    assert (dw.factor.p, dw.factor.q) == (1, 3)
    assert classify_complex(4).matrix_rank == 4  # C_4 acts on C^4
    at = classify((4, 1))
    assert at.ring is RingTag.C and at.matrix_rank == 4
    # Cl(3,0) ~ C_2 via its center {1, omega}, omega^2 = -1
    alg = clifford(3, 0)
    assert alg.square_sign(alg.volume_key) == -1
    dw = complex_doubling_iso((3, 0))
    assert (dw.factor.p, dw.factor.q) == (0, 2)
    assert classify_complex(2).matrix_rank == 2
    budget.done("5 (Cl+(2,4) ~ Cl(4,1) ~ C4; Cl(3,0) ~ C2)")


def _cli(*argv, capsys=None):
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_criterion_6_state_golden_cli_json():
    budget = Budget(10)
    for name, argv in [
        ("fuse_nu_nubar.json", ["fuse", "nu", "nubar"]),
        ("double_nu_plus.json", ["double", "nu", "+"]),
        ("double_nu_minus.json", ["double", "nu", "-"]),
        ("annihilate_e.json", ["annihilate", "e-", "e+"]),
    ]:
        code, out = _cli(*argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), name
    # and the printed contents are the paper's
    d = json.loads((GOLDEN / "fuse_nu_nubar.json").read_text())
    assert d["label"] == "|R,0,0,1⟩" and d["state"]["ring"] == "R"
    d = json.loads((GOLDEN / "double_nu_plus.json").read_text())
    assert d["label"] == "|C,0,1,1/2⟩"
    d = json.loads((GOLDEN / "double_nu_minus.json").read_text())
    assert d["label"] == "|C~,0,-1,1/2⟩"
    d = json.loads((GOLDEN / "annihilate_e.json").read_text())
    assert d["total_multiplicity"] == 2
    assert d["terms"][0]["label"] == "|R,0,0,1⟩"
    budget.done("6 (state-calculus goldens, byte-exact CLI JSON)")


def test_criterion_7_conservation_properties():
    budget = Budget(30)
    rng = random.Random(12345)
    rings = [StateRingTag("R"), StateRingTag("C"), StateRingTag("C", True),
             StateRingTag("H"), StateRingTag("H", True)]
    for _ in range(1000):
        chain = [state(rng.choice(rings), rng.randint(-3, 3),
                       rng.randint(-3, 3), rng.randint(0, 4),
                       rng.randint(0, 4))
                 for _ in range(rng.randint(2, 6))]
        total = chain[0]
        parity = chain[0].m % 2
        sector = chain[0].sector
        for s in chain[1:]:
            total = fuse(total, s)
            parity = (parity + s.m) % 2
            sector = sector + s.sector
        assert total.b == sum(s.b for s in chain)
        assert total.lepton == sum(s.lepton for s in chain)
        assert total.m % 2 == parity
        assert total.sector == sector
    # no coherent superposition of bosonic and fermionic states, ever
    for _ in range(200):
        f = state(rng.choice(rings), rng.randint(-2, 2), rng.randint(-2, 2),
                  rng.randint(0, 4), rng.randint(0, 4))
        b = state(rng.choice(rings), f.b, f.lepton,
                  f.k + 1, f.r)  # same sector, flipped parity
        assert not superposable(f, b)
    budget.done("7 (1000 random fusion chains conserve (b, l) and parity)")


def test_criterion_8_degree_oracle():
    budget = Budget(30)
    for k in range(9):
        for r in range(9 - k):
            assert sym_dimension_oracle(k, r) == degree(k, r) == (k + 1) * (r + 1)
    budget.done("8 (symmetrizer rank = (k+1)(r+1) for all k+r <= 8)")


def test_criterion_9_automorphism_group():
    budget = Budget(5)
    for alg in (clifford(2, 0, "C"), clifford(1, 3, "C")):
        table = composition_table(alg)
        assert set(table.values()) == set(LABELS)          # closed
        for a in LABELS:
            assert table[(a, a)] == "Id"                   # exponent 2
            for b in LABELS:
                assert table[(a, b)] == table[(b, a)]      # abelian
        # automorphism vs anti-automorphism character
        x = alg.gen(1) + alg.blade(alg.basis[-1], Fraction(1, 2)) * alg.i()
        y = alg.one() + alg.gen(alg.n) * 3
        for s in ALL_SYMMETRIES:
            if s.tilde:  # reversion reverses products
                assert s(x * y) == s(y) * s(x)
            else:
                assert s(x * y) == s(x) * s(y)
    budget.done("9 (eight maps: closed, abelian, exponent 2, order 8)")


def test_criterion_10_radon_hurwitz_regression():
    budget = Budget(60)
    for i in range(-16, 17):
        assert radon_hurwitz(i + 8) - radon_hurwitz(i) == 4
    for p, q in small_signatures(8):
        alg = clifford(p, q)
        k = idempotent_factor_count((p, q))
        # the table's k is exactly the brute-force maximum ...
        k_max, _ = max_commuting_square_set(alg)
        assert k == k_max, (p, q)
        # ... and the first maximal chain of the search has k factors
        assert len(find_square_set(alg)) == k, (p, q)
        f = primitive_idempotent((p, q))
        assert len(left_ideal_basis(f)) == 1 << (p + q - k)
        ring = division_ring_oracle((p, q))
        assert ring.base.dim_r in (1, 2, 4)
        if len(_central_square_keys(alg)) > 1:
            assert ring.doubled
    budget.done("10 (Radon-Hurwitz table reproduces every k, p+q <= 8)")
