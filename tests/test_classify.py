import pytest

from cliffordkit import (RingTag, classify, classify_complex, clifford,
                         division_ring_of, division_ring_oracle,
                         max_commuting_square_set, omega_square_sign,
                         primitive_idempotent, tensor_algebra)
from cliffordkit.classify import _central_square_keys
from conftest import check_record, ring_and_heads, small_signatures


def test_table_examples():
    at = classify((0, 2))
    assert at.ring is RingTag.H and at.matrix_rank == 1 and at.simple
    at = classify((1, 1))
    assert at.ring is RingTag.R and at.matrix_rank == 2 and at.simple
    assert str(at) == "R(2)"
    at = classify((4, 1))
    assert at.ring is RingTag.C and at.matrix_rank == 4 and at.simple
    at = classify((1, 0))
    assert at.ring is RingTag.RR and not at.simple
    at = classify((0, 3))
    assert at.ring is RingTag.HH and at.matrix_rank == 1
    at = classify((3, 0))
    assert at.ring is RingTag.C and at.matrix_rank == 2
    check_record(classify((4, 1)), mod8_class=3, ring=RingTag.C,
                 matrix_rank=4, simple=True)
    check_record(classify_complex(5), n=5, matrix_rank=4, simple=False)


def test_dimension_identity():
    for p, q in small_signatures(8):
        at = classify((p, q))
        assert (1 << (p + q)) == at.matrix_rank ** 2 * at.ring.dim_r
        assert at.simple == ((p - q) % 8 not in (1, 5))


def test_mod8_periodicity():
    for p, q in small_signatures(4):
        base = classify((p, q))
        shifted = classify((p + 8, q))
        assert shifted.ring is base.ring
        assert shifted.matrix_rank == 16 * base.matrix_rank


def test_classify_depends_only_on_p_minus_q_mod8():
    rings = {}
    for p, q in small_signatures(8):
        rings.setdefault((p - q) % 8, set()).add(classify((p, q)).ring)
    assert all(len(v) == 1 for v in rings.values())


def test_oracle_examples():
    assert division_ring_oracle((0, 2)) is RingTag.H
    assert division_ring_oracle((2, 0)) is RingTag.R
    assert division_ring_oracle((4, 1)) is RingTag.C
    assert division_ring_oracle((1, 0)) is RingTag.RR
    assert division_ring_oracle((0, 3)) is RingTag.HH


def test_oracle_matches_classify_small():
    # the full p+q <= 8 sweep is acceptance criterion 1
    for p, q in small_signatures(5):
        assert division_ring_oracle((p, q)) is classify((p, q)).ring


def test_division_ring_of_matches_classify():
    for p, q in small_signatures(12):
        assert division_ring_of(clifford(p, q)) is classify((p, q)).ring


def test_division_ring_is_read_in_the_algebra_of_f():
    # Cl(3,3) is R(8) and Cl(2,4) is H(4): the ring is f's, and
    # division_ring_of takes no idempotent of another algebra beside its own
    assert division_ring_of(clifford(3, 3)) is RingTag.R
    assert ring_and_heads(primitive_idempotent((2, 4)))[0] is RingTag.H
    with pytest.raises(TypeError):
        division_ring_of(clifford(3, 3), primitive_idempotent((2, 4)))


def test_summands_are_the_central_plus_square_keys():
    # R^4 = Cl(1,0)(x)Cl(1,0) and C^4 have four central +1-square keys, more
    # summands than a tag names; C(+)C = Cl(0,1)(x)Cl(0,1) and
    # C(2)(+)C(2) = Cl(3,0)(x)Cl(1,0) have two
    c10 = clifford(1, 0, "C")
    for factors in ([(1, 0), (1, 0)], [c10, c10]):
        with pytest.raises(ValueError, match="4 simple summands"):
            division_ring_of(tensor_algebra(factors))
    for factors in ([(0, 1), (0, 1)], [(3, 0), (1, 0)]):
        assert division_ring_of(tensor_algebra(factors)) is RingTag.CC
    # a Clifford algebra has one summand, or two exactly when it is not simple
    count = 0
    for field in "RC":
        for p, q in small_signatures(12):
            alg = clifford(p, q, field)
            simple = (classify((p, q)) if field == "R"
                      else classify_complex(p + q)).simple
            assert len(_central_square_keys(alg)) == (1 if simple else 2), alg
            count += 1
    assert count == 182


def test_omega_square_sign():
    assert omega_square_sign((2, 0)) == -1
    assert omega_square_sign((1, 3)) == -1
    assert omega_square_sign((2, 2)) == 1
    assert omega_square_sign((0, 4)) == 1
    with pytest.raises(ValueError):
        omega_square_sign((3, 0))


def test_classify_complex():
    assert str(classify_complex(4)) == "C(4)"
    assert classify_complex(4).simple
    assert str(classify_complex(5)) == "C(4)(+)C(4)"
    assert not classify_complex(5).simple
    assert classify_complex(2).matrix_rank == 2


def test_complexified_oracle_matches_classify_complex():
    # over C every key is a candidate (i-phased when it squares to -1), and an
    # i-phased central element splits the algebra
    for p, q in small_signatures(8):
        n = p + q
        alg = clifford(p, q, "C")
        assert max_commuting_square_set(alg)[0] == (n + 1) // 2, (p, q)
        want = RingTag.C if classify_complex(n).simple else RingTag.CC
        assert division_ring_of(alg) is want, (p, q)
