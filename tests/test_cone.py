from fractions import Fraction

import pytest

from cliffordkit import (ReprLabel, degree, enumerate_cone, state,
                         sym_dimension_oracle)
from conftest import check_record


def test_degree_examples():
    assert degree(1, 0) == 2
    assert degree(0, 0) == 1
    assert degree(2, 2) == 9 == sym_dimension_oracle(2, 2)


def test_oracle_examples():
    assert sym_dimension_oracle(1, 1) == 4
    assert sym_dimension_oracle(3, 0) == 4
    assert sym_dimension_oracle(0, 0) == 1


def test_oracle_matches_formula_small():
    # the full k+r <= 8 comparison is acceptance criterion 8
    for k in range(5):
        for r in range(5 - k):
            assert sym_dimension_oracle(k, r) == degree(k, r)


def test_oracle_cap():
    with pytest.raises(ValueError):
        sym_dimension_oracle(5, 4)


def test_cone_base():
    rows = enumerate_cone(1)
    labels = {(r.label.k, r.label.r) for r in rows}
    assert labels == {(0, 0), (1, 0), (0, 1)}
    check_record(rows[1], label=ReprLabel(0, 1), spin=Fraction(1, 2),
                 statistics="fermion", degree=2, mass=Fraction(1, 2))
    with pytest.raises(ValueError, match="^max_m must be non-negative$"):
        enumerate_cone(-1)


def test_cone_spin_lines():
    rows = enumerate_cone(2)
    line0 = [(r.label.k, r.label.r) for r in rows if r.spin == 0]
    assert (1, 1) in line0
    for r in rows:
        if r.statistics == "fermion":
            assert (r.label.k + r.label.r) % 2 == 1


def test_cone_symmetry_and_degree():
    rows = enumerate_cone(4)
    labels = {(r.label.k, r.label.r): r for r in rows}
    for (k, r), row in labels.items():
        assert (r, k) in labels
        assert labels[(r, k)].degree == row.degree == degree(k, r)


def test_mass_increases_along_spin_line():
    rows = enumerate_cone(6)
    by_line = {}
    for r in rows:
        key = (r.spin, min(r.label.k, r.label.r))
        by_line.setdefault(r.spin, {}).setdefault(key[1], set()).add(r.mass)
    for per_min in by_line.values():
        # the mirrored labels (k,r)/(r,k) share one mass per min(k,r) ...
        assert all(len(ms) == 1 for ms in per_min.values())
        # ... strictly increasing in min(k,r) along the line
        masses = [ms.pop() for _, ms in sorted(per_min.items())]
        assert all(a < b for a, b in zip(masses, masses[1:]))


def test_label_fields():
    lab = ReprLabel(3, 1)
    assert lab.l == Fraction(3, 2)
    assert lab.ldot == Fraction(1, 2)
    assert lab.spin == 1
    assert str(lab) == "(3/2,1/2)"
    # a label reads (k, r) exactly as a state with the same counts does
    for k, r in [(3, 1), (1, 3), (2, 0), (0, 0), (2, 5)]:
        lab, sv = ReprLabel(k, r), state("H", 0, 1, k, r)
        for name in ("m", "l", "ldot", "spin", "statistics"):
            assert getattr(lab, name) == getattr(sv, name), (k, r, name)


def test_labels_are_non_negative_integers():
    lab = ReprLabel(2, 1)
    check_record(lab, k=2, r=1)
    assert str(lab) == "(1,1/2)"
    builds = [ReprLabel, degree, lambda k, r: ReprLabel._make((k, r)),
              lambda k, r: lab._replace(k=k, r=r)]
    for k, r in [(1.5, 0), (True, 0), (0, False), ("1", 0), (Fraction(1), 0)]:
        for build in builds:
            with pytest.raises(TypeError):
                build(k, r)
    for k, r in [(-1, 0), (0, -2)]:
        for build in builds + [sym_dimension_oracle]:
            with pytest.raises(ValueError):
                build(k, r)
