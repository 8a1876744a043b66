from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cliffordkit import QC, clifford
from cliffordkit.exactla import Echelon, express
from conftest import complex_multivectors, multivectors, small_signatures


def F(x):
    return Fraction(x)


def test_rank_basic():
    vecs = [[F(1), F(2), F(3)],
            [F(2), F(4), F(6)],
            [F(0), F(1), F(1)]]
    ech = Echelon(3)
    for v in vecs:
        ech.insert(v)
    assert ech.rank == 2


def test_insert_and_contains():
    ech = Echelon(3)
    assert ech.insert([F(1), F(0), F(1)]) is not None
    assert ech.insert([F(2), F(0), F(2)]) is None
    assert not ech._reduce([F(-3), F(0), F(-3)])
    assert ech._reduce([F(0), F(1), F(0)]) == {1: F(1)}


def test_span_basis_on_multivectors():
    alg = clifford(1, 1)
    e1, e2 = alg.gens()
    ech = Echelon(alg.dim)
    basis = [mv for mv in (e1, e1 * 2, e2, e1 + e2)
             if ech.insert(mv.columns()) is not None]
    assert basis == [e1, e2]


def test_express():
    alg = clifford(2, 0)
    e1, e2 = alg.gens()
    target = e1 * 3 - e2 / 2
    co = express(target, [e1, e2])
    assert co == [F(3), Fraction(-1, 2)]
    assert express(alg.one(), [e1, e2]) is None


def test_express_rejects_dependent_basis():
    alg = clifford(2, 0)
    e1 = alg.gen(1)
    with pytest.raises(ValueError):
        express(e1, [e1, e1 * 2])


# ---------------------------------------------------------------------------
# Property tests against a dense Gauss-Jordan reference written here.

class DenseEchelon:
    """Reference span: dense rows, every entry reduced and normalized."""

    def __init__(self, width):
        self.width = width
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if c:
                for j in range(piv, self.width):
                    if row[j]:
                        vec[j] = vec[j] - c * row[j]
        return vec

    def insert(self, vec):
        vec = self.reduce(vec)
        for j in range(self.width):
            if vec[j]:
                inv = vec[j]
                vec = [x / inv for x in vec]
                at = 0
                while at < len(self.pivots) and self.pivots[at] < j:
                    at += 1
                self.rows.insert(at, vec)
                self.pivots.insert(at, j)
                return j
        return None

    def contains(self, vec):
        return not any(self.reduce(vec))


RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
SCALARS = {"R": RATIONALS, "C": st.builds(QC, RATIONALS, RATIONALS)}
ZERO = {"R": Fraction(0), "C": QC(0)}


@st.composite
def dense_vectors(draw, field, width, count):
    """`count` dense vectors: fully random or with at most two nonzeros, and
    some linear combinations of earlier ones, so that dependent rows occur."""
    scalar = SCALARS[field]
    out = []
    for _ in range(count):
        if out and draw(st.booleans()):
            u, v = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            a, b = draw(scalar), draw(scalar)
            out.append([a * x + b * y for x, y in zip(u, v)])
        elif draw(st.booleans()):
            out.append(draw(st.lists(scalar, min_size=width, max_size=width)))
        else:
            vec = [ZERO[field]] * width
            for j in draw(st.sets(st.integers(0, width - 1), max_size=2)):
                vec[j] = draw(scalar)
            out.append(vec)
    return out


@st.composite
def given_as(draw, vec):
    """`vec` as a dense list, or as a column dict in any key order, of its
    nonzeros or also spelling out its zeros."""
    form = draw(st.sampled_from(["list", "dict", "dict with zeros"]))
    if form == "list":
        return list(vec)
    items = [(j, x) for j, x in enumerate(vec) if x or form == "dict with zeros"]
    return dict(draw(st.permutations(items)))


@st.composite
def echelon_cases(draw):
    field = draw(st.sampled_from(["R", "C"]))
    width = draw(st.integers(1, 8))
    vecs = draw(dense_vectors(field, width, draw(st.integers(0, 8))))
    probes = draw(dense_vectors(field, width, 4))
    probes += [[a * x for x in v] for a, v in zip(draw(st.lists(SCALARS[field])), vecs)]
    return (width, [(v, draw(given_as(v))) for v in vecs],
            [(v, draw(given_as(v))) for v in probes])


@settings(max_examples=150, deadline=None)
@given(echelon_cases())
def test_echelon_matches_dense_reference(case):
    width, vecs, probes = case
    ech, ref = Echelon(width), DenseEchelon(width)
    for dense, vec in vecs:
        before = dict(vec) if isinstance(vec, dict) else list(vec)
        assert ech.insert(vec) == ref.insert(dense)
        assert vec == before  # the caller's vector is not touched
    assert ech.rank == len(ref.rows)
    assert ech.pivots == ref.pivots
    assert ech.rows == ref.rows
    assert [[type(x) for x in r] for r in ech.rows] == \
        [[type(x) for x in r] for r in ref.rows]
    for dense, vec in probes:
        assert (not ech._reduce(vec)) == ref.contains(dense)


def dense(x):
    """x's coefficients as a dense list in canonical basis order."""
    row = [ZERO[x.alg.field]] * x.alg.dim
    for col, v in x.columns().items():
        row[col] = v
    return row


def combination(alg, coeffs, basis):
    out = alg.zero()
    for c, b in zip(coeffs, basis):
        out = out + b * c
    return out


@st.composite
def express_cases(draw):
    field = draw(st.sampled_from(["R", "C"]))
    alg = clifford(*draw(st.sampled_from(small_signatures(3))), field)
    element = (complex_multivectors if field == "C" else multivectors)([alg])
    basis = draw(st.lists(element, max_size=4))
    if basis and draw(st.booleans()):
        coeffs = draw(st.lists(SCALARS[field], min_size=len(basis),
                               max_size=len(basis)))
        target = combination(alg, coeffs, basis)
    else:
        target = draw(element)
    return alg, basis, target


@settings(max_examples=100, deadline=None)
@given(express_cases())
def test_express_rebuilds_target(case):
    alg, basis, target = case
    ref = DenseEchelon(alg.dim)
    if not all(ref.insert(dense(b)) is not None for b in basis):
        with pytest.raises(ValueError):
            express(target, basis)
        return
    co = express(target, basis)
    if not ref.contains(dense(target)):
        assert co is None
        return
    exact = QC if alg.field == "C" else Fraction
    assert len(co) == len(basis)
    assert all(type(c) is exact for c in co)
    assert combination(alg, co, basis) == target
