import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest

from cliffordkit import clifford


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.monotonic()

    def done(self, label):
        dt = time.monotonic() - self.t0
        assert dt < self.limit, f"{label}: {dt:.1f}s exceeds {self.limit}s"
        print(f"ACCEPTANCE {label}: PASS ({dt:.1f}s)")


def small_signatures(max_n=4):
    return [(p, n - p) for n in range(max_n + 1) for p in range(n + 1)]


def ring_and_heads(f):
    """(RingTag, coset heads of Cl*f) of a given f, an `Idempotent` or its
    element, from one read-back (`ideals._coset_heads`) and `_ring_of`."""
    from cliffordkit.classify import _ring_of
    from cliffordkit.ideals import _coset_heads
    fe, heads, central = _coset_heads(f)
    return _ring_of(fe.alg, central), heads


def check_record(record, **fields):
    """`record` is rebuilt equal, with the same repr, from `fields` by
    keyword and by position (and, for a NamedTuple, by `_replace` and
    `_make`), and none of its fields can be set."""
    cls = type(record)
    rebuilds = [cls(**fields), cls(*fields.values())]
    if isinstance(record, tuple):
        rebuilds += [record._replace(**fields), cls._make(fields.values())]
    for rebuilt in rebuilds:
        assert rebuilt == record and repr(rebuilt) == repr(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])


@st.composite
def multivectors(draw, algebras=None, max_terms=4):
    """Random sparse multivector over a random small algebra."""
    if algebras is None:
        algebras = [clifford(p, q) for (p, q) in small_signatures(3)]
    alg = draw(st.sampled_from(algebras))
    coeffs = {}
    n_terms = draw(st.integers(0, max_terms))
    for _ in range(n_terms):
        mask = draw(st.integers(0, alg.dim - 1))
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 4))
        coeffs[mask] = coeffs.get(mask, 0) + Fraction(num, den)
    return alg.mv({k: alg.scalar(v) for k, v in coeffs.items()})


@st.composite
def multivector_pairs(draw, algebras=None, max_terms=4):
    if algebras is None:
        algebras = [clifford(p, q) for (p, q) in small_signatures(3)]
    alg = draw(st.sampled_from(algebras))
    a = draw(multivectors(algebras=[alg], max_terms=max_terms))
    b = draw(multivectors(algebras=[alg], max_terms=max_terms))
    return a, b


@st.composite
def multivector_triples(draw, algebras=None, max_terms=3):
    if algebras is None:
        algebras = [clifford(p, q) for (p, q) in small_signatures(3)]
    alg = draw(st.sampled_from(algebras))
    return tuple(draw(multivectors(algebras=[alg], max_terms=max_terms))
                 for _ in range(3))


@st.composite
def complex_multivectors(draw, algebras=None, max_terms=4):
    if algebras is None:
        algebras = [clifford(p, q, "C") for (p, q) in small_signatures(2)]
    alg = draw(st.sampled_from(algebras))
    real = draw(multivectors(algebras=[alg], max_terms=max_terms))
    imag = draw(multivectors(algebras=[alg], max_terms=max_terms))
    return real + imag * alg.i()
