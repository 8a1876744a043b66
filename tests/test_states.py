import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cliffordkit import (RingTag, StateRingTag, StateSum, additive_spin,
                         annihilate, clifford, conjugate, double,
                         enumerate_cone, fundamental_states, fuse,
                         fuse_detailed, mass, named_states, parse_state, state,
                         superposable)
from cliffordkit.core import Multivector
from cliffordkit.states import StateError, StateVector
from conftest import check_record

NU = named_states()["nu"]
NUBAR = named_states()["nubar"]
EMINUS = named_states()["e-"]
EPLUS = named_states()["e+"]
QS = named_states()["qs"]


def test_fusion_of_neutrino_pair_is_photon():
    res = fuse_detailed(NU, NUBAR)
    assert str(res.state.ring) == "R"
    assert (res.state.b, res.state.lepton) == (0, 0)
    assert res.spin_additive == 1
    assert res.label() == "|R,0,0,1⟩"
    # the (k,r) bookkeeping gives (1,1), whose own label sits on spin line 0:
    # both readings are exposed, the mismatch is flagged
    assert (res.state.k, res.state.r) == (1, 1)
    assert res.spin_vector == 0
    assert res.spin_rule_mismatch


def test_fusion_of_inert_pair():
    res = fuse_detailed(QS, QS)
    assert str(res.state.ring) == "R"
    assert res.spin_additive == 1
    assert res.spin_vector == 1  # aligned chirality: readings agree
    assert not res.spin_rule_mismatch


def test_fusion_with_vacuum_is_identity_on_quantum_numbers():
    vac = state("R", 0, 0, 0, 0)
    out = fuse(NU, vac)
    assert out == NU


def test_doubling():
    assert double(NU, "+") == EMINUS
    assert str(EMINUS) == "|C,0,1,1/2⟩"
    assert double(NU, "-") == EPLUS
    assert str(EPLUS) == "|C~,0,-1,1/2⟩"
    inert = double(QS, "+")
    assert str(inert.ring) == "C" and (inert.b, inert.lepton) == (0, 0)
    with pytest.raises(StateError):
        double(EMINUS, "+")
    with pytest.raises(StateError):
        double(NU, "x")


def test_annihilation_of_electron_positron():
    out = annihilate(EMINUS, EPLUS)
    assert out.total_multiplicity == 2
    ((sv, mult),) = list(out)
    assert mult == 2
    assert str(sv.ring) == "R" and (sv.b, sv.lepton) == (0, 0)
    assert sv.spin == 1  # e+ keeps the electron's chirality counts: (2,0)
    assert str(out) == "2|R,0,0,1⟩"


def test_annihilation_multiplicity_from_the_product_kernel(monkeypatch):
    # the multiplicity is the scalar (1 + e1)(1 - e1) of Cl(0,1), one product
    honest = Multivector.__mul__
    calls = []

    def counted(a, b):
        calls.append(b)
        return honest(a, b)

    monkeypatch.setattr(Multivector, "__mul__", counted)
    assert annihilate(EMINUS, EPLUS).total_multiplicity == 2
    assert len(calls) == 1
    # in Cl(1,0), where e1 squares to +1, the pair cancels to 0: rejected
    module = importlib.import_module("cliffordkit.states")
    monkeypatch.setattr(module, "clifford", lambda p, q: clifford(1, 0))
    with pytest.raises(StateError, match="do not cancel"):
        annihilate(EMINUS, EPLUS)


def test_annihilation_of_neutrino_pair_is_plain_fusion():
    out = annihilate(NU, NUBAR)
    assert out.total_multiplicity == 1
    assert additive_spin(NU, NUBAR) == 1


def test_annihilation_rejects_mismatched_pairs():
    with pytest.raises(StateError):
        annihilate(EMINUS, EMINUS)
    with pytest.raises(StateError):
        annihilate(NU, conjugate(double(NU, "+")))  # H vs C~
    with pytest.raises(StateError):
        annihilate(EMINUS, state("C~", 0, 1, 1, 0))  # sector not negated


def test_statistics():
    assert state("R", 0, 0, 1, 0).statistics == "fermion"
    assert state("R", 0, 0, 1, 1).statistics == "boson"
    f1 = state("H", 0, 1, 1, 0)
    f2 = state("H~", 0, -1, 0, 1)
    assert fuse(f1, f2).statistics == "boson"


def test_mass_formula():
    assert mass(state("R", 0, 0, 0, 0)) == Fraction(1, 4)
    assert mass(state("R", 0, 0, 1, 0)) == Fraction(1, 2)
    assert mass(state("R", 0, 0, 1, 1)) == 1
    assert mass(state("R", 0, 0, 1, 1), m_e=Fraction(3, 2)) == Fraction(3, 2)
    with pytest.raises(StateError):
        mass(NU, m_e=0)
    # only exact scalars enter the arithmetic: a float or bool m_e is rejected
    for bad in (lambda: mass(NU, 0.1), lambda: enumerate_cone(1, m_e=0.1),
                lambda: mass(NU, True), lambda: enumerate_cone(1, m_e=True)):
        with pytest.raises(TypeError):
            bad()


def test_sectors_and_superposition():
    assert EMINUS.sector == NU.sector  # both (0,1)
    assert superposable(EMINUS, NU)
    gamma = named_states()["gamma"]
    assert not superposable(gamma, EMINUS)  # sector and statistics differ
    assert superposable(NU, NU)


def test_fermion_boson_mixing_always_forbidden():
    fermion = state("R", 0, 0, 1, 0)
    boson = state("R", 0, 0, 2, 0)
    assert not superposable(fermion, boson)


def test_fundamental_states():
    fund = fundamental_states()
    assert str(fund["q_a"]) == "|H,0,1,1/2⟩"
    assert str(fund["qbar_a"]) == "|H~,0,-1,1/2⟩"
    assert fund["qbar_s"] is fund["q_s"]  # type II is self-conjugate
    assert fund["qbar_a"].lepton == -1 and fund["q_a"].lepton == 1
    assert all(v.spin == Fraction(1, 2) for v in fund.values())


def test_conjugate_swaps_chirality_and_charges():
    assert conjugate(NU) == NUBAR
    assert conjugate(conjugate(EMINUS)).label() == EMINUS.label()
    assert conjugate(QS).label() == QS.label()  # self-conjugate label


def test_parse_and_serialize():
    s = parse_state("|H~,0,-1,1/2>")
    assert s == NUBAR
    s = parse_state("|R,0,0,1⟩")
    assert s == named_states()["gamma"]
    s = parse_state("nu")
    assert s == NU
    j = NUBAR.to_json()
    assert j == {"ring": "H", "conjugated": True, "b": 0, "lepton": -1,
                 "k": 0, "r": 1}
    import json
    assert parse_state(json.dumps(j)) == NUBAR
    with pytest.raises(StateError):
        parse_state("|H,0,1")
    with pytest.raises(StateError, match=r"^state label needs 4 fields: '\|H,0,1>'$"):
        parse_state("|H,0,1>")
    with pytest.raises(StateError, match=r"^cannot parse state 'xyz'$"):
        parse_state("xyz")
    with pytest.raises(StateError):
        parse_state("|H,0,1,-1/2>")
    # malformed JSON, an unknown ring, a non-integer charge: input errors too
    for text in ("{bad", '{"ring": "X", "b": 0, "lepton": 1, "k": 1, "r": 0}',
                 "|H,x,1,1/2>", "|Q,0,1,1/2>",
                 '{"a": ' + "[" * 50000 + "]" * 50000 + "}"):
        with pytest.raises(StateError):
            parse_state(text)
    # a key outside the six of `to_json` is refused, not dropped
    with pytest.raises(StateError, match=r"unknown state keys \['conjugate'\]"):
        parse_state('{"ring": "H", "conjugate": true, "b": 0, "lepton": -1, '
                    '"k": 0, "r": 1}')
    assert parse_state('{"ring": "H", "b": 0, "lepton": 1, "k": 1, "r": 0}') == NU
    # fields stop one digit short of Python's 4300-digit text limit, so all
    # that fuse, double and annihilate derive from two parsed states prints
    big = "9" * 4299
    s = parse_state(f"|C,{big},-{big},{big}/2>")
    sbar = parse_state(f"|C~,-{big},{big},{big}/2>")
    h = parse_state(json.dumps({"ring": "H", "b": int(big), "lepton": -int(big),
                                "k": int(big), "r": int(big)}))
    str(fuse_detailed(h, h).label()), str(double(h, "-")), str(annihilate(s, sbar))
    str(additive_spin(s, sbar)), json.dumps(fuse(h, h).to_json())
    for text in (f"|H,{big}9,0,1/2>", f"|H,0,-{big}9,1/2>", f"|H~,0,0,{big}9/2>",
                 json.dumps({"ring": "H", "b": 0, "lepton": 0, "k": 0,
                             "r": int(big + "9")})):
        with pytest.raises(StateError, match="fewer than 4300 digits"):
            parse_state(text)


@pytest.mark.parametrize("text, missing", [
    ('{"ring": "H", "b": 0, "lepton": 1, "k": 1}', "['r']"),
    ('{"b": 0, "lepton": 1, "k": 1, "r": 0}', "['ring']"),
    ('{"ring": "H"}', "['b', 'k', 'lepton', 'r']"),
    ("{}", "['b', 'k', 'lepton', 'r', 'ring']"),
], ids=["no-r", "no-ring", "ring-only", "empty"])
def test_json_state_names_missing_keys(text, missing):
    # an absent required key is named, not read as a bad value
    with pytest.raises(StateError) as ei:
        parse_state(text)
    assert str(ei.value) == f"missing state keys {missing}"


def test_ring_tag_parsing():
    assert str(StateRingTag.parse("H~")) == "H~"
    assert StateRingTag.parse("R~") == StateRingTag("R")  # normalized
    # a doubled ring describes an algebra, never a state
    for doubled in ("C(+)C", "H+H", "R⊕R"):
        with pytest.raises(ValueError, match="unknown ring base"):
            StateRingTag.parse(doubled)
    with pytest.raises(ValueError, match="unknown ring base 'X'"):
        StateRingTag.parse("X")
    check_record(StateRingTag.parse("H~"), base="H", conjugated=True)
    assert StateRingTag("C") == StateRingTag(base="C", conjugated=False)
    assert StateRingTag("R", conjugated=True).conjugated is False
    with pytest.raises(ValueError, match="unknown ring base 'X'"):
        StateRingTag("X")
    with pytest.raises(ValueError, match="unknown ring base 'X'"):
        StateRingTag._make(("X", True))
    with pytest.raises(ValueError, match="must be a bool"):
        StateRingTag("C", 1)


def test_state_checks_run_on_every_built_state():
    check_record(NU, ring=StateRingTag("H"), b=0, lepton=1, k=1, r=0)
    check_record(NU.sector, b=0, lepton=1)
    check_record(fuse_detailed(NU, NUBAR), state=fuse(NU, NUBAR),
                 spin_additive=Fraction(1))
    for bad in (lambda: state("H", 0, 1, -1, 0), lambda: NU._replace(k=-1),
                lambda: StateVector._make((StateRingTag("H"), 0, 1, 1, -1))):
        with pytest.raises(StateError, match="factor counts must be non-negative"):
            bad()
    # charges and counts are integers (bools too are out), the ring a state tag
    for bad in (lambda: state("H", Fraction(1, 2), 1, 1, 0),
                lambda: state("H", 0.5, 1, 1, 0), lambda: state("R", 0, 0, True, 0),
                lambda: NU._replace(lepton=1.0),
                lambda: parse_state('{"ring": "H", "conjugated": false, "b": 0.5, '
                                    '"lepton": 1, "k": 1, "r": 0}')):
        with pytest.raises(StateError, match="must be integers"):
            bad()
    for bad in (lambda: StateVector(RingTag.H, 0, 1, 1, 0),
                lambda: NU._replace(ring="H")):
        with pytest.raises(StateError, match="must be a StateRingTag"):
            bad()
    # a doubled label fails at parse
    for bad in (lambda: state("H(+)H", 0, 1, 1, 0),
                lambda: parse_state("|C(+)C,0,1,1/2>")):
        with pytest.raises(ValueError, match="unknown ring base"):
            bad()
    # double and fuse build their states through the same checks: a state
    # that skipped them (as tuple.__new__ does) fails in the next one built
    negative = tuple.__new__(StateVector, (StateRingTag("H"), 0, 1, -1, 0))
    for bad in (lambda: double(negative, "+"), lambda: double(negative, "-"),
                lambda: fuse(negative, NUBAR)):
        with pytest.raises(StateError, match="factor counts must be non-negative"):
            bad()
    algebra_tag = tuple.__new__(StateVector, (RingTag.H, 0, 1, 1, 0))
    with pytest.raises(TypeError, match="composes StateRingTags"):
        fuse(algebra_tag, NUBAR)


def test_state_sum_accumulates():
    s = StateSum().add(NU).add(NU).add(NUBAR)
    assert s.total_multiplicity == 3
    assert s.terms[NU] == 2


RINGS = [StateRingTag("R"), StateRingTag("C"), StateRingTag("C", True),
         StateRingTag("H"), StateRingTag("H", True)]


@st.composite
def states(draw):
    return state(draw(st.sampled_from(RINGS)), draw(st.integers(-3, 3)),
                 draw(st.integers(-3, 3)), draw(st.integers(0, 4)),
                 draw(st.integers(0, 4)))


@given(states())
def test_annihilate_multiplicity_rule(s):
    # multiplicity 2 exactly when the ring is a doubled (complex) one
    out = annihilate(s, conjugate(s))
    assert out.total_multiplicity == (2 if s.ring.base == "C" else 1)
    ((sv, _),) = list(out)
    assert (sv.b, sv.lepton) == (0, 0)


@given(states(), states())
def test_fuse_conserves_charges_and_parity(s1, s2):
    out = fuse(s1, s2)
    assert out.b == s1.b + s2.b
    assert out.lepton == s1.lepton + s2.lepton
    assert out.m == s1.m + s2.m
    assert out.sector == s1.sector + s2.sector
    parity = {"fermion": 1, "boson": 0}
    assert parity[out.statistics] == (parity[s1.statistics]
                                      + parity[s2.statistics]) % 2


def test_random_fusion_chains_conserve_quantum_numbers():
    rng = random.Random(20).choice
    rnd = random.Random(7)
    for _ in range(200):
        chain = [state(rng(RINGS), rnd.randint(-2, 2), rnd.randint(-2, 2),
                       rnd.randint(0, 3), rnd.randint(0, 3))
                 for _ in range(rnd.randint(2, 5))]
        total = chain[0]
        for s in chain[1:]:
            total = fuse(total, s)
        assert total.b == sum(s.b for s in chain)
        assert total.lepton == sum(s.lepton for s in chain)
        assert total.m == sum(s.m for s in chain)
