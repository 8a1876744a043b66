import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import event, example, given, settings

from cliffordkit import cli, factorize, ideals
from cliffordkit.cli import main
from cliffordkit.core import Multivector
from cliffordkit.factorize import IsoError
from cliffordkit.ideals import OracleFailure
from conftest import small_signatures

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def check_golden(capsys, name, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    want = (GOLDEN / name).read_text(encoding="utf-8")
    assert out == want, f"output drifted from golden {name}"


def test_fuse_golden(capsys):
    check_golden(capsys, "fuse_nu_nubar.json", "fuse", "nu", "nubar")


def test_fuse_accepts_labels(capsys):
    code, out = run(capsys, "fuse", "|H,0,1,1/2>", "|H~,0,-1,1/2>")
    assert code == 0
    assert out == (GOLDEN / "fuse_nu_nubar.json").read_text(encoding="utf-8")
    d = json.loads(out)
    assert d["label"] == "|R,0,0,1⟩"
    assert d["spin_additive"] == "1"
    assert d["spin_vector_label"] == "0" and d["spin_rule_mismatch"]


def test_double_goldens(capsys):
    check_golden(capsys, "double_nu_plus.json", "double", "nu", "+")
    check_golden(capsys, "double_nu_minus.json", "double", "nu", "-")


def test_annihilate_golden(capsys):
    check_golden(capsys, "annihilate_e.json", "annihilate", "e-", "e+")


def test_classify_golden(capsys):
    check_golden(capsys, "classify_1_1.json", "classify", "1", "1", "--oracle")


def test_spectrum_golden(capsys):
    check_golden(capsys, "spectrum_m2.json", "spectrum", "--max-m", "2")


def test_deterministic_output(capsys):
    _, first = run(capsys, "factorize", "4", "2")
    _, second = run(capsys, "factorize", "4", "2")
    assert first == second


def test_classify_rejects_cap(capsys):
    code, _ = run(capsys, "classify", "13", "0")
    assert code == 2


def test_state_parse_error(capsys):
    code, _ = run(capsys, "fuse", "nu", "|H,0,1")
    assert code == 2


def test_annihilate_precondition_error(capsys):
    assert main(["annihilate", "nu", "nu"]) == 2
    assert capsys.readouterr() == ("", "error: rings H and H are not conjugate\n")


def test_double_sign_error(capsys):
    assert main(["double", "nu", "x"]) == 2
    assert capsys.readouterr() == (
        "", "error: doubling sign must be + or -, got 'x'\n")


def test_iso_check_success_and_failure(capsys):
    code, out = run(capsys, "iso-check", "1", "3", "1,1", "0,2")
    assert code == 0
    assert json.loads(out)["verified"]
    code, out = run(capsys, "iso-check", "2", "0", "0,2")
    assert code == 3
    assert not json.loads(out)["verified"]


def test_idempotent_lists_printed_form(capsys):
    code, out = run(capsys, "idempotent", "2", "4")
    assert code == 0
    d = json.loads(out)
    assert d["factors"] == ["e1", "e23"]
    assert d["paper_form"]["factors"] == ["e15", "e26"]
    assert d["ideal_dimension"] == 16


def test_cpt_table(capsys):
    code, out = run(capsys, "cpt", "0", "2")
    assert code == 0
    d = json.loads(out)
    assert d["table"]["P.P"] == "Id"
    assert d["table"]["C.PT"] == "CPT"
    assert d["group"]["order"] == 8 and d["group"]["abelian"]


def test_factorize_odd_reports_split(capsys):
    code, out = run(capsys, "factorize", "3", "0")
    assert code == 0
    d = json.loads(out)
    assert d["odd"] and d["split"]["factor"] == {"p": 0, "q": 2}
    assert d["split"]["complexified"]


def test_table_format_runs(capsys):
    for argv in (["classify", "0", "2", "--format", "table"],
                 ["factorize", "1", "3", "--format", "table"],
                 ["cpt", "1", "1", "--format", "table"],
                 ["spectrum", "--max-m", "1", "--format", "table"],
                 ["fuse", "nu", "nubar", "--format", "table"]):
        code, out = run(capsys, *argv)
        assert code == 0 and out


def test_atlas(tmp_path, capsys):
    out_path = tmp_path / "atlas.json"
    code, _ = run(capsys, "atlas", "--max-n", "3", "--out", str(out_path))
    assert code == 0
    d = json.loads(out_path.read_text())
    assert d["count"] == 10
    assert all(e["oracle_agrees"] for e in d["signatures"])
    # deterministic: rewriting produces identical bytes
    first = out_path.read_bytes()
    run(capsys, "atlas", "--max-n", "3", "--out", str(out_path))
    assert out_path.read_bytes() == first


def test_atlas_reproduces_paper_tables(tmp_path, capsys):
    out_path = tmp_path / "atlas8.json"
    code, _ = run(capsys, "atlas", "--max-n", "8", "--out", str(out_path))
    assert code == 0
    d = json.loads(out_path.read_text())
    assert d["count"] == 45
    by_sig = {(e["p"], e["q"]): e for e in d["signatures"]}
    # three verified decompositions are printed for Cl(4,2)
    assert len(by_sig[(4, 2)]["factor_chains"]) == 3
    assert all(c["verified"] for c in by_sig[(4, 2)]["factor_chains"])
    # Cl(0,8) traces H (x) R (x) H (x) R -> R
    chain = by_sig[(0, 8)]["factor_chains"][0]
    assert chain["ring_trace"] == ["H", "R", "H", "R"]
    assert chain["ring"] == "R"


def test_classify_alias(capsys):
    code, out = run(capsys, "classify", "0", "2")
    assert code == 0
    assert json.loads(out)["alias"] == "quaternion algebra"


def test_atlas_io_failure(capsys):
    code, _ = run(capsys, "atlas", "--max-n", "2", "--out",
                  "/nonexistent-dir/atlas.json")
    assert code == 4


def test_atlas_cap(capsys):
    code, _ = run(capsys, "atlas", "--max-n", "13", "--out", "-")
    assert code == 2


def test_atlas_to_max_n_12(capsys):
    code, out = run(capsys, "atlas", "--max-n", "12", "--out", "-")
    assert code == 0
    d = json.loads(out)
    assert d["count"] == len(d["signatures"]) == 91
    assert all(e["oracle_agrees"] for e in d["signatures"])
    code, out = run(capsys, "atlas", "--max-n", "10", "--out", "-")
    assert code == 0
    assert [e for e in d["signatures"] if e["n"] <= 10] == \
        json.loads(out)["signatures"]


def test_atlas_entry_verifies_f_once(monkeypatch):
    # every relation of an entry is checked on keys from one search: no f,
    # witness image or lambda+- is built, f*f = f is not multiplied out and
    # no f is read back
    calls = {name: 0 for name in ("find_square_set", "_coset_heads",
                                  "_is_idempotent", "_factor_product")}
    for module in (ideals, factorize):
        for name in calls:
            if hasattr(module, name):
                def counted(*args, name=name, honest=getattr(module, name)):
                    calls[name] += 1
                    return honest(*args)
                monkeypatch.setattr(module, name, counted)
    for p, q in [(1, 3), (3, 0), (2, 4), (0, 1), (5, 0)]:
        calls.update(dict.fromkeys(calls, 0))
        cli._atlas_entry(p, q)
        assert calls == {"find_square_set": 1, "_coset_heads": 0,
                         "_is_idempotent": 0, "_factor_product": 0}, (p, q)


def test_atlas_and_is_primitive_form_no_products(monkeypatch):
    # every f*f = f check, the lambda+- split's included, runs on integer
    # numerators; no atlas entry and no primitivity test multiplies
    fs = [ideals.primitive_idempotent((p, q), field)
          for field in "RC" for p, q in small_signatures(8)]
    honest = Multivector.__mul__
    calls = []

    def counted(a, b):
        calls.append(b)
        return honest(a, b)

    monkeypatch.setattr(Multivector, "__mul__", counted)
    for p, q in small_signatures(12):
        cli._atlas_entry(p, q)
    assert calls == []
    assert all(ideals.is_primitive(f) for f in fs)
    assert calls == []


# SHA-256 of the stdout of `cliffordkit atlas --max-n N --out -`, recorded
# while f*Cl*f and Cl*f were still spanned by product-and-echelon (N = 12:
# recorded while f was still built as the product of its (1 + T_i)/2)
ATLAS_DIGESTS = {
    8: "659f3b9260e0bb8c3bf99e4917722e68d89e262f2a056de753e1359e553314c5",
    10: "5ae1a5b937804901e50a37cb84925e23e978dea1bddf6ee33bce9eda029b128b",
    12: "6d8837bd0c7bb296027e82813c2642ae4e6f739d656fcc9e237f39803b98ef69",
}


@pytest.mark.parametrize("max_n", sorted(ATLAS_DIGESTS))
def test_atlas_stdout_digest(capsys, max_n):
    code, out = run(capsys, "atlas", "--max-n", str(max_n), "--out", "-")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ATLAS_DIGESTS[max_n]


# SHA-256 of the stdout of `cliffordkit cpt P Q`, recorded while `_tableau`
# still set its bit-planes one key at a time
CPT_DIGESTS = {
    (6, 6): "a091dbda12388c66f6b82bd51ba308281d99519e9b5e5a2d3b6542909be987c8",
    (0, 12): "3c5ba9fe906e3919643188185680c5ff5c03ac4dd978041ba14676fd819b37c4",
    (12, 0): "b2420a6c74d68726807394d03a4212d996ec74bbb55d1bed8b943be91cca2bfb",
    (3, 9): "b689323ff7e0905f94a06744a7314a796e8ae481f7fc9961e25702601969515a",
}


@pytest.mark.parametrize("p, q", sorted(CPT_DIGESTS))
def test_cpt_stdout_digest(capsys, p, q):
    code, out = run(capsys, "cpt", str(p), str(q))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CPT_DIGESTS[p, q]


# SHA-256 of the stdout of `cliffordkit classify P Q --oracle`, recorded
# while the oracle still walked every coset of the chain's span
CLASSIFY_ORACLE_DIGESTS = {
    (6, 6): "7c872eb890087db9557613cfa74934533899672e5b84682815c6c00ffe1f1bb3",
    (10, 1): "0a2a69bc8dc40dc95c8ec79f0119802056efef1a18ebfe670d29d25c45b2720c",
}


@pytest.mark.parametrize("p, q", sorted(CLASSIFY_ORACLE_DIGESTS))
def test_classify_oracle_stdout_digest(capsys, p, q):
    code, out = run(capsys, "classify", str(p), str(q), "--oracle")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        CLASSIFY_ORACLE_DIGESTS[p, q]


# SHA-256 of the stdout of `cliffordkit iso-check ...`, recorded while
# tensor-algebra blade keys were tuples of factor masks; the failures (both
# twists fail on squares, both twists odd) and the chains that verify on the
# right twist only were recorded while the witness images were checked as
# Multivectors with coefficients; "2 0 0,2", whose twists fail alike, was
# re-recorded when its reason stopped being printed twice
ISO_CHECK_DIGESTS = {
    ("3 3 2,0 2,0 1,1", "json"):
        "11d5ca5022acdba5822def4c2659876130a2b7aeca86e2f1e368d6017c319519",
    ("3 3 2,0 2,0 1,1", "table"):
        "260c1f2c92b4e3ccce378b9c15879b369460879bf63ff4647c4b7316bff31e58",
    ("4 4 1,1 2,0 2,0 1,1", "json"):
        "e1b9a419ff25c0edadff9ed4981c7f5d4557fcd4ea46e9985474e3b31ca2350c",
    ("4 4 1,1 2,0 2,0 1,1", "table"):
        "43c3cc7c4710ed0312477be4ec47b6ba2c7a1a17d683f16e39eb6a0813daffca",
    ("2 0 0,2", "json"):
        "98273e0605c37f987e8599f94d304e9551e6bbfdf2f899766330cf829811c945",
    ("2 0 0,2", "table"):
        "2f255fe80b96157635752d54eb41f2725b74ed7c12fd3470af36d3fae64603c9",
    ("3 0 1,0 1,0 1,0", "json"):
        "a5649adb91eec3b386895d3b0082b9b0e5e81e3ba05c43e11e223c104db1bb25",
    ("3 0 1,0 1,0 1,0", "table"):
        "02cdedf6e8921bbf41398f19236bd5d35a291aefd8b80903dccfc70ed8e6c57a",
    ("3 0 0,1 2,0", "json"):
        "412c8c3897666473e11c23d791072f816a770183826642fd709120fa659c79bc",
    ("3 0 0,1 2,0", "table"):
        "8fe5fccbedbc42ced4d36c5818db93ff4a2357d03c1e005afc7b431f0d7870c2",
    ("4 0 0,2 2,0", "json"):
        "8e9428addf6c3ffc9215ca93f677d51c54c92e96ab678d2eed1312f752dd5c2c",
    ("4 0 0,2 2,0", "table"):
        "d89212e5d33e317557aa1d4c9b879e15db5bd16f76aca3c7a10b7e923d8ac1fb",
}
ISO_CHECK_FAILURES = {"2 0 0,2", "3 0 1,0 1,0 1,0"}  # exit 3, the rest 0


@pytest.mark.parametrize("args, fmt", sorted(ISO_CHECK_DIGESTS))
def test_iso_check_stdout_digest(capsys, args, fmt):
    code, out = run(capsys, "iso-check", *args.split(), "--format", fmt)
    assert code == (3 if args in ISO_CHECK_FAILURES else 0)
    want = ISO_CHECK_DIGESTS[args, fmt]
    assert hashlib.sha256(out.encode()).hexdigest() == want


# SHA-256 of the stdout of `cliffordkit factorize P Q [--format F]` on odd
# signatures, recorded while lambda+- were still built by Fraction scaling
# and checked by a Multivector product
FACTORIZE_DIGESTS = {
    ("1 0", "json"):
        "5ee25072b1254d6bf3f878c784569fadf1ffd64dfaa459854828f02993f5fc2a",
    ("0 1", "json"):
        "9c3b62d985dd756cb5d29c2ce185ce15000c726116210fa8dbd3a9e0614f6cfa",
    ("3 0", "json"):
        "4c572d5cef2d3b6f61610e5314cd65746abd7371b62bc418a77498ed420f3cb4",
    ("4 1", "json"):
        "6f4eefe7abf702ec6147bbd64e4cda55becb4e35e3a14901f3c5ffd330c1665c",
    ("0 11", "json"):
        "82f8496abd6e40b6906b24def0858287689ac645a1350fa0649143e499cbefbd",
    ("3 0", "table"):
        "ba27aea32fc23113e0b13c9985033d6b4163402addb0fc35f481088b1c2c7238",
}


@pytest.mark.parametrize("sig, fmt", sorted(FACTORIZE_DIGESTS))
def test_factorize_stdout_digest(capsys, sig, fmt):
    code, out = run(capsys, "factorize", *sig.split(), "--format", fmt)
    assert code == 0
    want = FACTORIZE_DIGESTS[sig, fmt]
    assert hashlib.sha256(out.encode()).hexdigest() == want


# SHA-256 of the stdout of `cliffordkit idempotent P Q [--format F]`,
# recorded while the search still stopped at the Radon-Hurwitz factor count
# (2 0 and 1 1: while `idempotent` still built every printed idempotent)
IDEMPOTENT_DIGESTS = {
    ("2 0", "json"):
        "2d73d881520f8d433bc0cc7b6df114428a156f97c14c21420ec094eecd9ee023",
    ("1 1", "json"):
        "d887d0a4e79c56f9d97aac5161f8e1f8d7939e5c320e03af7a91a1fe46ce6ee5",
    ("6 6", "json"):
        "ca86b618349d519bd321c0861d01f55099ec32260077564615bf29fb26c9c5ac",
    ("0 12", "json"):
        "3c51da0b5d244d47e308866d53bc9d2169567b1d4e1568c9036d54ee402e9447",
    ("12 0", "json"):
        "c1cc7fcc341b2ed82b6fe743c2a895ac63b4444305340d46a0d34e3bb0bc732e",
    ("4 1", "json"):
        "5d166857c19caf12064cc42bee648b8f75825696aa939596265eb6723255e786",
    ("0 2", "json"):
        "2e36f77334a315d725c05db9d9175e42fd03c2ad0cfbb1ec58155931c769abee",
    ("2 4", "json"):
        "0d12986a2cd52d0e375d0f3c6c423b65920d97cff11f9d568972703d959a03a7",
    ("6 6", "table"):
        "5ee4e8b84dec53e2e51f489ff70fa6647b7a40a99ffd8ffa5c0eb5d6661da3ab",
}


@pytest.mark.parametrize("sig, fmt", sorted(IDEMPOTENT_DIGESTS))
def test_idempotent_stdout_digest(capsys, sig, fmt):
    code, out = run(capsys, "idempotent", *sig.split(), "--format", fmt)
    assert code == 0
    want = IDEMPOTENT_DIGESTS[sig, fmt]
    assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize("max_m", ["201", "100000"])
def test_spectrum_cap(capsys, max_m):
    # rejected up front: --max-m 100000 would otherwise run for minutes
    assert main(["spectrum", "--max-m", max_m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spectrum capped at max-m 200\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as ei:
        main(["classify", "not-a-number", "0"])
    assert ei.value.code == 2


NINES = "9" * 4300  # the most digits Python turns into text by default
MISSPELT = ('{"ring": "H", "conjugate": true, "b": 0, "lepton": -1, '
            '"k": 0, "r": 1}')


def _failing(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("argv, broken, code", [
    (["fuse", '{"ring": "H"}', "nu"], None, 2),
    (["fuse", '{"ring": "H", "b": 0, "lepton": 1, "k": 1}', "nu"], None, 2),
    (["fuse", '{"ring": "H", "b": 0, "lepton": 1, "k": 1.5, "r": 0}', "nu"],
     None, 2),
    (["fuse", "|C(+)C,0,1,1/2>", "nu"], None, 2),
    (["spectrum", "--max-m", "2", "--electron-mass", "-3"], None, 2),
    (["spectrum", "--max-m", "-1"], None, 2),
    (["atlas", "--max-n", "-1", "--out", "-"], None, 2),
    (["spectrum", "--max-m", "2", "--electron-mass", "abc"], None, 2),
    (["spectrum", "--max-m", "1", "--electron-mass", "1e5000"], None, 2),
    (["fuse", "|H,0,1,1e5000>", "nu"], None, 2),
    (["spectrum", "--max-m", "1", "--electron-mass", "1e1000000000"], None, 2),
    # each field prints, but their sum (b) or the doubled spin (2s) would not
    (["fuse", f"|H,{NINES},1,1/2>", f"|H,{NINES},1,1/2>"], None, 2),
    (["fuse", f"|H,0,1,{NINES}>", "nu"], None, 2),
    (["fuse", '{"a": ' + "[" * 50000 + "]" * 50000 + "}", "nu"], None, 2),
    (["double", MISSPELT, "+"], None, 2),
    (["atlas", "--max-n", "1", "--out", "-", "--format", "table"], None, 2),
    (["classify", "2", "0", "--oracle"],
     ("classify", "division_ring_oracle", OracleFailure("ring dimension 3")), 3),
    (["idempotent", "2", "0"],
     ("ideals", "primitive_idempotent", OracleFailure("ring dimension 8")), 3),
    (["factorize", "2", "0"],
     ("factorize", "karoubi_factorize", IsoError("images do not anticommute")),
     3),
], ids=["json-missing-fields", "json-missing-r", "json-float-count",
        "doubled-label", "negative-mass", "negative-max-m", "negative-max-n",
        "bad-mass", "huge-mass", "huge-spin", "huge-exponent", "huge-charge-sum",
        "huge-doubled-spin", "json-too-deep", "json-misspelt-key",
        "atlas-format", "oracle-failure",
        "search-error", "iso-error"])
def test_exit_code_contract(capsys, monkeypatch, argv, broken, code):
    if broken:  # the CLI reads each callee off its module at call time
        module, name, exc = broken
        monkeypatch.setattr(getattr(cli, module), name, _failing(exc))
    try:
        got, prefix = main(argv), "error: "
    except SystemExit as e:  # argparse: a usage line, then its error
        got, prefix = e.code, "usage: "
    assert got == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and "error: " in captured.err
    assert "Traceback" not in captured.err


def test_internal_value_error_exits_3(capsys, monkeypatch):
    # only CliError and StateError are invalid input; a plain ValueError
    # from the library is an internal failure
    monkeypatch.setattr(ideals, "primitive_idempotent",
                        _failing(ValueError("not a stabilizer projector")))
    assert main(["idempotent", "2", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not a stabilizer projector\n"


@pytest.mark.parametrize("argv, err", [
    (["spectrum", "--max-m", "-1"], "spectrum max-m must be non-negative"),
    (["atlas", "--max-n", "-1", "--out", "-"], "atlas max-n must be non-negative"),
], ids=["spectrum", "atlas"])
def test_negative_max_m_rejected_up_front(capsys, argv, err):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("argv", [
    ["classify", "4", "1"],
    ["classify", "4", "1", "--format", "table"],
    ["atlas", "--max-n", "6", "--out", "-"],
], ids=["classify", "classify-table", "atlas-stdout"])
def test_closed_stdout_exits_4_quietly(argv):
    # the reader is gone before the first write, as after `| head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cliffordkit.cli", *argv], stdout=write_end,
            stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == ""


SMALL = ["0", "1", "2"]  # any two of them give p+q <= 4
FACTORS = ["1,1", "0,2", "2,0", "1,0", "0,1", "1,", ",", "a,b", "1,1,1"]
STATES = ["nu", "nubar", "e-", "e+", "|H,0,1,1/2>", "|H~,0,-1,1/2>", "|H,0,1",
          "|H,0,1,1/0>", "|H,0,1,x>", "{", '{"ring": "H"}',
          '{"ring": "H", "b": 0}']
MASSES = ["1", "1/2", "0", "-3", "abc", "1/0"]
POSITIONALS = {  # one pool per positional slot of each command
    "classify": [SMALL, SMALL], "idempotent": [SMALL, SMALL],
    "factorize": [SMALL, SMALL], "cpt": [SMALL, SMALL],
    "iso-check": [SMALL, SMALL, FACTORS, FACTORS],
    "fuse": [STATES, STATES], "double": [STATES, ["+", "-", "x"]],
    "annihilate": [STATES, STATES],
    "spectrum": [["--max-m"], ["0", "1", "2", "3"], ["--electron-mass"], MASSES],
    "atlas": [["--max-n"], ["0", "1", "2", "3"], ["--out=-"]],
}
TOKENS = list(POSITIONALS) + SMALL + FACTORS + STATES + [
    "", "-", "--", "x", "-1", "1.5", "1/2", "-0", "--bogus", "-z", "json", "table",
    "--format", "--max-n", "--max-m", "--electron-mass"]
FLAGS = [
    st.just(["--oracle"]), st.just(["--version"]), st.just(["-h"]),
    st.just(["--out=-"]),  # one token: no drawn token can become a path
    st.tuples(st.just("--format"), st.sampled_from(["json", "table", "xml"])),
    st.tuples(st.sampled_from(["--max-n", "--max-m"]),
              st.sampled_from([str(i) for i in range(-2, 4)] + ["x"])),
    st.tuples(st.just("--electron-mass"), st.sampled_from(MASSES)),
]


@st.composite
def argvs(draw):
    """A command with its positionals drawn slot by slot (or no command),
    then flags with their values and loose tokens at random places."""
    argv = []
    if draw(st.integers(0, 4)):
        command = draw(st.sampled_from(sorted(POSITIONALS)))
        argv = [command] + [draw(st.sampled_from(pool))
                            for pool in POSITIONALS[command]]
    for _ in range(draw(st.integers(0, 2))):
        extra = (list(draw(st.one_of(FLAGS))) if draw(st.booleans())
                 else [draw(st.sampled_from(TOKENS))])
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = extra
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
@example(["spectrum", "--max-m", "1", "--electron-mass", "1/0"])
@example(["fuse", "|H,0,1,1/0>", "nu"])
def test_fuzzed_argv_keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: usage errors, --help, --version
            code = e.code
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()

