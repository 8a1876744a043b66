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

from cliffordkit import cli, ideals
from cliffordkit.cli import main
from cliffordkit.factorize import IsoError
from cliffordkit.ideals import OracleFailure, SearchError

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
    # the oracle ring and the ideal dimension come from one coset-head pass
    honest = ideals._coset_heads
    calls = []

    def counted(f):
        calls.append(f)
        return honest(f)

    monkeypatch.setattr(ideals, "_coset_heads", counted)
    for p, q in [(1, 3), (3, 0), (2, 4)]:
        calls.clear()
        cli._atlas_entry(p, q)
        assert len(calls) == 1, (p, q)


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


# SHA-256 of the stdout of `cliffordkit iso-check ...`, recorded while
# tensor-algebra blade keys were tuples of factor masks
ISO_CHECK_DIGESTS = {
    ("3 3 2,0 2,0 1,1", "json"):
        "11d5ca5022acdba5822def4c2659876130a2b7aeca86e2f1e368d6017c319519",
    ("3 3 2,0 2,0 1,1", "table"):
        "260c1f2c92b4e3ccce378b9c15879b369460879bf63ff4647c4b7316bff31e58",
    ("4 4 1,1 2,0 2,0 1,1", "json"):
        "e1b9a419ff25c0edadff9ed4981c7f5d4557fcd4ea46e9985474e3b31ca2350c",
    ("4 4 1,1 2,0 2,0 1,1", "table"):
        "43c3cc7c4710ed0312477be4ec47b6ba2c7a1a17d683f16e39eb6a0813daffca",
}


@pytest.mark.parametrize("args, fmt", sorted(ISO_CHECK_DIGESTS))
def test_iso_check_stdout_digest(capsys, args, fmt):
    code, out = run(capsys, "iso-check", *args.split(), "--format", fmt)
    assert code == 0
    want = ISO_CHECK_DIGESTS[args, fmt]
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


def _failing(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("argv, broken, code", [
    (["fuse", '{"ring": "H"}', "nu"], None, 2),
    (["fuse", '{"ring": "H", "b": 0, "lepton": 1, "k": 1.5, "r": 0}', "nu"],
     None, 2),
    (["fuse", "|C(+)C,0,1,1/2>", "nu"], None, 2),
    (["spectrum", "--max-m", "2", "--electron-mass", "-3"], None, 2),
    (["spectrum", "--max-m", "-1"], None, 2),
    (["spectrum", "--max-m", "2", "--electron-mass", "abc"], None, 2),
    (["spectrum", "--max-m", "1", "--electron-mass", "1e5000"], None, 2),
    (["fuse", "|H,0,1,1e5000>", "nu"], None, 2),
    (["spectrum", "--max-m", "1", "--electron-mass", "1e1000000000"], None, 2),
    # each field prints, but their sum (b) or the doubled spin (2s) would not
    (["fuse", f"|H,{NINES},1,1/2>", f"|H,{NINES},1,1/2>"], None, 2),
    (["fuse", f"|H,0,1,{NINES}>", "nu"], None, 2),
    (["classify", "2", "0", "--oracle"],
     ("division_ring_oracle", OracleFailure("ring dimension 3")), 3),
    (["idempotent", "2", "0"],
     ("primitive_idempotent", SearchError("no commuting set")), 3),
    (["factorize", "2", "0"],
     ("karoubi_factorize", IsoError("images do not anticommute")), 3),
], ids=["json-missing-fields", "json-float-count", "doubled-label",
        "negative-mass", "negative-max-m", "bad-mass", "huge-mass",
        "huge-spin", "huge-exponent", "huge-charge-sum", "huge-doubled-spin",
        "oracle-failure",
        "search-error", "iso-error"])
def test_exit_code_contract(capsys, monkeypatch, argv, broken, code):
    if broken:
        monkeypatch.setattr(cli, broken[0], _failing(broken[1]))
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_internal_value_error_exits_3(capsys, monkeypatch):
    # only CliError and StateError are invalid input; a plain ValueError
    # from the library is an internal failure
    monkeypatch.setattr(cli, "primitive_idempotent",
                        _failing(ValueError("not a stabilizer projector")))
    assert main(["idempotent", "2", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not a stabilizer projector\n"


def test_negative_max_m_rejected_up_front(capsys):
    assert main(["spectrum", "--max-m", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: spectrum max-m must be non-negative\n"


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

