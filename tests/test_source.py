import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "cliffordkit"


def test_no_assert_statements():
    # `python -O` strips assert statements, and every check must survive it
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def fresh(code):
    """stdout of `code` run in a fresh interpreter that imports this src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh `cliffordkit` process pays for every module it imports; these
    # two cost about 10 ms and nothing in the package needs them
    code = ("import sys; before = set(sys.modules); import cliffordkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert fresh(code).strip() == "[]"


def test_package_names_load_their_module_on_first_use():
    code = ("import sys, cliffordkit\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('cliffordkit'))\n"
            "print(loaded()); cliffordkit.clifford(1, 1); print(loaded())\n"
            "cliffordkit.composition_table; print(loaded())")
    assert fresh(code).splitlines() == [
        "['cliffordkit']", "['cliffordkit', 'cliffordkit.core']",
        "['cliffordkit', 'cliffordkit.automorphisms', 'cliffordkit.core']"]


# the `cliffordkit.*` modules that have run (a module the CLI registered
# lazily is a `LazyLoader` subclass of ModuleType until an attribute is read)
RAN = ("import json, sys, types\n"
       "print(json.dumps(sorted(n[len('cliffordkit.'):] for n, m in sys.modules.items()\n"
       "                        if n.startswith('cliffordkit.')\n"
       "                        and type(m) is types.ModuleType)))")


def test_cli_import_registers_every_layer_and_runs_only_core():
    # perfbench/layers.py looks up each module it wraps in sys.modules right
    # after `import cliffordkit.cli`; none but core has to run for that
    code = ("import json, sys, cliffordkit.cli\n"
            "print(json.dumps(sorted(n for n in sys.modules\n"
            "                        if n.startswith('cliffordkit.'))))\n" + RAN)
    registered, ran = map(json.loads, fresh(code).splitlines())
    assert registered == [f"cliffordkit.{m}" for m in (
        "automorphisms", "classify", "cli", "cone", "core", "exactla",
        "factorize", "ideals", "states")]
    assert ran == ["cli", "core"]


# (argv, modules run besides cli and core, exit code); an invalid input
# (exit 2) runs no module more than its command called before it failed
COMMAND_MODULES = [
    ("classify 4 1", "classify ideals rings", 0),
    ("classify 1 1 --oracle", "classify ideals rings", 0),
    ("idempotent 2 4", "ideals rings", 0),
    ("factorize 1 3", "factorize ideals rings", 0),
    ("factorize 3 0", "factorize ideals rings", 0),
    ("iso-check 3 3 2,0 2,0 1,1", "factorize ideals rings", 0),
    ("cpt 1 3", "automorphisms", 0),
    ("fuse nu nubar", "rings states", 0),
    ("double nu +", "rings states", 0),
    ("annihilate e- e+", "rings states", 0),
    ("spectrum --max-m 2", "cone exactla rings states", 0),
    ("atlas --max-n 2 --out -", "classify factorize ideals rings", 0),
    ("--version", "", 0),
    ("classify 99 0", "", 2),
    ("fuse zz nu", "rings states", 2),
    ("atlas --max-n 13 --out -", "", 2),
]


@pytest.mark.parametrize("argv, ran, exit_code", COMMAND_MODULES,
                         ids=[f"{argv}-{ran}" for argv, ran, _ in COMMAND_MODULES])
def test_each_command_runs_only_the_modules_it_calls(argv, ran, exit_code):
    code = ("import contextlib, io, cliffordkit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        code = cliffordkit.cli.main({argv.split()!r})\n"
            "    except SystemExit as e:  # --version\n"
            "        code = e.code\n"
            "print(code)\n" + RAN)
    code, got = map(json.loads, fresh(code).splitlines())
    assert code == exit_code
    assert got == sorted(["cli", "core", *ran.split()])


@pytest.mark.parametrize("before", [
    "import cliffordkit.cli", "import cliffordkit.classify",
    "import cliffordkit; cliffordkit.classify; import cliffordkit.cli",
    "from cliffordkit import classify; import cliffordkit.cli"])
def test_classify_stays_the_function_in_every_import_order(before):
    # importing the submodule `cliffordkit.classify` (cli does) must not
    # replace the exported function of the same name
    code = (f"{before}; import cliffordkit\nfrom cliffordkit import classify\n"
            "print(type(cliffordkit.classify).__name__, type(classify).__name__)")
    assert fresh(code).split() == ["function", "function"]


# what `from cliffordkit import *` bound when the package imported every
# module eagerly: the 73 names it imported from eight modules, and the eight
# submodules it held (`classify` among the names, as the function)
STAR_NAMES = sorted("""
    ALL_SYMMETRIES AlgebraType CliffordAlgebra ConeRow DiscreteSymmetry
    FactorChain FusionResult Idempotent IsoError Multivector PAPER_CHAINS
    PRINTED_TRANSITIONS QC ReprLabel RingTag Sector SemisimpleSplit Signature
    StateRingTag StateSum StateVector TensorAlgebra additive_spin annihilate
    as_signature automorphisms blade_name center_basis classify
    classify_complex clifford complex_doubling_iso complexify
    composition_table cone conjugate conjugation core degree division_ring_of
    division_ring_oracle double enumerate_cone even_subalgebra_basis
    even_subalgebra_iso exactla factorize fundamental_states fuse
    fuse_detailed grade grade_involution group_structure ideals
    idempotent_factor_count idempotent_from_factors is_primitive
    karoubi_factorize left_ideal_basis mass max_commuting_square_set
    named_states omega_square_sign paper_idempotents parse_state
    primitive_idempotent pseudo_automorphism radon_hurwitz reversion
    ring_transition rings spinor_dimension split_semisimple state states
    superposable sym_dimension_oracle symmetry tensor_algebra
    verify_tensor_iso volume_element""".split())
# in an order in which none imports a later one
SUBMODULES = ["exactla", "core", "rings", "states", "ideals", "automorphisms",
              "factorize", "cone"]


def test_package_namespace_matches_the_eager_one():
    # each submodule is an attribute, also before anything has imported it
    code = ("import json, sys, cliffordkit\nsubs = []\n"
            f"for m in {SUBMODULES!r}:\n"
            "    name = 'cliffordkit.' + m\n"
            "    subs.append(name not in sys.modules\n"
            "                and getattr(cliffordkit, m) is sys.modules[name])\n"
            "ns = {}; exec('from cliffordkit import *', ns); ns.pop('__builtins__')\n"
            "print(json.dumps([subs, cliffordkit.__all__, sorted(ns), dir(cliffordkit),\n"
            "    hasattr(cliffordkit, 'no_such_name'), cliffordkit.__version__]))")
    subs, all_, star, listed, unknown, version = json.loads(fresh(code))
    assert all(subs) and len(subs) == len(SUBMODULES)
    assert all_ == star == STAR_NAMES
    assert set(STAR_NAMES) <= set(listed)
    assert unknown is False and version == "0.1.0"
