#!/usr/bin/env python3
"""Mutation gate: each named mutant of `src/` must fail its own tests.

    python3 scripts/mutants.py

Run from the repository root.  Each entry of `MUTANTS` names a file under
`src/cliffordkit`, a snippet that occurs in it exactly once, the text that
replaces it, and the tests that must fail once it is replaced.  The script
copies `src/` into a temporary directory and first runs the tests of every
entry there unmutated, which must pass.  Then it applies one mutant at a
time and runs `python -m pytest -q -x` on that mutant's tests, with
`PYTHONPATH` at the copy and no bytecode written, so that no stale compiled
module hides a mutant.

It exits 1 when a mutant survives (its tests pass), when its tests cannot
give a verdict (they time out, or pytest fails to run them), when the
unmutated copy fails a test, or when a snippet does not occur exactly once.
So a change that moves checked code must update this table too.  A mutant
that survives asks for a test that kills it; it is not dropped.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
IDEALS = "tests/test_ideals.py::"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cliffordkit
    snippet: str
    replacement: str
    tests: tuple


MUTANTS = (
    # the key check of the stabilizer chain, shared by the built f of the
    # atlas and the read-back of any f (`ideals._stabilizer_rows`)
    Mutant("chain-commute", "ideals.py",
           "commutes = not any((a & row).bit_count() & 1 for row in rows)",
           "commutes = True",
           (IDEALS + "test_reading_rejects_a_chain_that_fails_a_key_check",
            IDEALS + "test_anticommuting_generators_are_rejected")),
    Mutant("chain-square", "ideals.py",
           "squares = not r * i and (r * r - i * i) * alg.square_sign(a) "
           "== den * den",
           "squares = True",
           (IDEALS + "test_reading_rejects_a_chain_that_fails_a_key_check",
            IDEALS + "test_generator_squaring_to_minus_one_is_rejected")),
    Mutant("chain-independent", "ideals.py",
           "if not (commutes and squares and f2_insert(lead, a)):",
           "if not (commutes and squares and (f2_insert(lead, a) or True)):",
           (IDEALS + "test_reading_rejects_a_chain_that_fails_a_key_check",)),
    # the read-back of f against the product of its T's (`_coset_heads`)
    Mutant("coset-heads-compare-scale", "ideals.py",
           "{a: (r * den, i * den) for a, r, i in prod if r or i}",
           "{a: (r * d, i * d) for a, r, i in prod if r or i}",
           (IDEALS + "test_verifying_f_builds_no_coefficient",)),
    Mutant("coset-heads-compare-dropped", "ideals.py",
           "    if {a: (r * den, i * den)",
           "    if False and {a: (r * den, i * den)",
           (IDEALS + "test_one_wrong_coefficient_is_rejected",)),
    # the central coset heads of the read-back: a head anticommutes with T
    # when it meets T's row oddly often, not the row's complement
    Mutant("central-odd-complement", "ideals.py",
           "if not any((a & row).bit_count() & 1 for row in rows)]",
           "if not any((a & ~row).bit_count() & 1 for row in rows)]",
           (IDEALS + "test_key_reading_heads_match_the_read_back_of_the_built_f",)),
    # the key reading's central heads: the commutant of the chain, reduced
    # modulo the chain's span, and eliminated against every chain row
    Mutant("central-skip-span", "ideals.py",
           "    for a in keys:\n        f2_insert(lead, a)\n",
           "",
           (IDEALS + "test_key_reading_heads_match_the_read_back_of_the_built_f",)),
    Mutant("central-drop-row", "ideals.py",
           "for i, row in enumerate(rows):",
           "for i, row in enumerate(rows[1:]):",
           (IDEALS + "test_key_reading_heads_match_the_read_back_of_the_built_f",)),
    # the H reading of f*Cl*f: its second and third heads anticommute
    Mutant("division-tag-h", "ideals.py",
           "if alg.keys_commute(central[1], central[2]):",
           "if False:",
           (IDEALS + "test_division_tag_reads_the_relations_of_cl0d",)),
    # the search's clear of the keys that anticommute with the key taken
    Mutant("search-anticommute-clear", "ideals.py",
           "left &= ~(linear_row(cols, linear_row(gens, k))\n"
           "                  | sum(1 << s for s in coset))",
           "left &= ~sum(1 << s for s in coset)",
           (IDEALS + "test_find_square_set_matches_reference_search",)),
    # a signature's p is checked as its q is
    Mutant("signature-p-type", "core.py",
           "if type(p) is not int or type(q) is not int:",
           "if type(q) is not int:",
           ("tests/test_core.py::test_signature_rejects_a_non_int_p",)),
    # a real algebra gets no imaginary part back from the integer terms
    Mutant("from-numerators-real", "core.py",
           "        if i:\n            raise ArithmeticError",
           "        if False:\n            raise ArithmeticError",
           ("tests/test_kernel.py::"
            "test_real_spinor_product_rejects_a_complex_result",)),
    # one blade sign flipped: bit 1 of the mask set when b has bit 0
    Mutant("sign-mask-flip", "core.py",
           "return _prefix_parity(b) ^ (b & self.minus_mask)",
           "return _prefix_parity(b) ^ (b & self.minus_mask) ^ (b & 1) << 1",
           ("tests/test_core.py::test_generator_rows_match_sign_mask",)),
    # the spinor product's digit bound, halved: a digit may overflow
    Mutant("spinor-digit-bound", "core.py",
           "s = (2 * m * rows**2 * na * nb).bit_length() + 1",
           "s = (m * rows**2 * na * nb).bit_length() + 1",
           ("tests/test_kernel.py::"
            "test_spinor_product_at_the_digit_bound_up_to_n8",)),
    # every key below dim is a basis key, and dim itself is not
    Mutant("blade-range", "core.py",
           "not 0 <= key < self.dim",
           "not 0 <= key <= self.dim",
           ("tests/test_core.py::test_blade_takes_only_int_keys",)),
    # the tensor order runs through the factor orders, the first slowest
    Mutant("tensor-order-reversed", "factorize.py",
           "(f.order_key(a >> off & low) for f, off, low in self._blocks)",
           "(f.order_key(a >> off & low) for f, off, low in self._blocks[::-1])",
           ("tests/test_core.py::test_order_key_states_the_reference_order",)),
    # the witnesses' generator images must anticommute pairwise
    Mutant("generators-anticommute", "factorize.py",
           "if not (keys[j] & row).bit_count() & 1:",
           "if False:",
           ("tests/test_factorize.py",)),
    # the lambda+- split's T is i*omega when omega^2 = -1, checked on its key
    Mutant("split-i-phase", "factorize.py",
           "t = (real.volume_key, 0, 1) if imag else (real.volume_key, 1, 0)",
           "t = (real.volume_key, 1, 0)",
           ("tests/test_factorize.py::test_split_semisimple_cl30",)),
    # an internal ValueError exits 3 with one error line, no traceback
    Mutant("cli-value-error-exit", "cli.py",
           '*_raised(ideals, "OracleFailure"),\n            ValueError) as e:',
           '*_raised(ideals, "OracleFailure"),\n            ) as e:',
           ("tests/test_cli.py::test_internal_value_error_exits_3",)),
)


def copy_env(copy):
    return dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")


def pytest(copy, tests):
    """pytest's exit code on `tests` with `copy` on the path, or None when
    it does not finish within TIMEOUT_S."""
    env = copy_env(copy)
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main():
    src = ROOT / "src" / "cliffordkit"
    bad = []
    for m in MUTANTS:
        found = (src / m.file).read_text(encoding="utf-8").count(m.snippet)
        if found != 1:
            bad.append(f"{m.name}: snippet occurs {found} times in {m.file}")
    if bad:
        print("\n".join(bad))
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        # an installed cliffordkit must not shadow the copy
        where = subprocess.run(
            [sys.executable, "-c", "import cliffordkit; print(cliffordkit.__file__)"],
            cwd=ROOT, env=copy_env(copy), capture_output=True, text=True)
        if not where.stdout.startswith(str(copy)):
            print(f"cliffordkit is imported from {where.stdout.strip()!r}, "
                  f"not from the copy {copy}")
            return 1
        every = sorted({t for m in MUTANTS for t in m.tests})
        code = pytest(copy, every)
        if code != 0:
            print(f"the unmutated copy fails its tests (pytest exit {code})")
            return 1
        for m in MUTANTS:
            path = copy / "cliffordkit" / m.file
            honest = path.read_text(encoding="utf-8")
            path.write_text(honest.replace(m.snippet, m.replacement),
                            encoding="utf-8")
            t0 = time.perf_counter()
            code = pytest(copy, m.tests)
            path.write_text(honest, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"no verdict ({code})")
            print(f"{m.name:28} {verdict:18} {time.perf_counter() - t0:6.1f} s",
                  flush=True)
            if code != 1:
                bad.append(m.name)
    if bad:
        print("not killed: " + ", ".join(bad))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
