"""The four benchmark workloads.

Constructing a workload is its set-up: it receives a freshly imported
`cliffordkit` package, fills the algebra caches and generates every input
from the seed.  After that, `passes()` yields one list of jobs per pass, in
a seeded order; `run(job)` is the timed call into the public API and
`check(job, out)` the untimed exact check of its output.  Every pass holds
the same multiset of jobs, so runs that end on a pass boundary have the
same job mix whatever their length.
"""

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import reference

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""

    def __init__(self, ck, seed: int, root: str):
        self.ck = ck
        self.root = root
        self.rng = random.Random(f"{self.name}/{seed}")

    def pass_jobs(self):
        """The jobs of one pass, in canonical order."""
        raise NotImplementedError

    def passes(self):
        while True:
            jobs = list(self.pass_jobs())
            self.rng.shuffle(jobs)
            yield jobs

    def run(self, job):
        raise NotImplementedError

    def run_traced(self, job):
        return self.run(job)

    def check(self, job, out) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# atlas-8: the paper's signature sweep, sparse products over Fractions

def atlas_signatures(max_n=8):
    return [(p, n - p) for n in range(max_n + 1) for p in range(n + 1)]


def atlas_digest(entry) -> str:
    return digest(json.dumps(entry, sort_keys=True).encode())


class Atlas8(Workload):
    """One job per signature with p+q <= 8: the entry `cliffordkit atlas` builds."""

    name = "atlas-8"

    def __init__(self, ck, seed, root):
        super().__init__(ck, seed, root)
        self.cli = importlib.import_module("cliffordkit.cli")
        self.expected = load_expected()["atlas-8"]
        for p, q in atlas_signatures():
            alg = ck.clifford(p, q)
            if (p + q) % 2 == 0:
                ck.tensor_algebra(ck.factorize.karoubi_factor_signatures((p, q)))
                for fac, _ring in ck.PAPER_CHAINS.get((p, q), []):
                    ck.tensor_algebra(fac)
            elif alg.square_sign(alg.volume_key) == -1:
                ck.clifford(p, q, "C")

    def pass_jobs(self):
        return atlas_signatures()

    def run(self, job):
        return self.cli._atlas_entry(*job)

    def check(self, job, out):
        return atlas_digest(out) == self.expected[f"{job[0]},{job[1]}"]


# ---------------------------------------------------------------------------
# kernel-dense: fully filled operands, Fraction and QC coefficients

KERNEL_CLASSES = (("R", 5), ("R", 6), ("R", 7), ("C", 5), ("C", 6))
KERNEL_POOL = 8  # operand triples per class; pass i uses triple i mod 8


class KernelDense(Workload):
    """One dense geometric product per job, checked against the reference."""

    name = "kernel-dense"

    def __init__(self, ck, seed, root):
        super().__init__(ck, seed, root)
        rng = self.rng
        self.pool = {}
        for field, n in KERNEL_CLASSES:
            p = rng.randint(0, n)
            alg = ck.clifford(p, n - p, field)

            def coeff():
                re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                if field == "R":
                    return alg.scalar(re)
                im = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                return alg.scalar(ck.QC(re, im))

            triples = []
            for _ in range(KERNEL_POOL):
                a = alg.mv({k: coeff() for k in alg.basis})
                b = alg.mv({k: coeff() for k in alg.basis})
                c = alg.mv({rng.choice(alg.basis): coeff()})
                triples.append({"p": p, "q": n - p, "a": a, "b": b, "c": c})
            self.pool[field, n] = triples
        self.turn = 0
        self.ref_algebras = {}

    def pass_jobs(self):
        i = self.turn % KERNEL_POOL
        self.turn += 1
        return [(cls, i) for cls in KERNEL_CLASSES]

    def run(self, job):
        t = self.pool[job[0]][job[1]]
        return t["a"] * t["b"]

    def _reference(self, t):
        """Reference ab and s(a)s(b) (or s(b)s(a)) for all eight labels."""
        if "ref" not in t:
            key = (t["p"], t["q"])
            if key not in self.ref_algebras:
                self.ref_algebras[key] = reference.RefAlgebra(*key)
            ref = self.ref_algebras[key]
            a = reference.from_program(t["a"])
            b = reference.from_program(t["b"])
            laws = {}
            for label, (_star, tilde, _bar) in reference.LABEL_BITS.items():
                sa = reference.apply_label(label, a)
                sb = reference.apply_label(label, b)
                laws[label] = reference.normal(ref.mul(sb, sa) if tilde
                                               else ref.mul(sa, sb))
            t["ref"] = (reference.normal(ref.mul(a, b)), laws)
        return t["ref"]

    def check(self, job, out):
        t = self.pool[job[0]][job[1]]
        want, laws = self._reference(t)
        if reference.normal(reference.from_program(out)) != want:
            return False
        if out * t["c"] != t["a"] * (t["b"] * t["c"]):
            return False
        for sym in self.ck.ALL_SYMMETRIES:
            got = reference.normal(reference.from_program(sym(out)))
            if got != laws[sym.label]:
                return False
        return True


# ---------------------------------------------------------------------------
# cpt-complex: unary maps and QC construction, almost no products

class CptComplex(Workload):
    """composition_table and group_structure on C(x)Cl(p,q), n = 2..8."""

    name = "cpt-complex"

    def __init__(self, ck, seed, root):
        super().__init__(ck, seed, root)
        self.algs = {}
        for n in range(2, 9):
            p = self.rng.randint(0, n)
            self.algs[n] = ck.clifford(p, n - p, "C")

    def pass_jobs(self):
        return [(kind, n) for n in self.algs for kind in ("table", "group")]

    def run(self, job):
        kind, n = job
        if kind == "table":
            return self.ck.composition_table(self.algs[n])
        return self.ck.group_structure(self.algs[n])

    def check(self, job, out):
        kind, n = job
        bits = reference.LABEL_BITS
        if kind == "table":
            by_bits = {v: k for k, v in bits.items()}
            want = {(a, b): by_bits[tuple(x ^ y for x, y in zip(bits[a], bits[b]))]
                    for a in bits for b in bits}
            return out == want
        got = (out.order, out.abelian, out.exponent, out.distinct_maps)
        return got == (8, True, 2, self._distinct_maps(n))

    @staticmethod
    def _distinct_maps(n):
        # a map is fixed by its sign on each grade and whether it conjugates
        prints = set()
        for star, tilde, bar in reference.LABEL_BITS.values():
            signs = tuple((star * g + tilde * (g * (g - 1) // 2)) & 1
                          for g in range(n + 1))
            prints.add((signs, bar))
        return len(prints)


# ---------------------------------------------------------------------------
# cli-cold: fresh interpreter per request

# `cpt 1 3` takes about 1.7x as long as each other request.  Listed once it
# would be 1/11 of the jobs, which puts job_p90_ms on the edge between it and
# the rest, where the percentile jumps from run to run; listed twice it is
# 1/6 of the jobs and the percentile falls inside its own spread.
CLI_REQUESTS = (
    ("classify 4 1", None),
    ("classify 1 1 --oracle", "classify_1_1.json"),
    ("idempotent 2 4", None),
    ("factorize 1 3", None),
    ("factorize 3 0", None),
    ("iso-check 3 3 2,0 2,0 1,1", None),
    ("cpt 1 3", None),
    ("cpt 1 3", None),
    ("fuse nu nubar", "fuse_nu_nubar.json"),
    ("double nu +", "double_nu_plus.json"),
    ("annihilate e- e+", "annihilate_e.json"),
    ("spectrum --max-m 2", "spectrum_m2.json"),
)


def cli_env(root):
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                PYTHONIOENCODING="utf-8")


class CliCold(Workload):
    """README commands, each in a fresh `python -m cliffordkit.cli` process."""

    name = "cli-cold"

    def __init__(self, ck, seed, root):
        super().__init__(ck, seed, root)
        self.cli = importlib.import_module("cliffordkit.cli")
        self.env = cli_env(root)
        recorded = load_expected()["cli-cold"]
        self.expected = {}
        for request, golden in CLI_REQUESTS:
            if golden is None:
                self.expected[request] = recorded[request]
            else:
                path = os.path.join(root, "tests", "golden", golden)
                with open(path, "rb") as fh:
                    self.expected[request] = digest(fh.read())

    def pass_jobs(self):
        return [request for request, _golden in CLI_REQUESTS]

    def run(self, job):
        proc = subprocess.run([sys.executable, "-m", "cliffordkit.cli", *job.split()],
                              env=self.env, capture_output=True, cwd=self.root)
        return proc.returncode, proc.stdout, proc.stderr

    def run_traced(self, job):
        buf = StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(job.split())
        return code, buf.getvalue().encode("utf-8"), b""

    def check(self, job, out):
        code, stdout, stderr = out
        return code == 0 and not stderr and digest(stdout) == self.expected[job]


WORKLOADS = {w.name: w for w in (Atlas8, KernelDense, CptComplex, CliCold)}
