"""Per-layer spans and counters for traced runs.

`install(tracer, ck)` wraps public functions and methods of each cliffordkit
layer from the outside; `src/` is not modified.  Methods are replaced on
their class, where callers look them up.  Functions are replaced in every
cliffordkit module namespace that holds them, because modules import each
other's functions by value (`classify` calls its own binding of
`ring_basis`, for example).

A span's self time is its duration minus the time of the spans it encloses.
Hot kernels that are called about a million times per pass (`mul_key`,
`QC.__init__`, the symmetry maps) get counters only, no spans.
"""

import functools
import importlib
import re
import statistics
import subprocess
import sys
import time

# (module, attribute, span name): spans around public functions and methods
SPANS = (
    ("core", "CliffordAlgebra.__init__", "core.algebra_init"),
    ("factorize", "TensorAlgebra.__init__", "core.algebra_init"),
    ("core", "grade_involution", "core.unary"),
    ("core", "reversion", "core.unary"),
    ("core", "pseudo_automorphism", "core.unary"),
    ("exactla", "express", "exactla.express"),
    ("ideals", "ring_basis", "ideals.ring_basis"),
    ("ideals", "left_ideal_basis", "ideals.left_ideal_basis"),
    ("ideals", "find_square_set", "ideals.search"),
    ("ideals", "max_commuting_square_set", "ideals.search"),
    ("classify", "division_ring_oracle", "classify.oracle"),
    ("classify", "division_ring_of", "classify.oracle"),
    ("classify", "division_tag_of_idempotent", "classify.tag"),
    ("factorize", "verify_tensor_iso", "factorize.verify"),
    ("factorize", "karoubi_factorize", "factorize.verify"),
    ("factorize", "split_semisimple", "factorize.verify"),
    ("automorphisms", "composition_table", "automorphisms.table"),
    ("automorphisms", "group_structure", "automorphisms.table"),
    ("cli", "_emit", "cli.render"),
)

# (module, attribute, counter): counted, not timed
COUNTERS = (
    ("core", "CliffordAlgebra.mul_key", "core.mul_key.calls"),
    ("factorize", "TensorAlgebra.mul_key", "factorize.tensor_mul_key.calls"),
    ("core", "QC.__init__", "core.qc.new"),
    ("automorphisms", "DiscreteSymmetry.__call__", "automorphisms.apply.calls"),
)

# every public function of these modules is a span of the module's name
WHOLE_MODULES = ("states", "cone")

IMPORT_MODULES = ("cliffordkit", "cliffordkit.core", "cliffordkit.exactla",
                  "cliffordkit.rings", "cliffordkit.ideals",
                  "cliffordkit.classify", "cliffordkit.factorize",
                  "cliffordkit.automorphisms", "cliffordkit.states",
                  "cliffordkit.cone", "cliffordkit.cli")

class Tracer:
    """Span self times and counters of one traced run, kept in memory."""

    def __init__(self):
        self.self_s = {}
        self.counts = {}
        self.frames = [[0.0, ""]]  # [time in enclosed spans, span name]
        self.job_s = 0.0
        self.uncovered_s = 0.0

    def keep_only(self, prefix):
        """Forget every time and count whose name does not start with `prefix`.

        The wrappers hold these dicts, so they are emptied in place."""
        for record in (self.self_s, self.counts):
            for name in [n for n in record if not n.startswith(prefix)]:
                del record[name]

    def count(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def job(self, fn, *args):
        """Run one job as a root span; its own self time is uncovered time."""
        frame = [0.0, "job"]
        self.frames.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            self.frames.pop()
            self.job_s += dt
            self.uncovered_s += dt - frame[0]

    def span(self, name, fn):
        frames, self_s, clock = self.frames, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1][0] += dt
                self_s[name] = self_s.get(name, 0.0) + dt - frame[0]
                self.count(name + ".calls")
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper


def _wrap_mul(tr, mul, multivector):
    spanned = tr.span("core.mul", mul)

    @functools.wraps(mul)
    def wrapper(a, b):
        if not isinstance(b, multivector):
            return mul(a, b)  # scalar scaling is not a geometric product
        out = spanned(a, b)
        tr.count("core.mul.pairs", len(a.c) * len(b.c))
        tr.count("core.mul.fill_sum", (len(a.c) + len(b.c)) / (2 * a.alg.dim))
        if not out.c:
            tr.count("core.mul.zeros")
        return out
    return wrapper


def _wrap_keys_commute(tr, fn):
    frames = tr.frames

    @functools.wraps(fn)
    def wrapper(alg, a, b):
        if frames[-1][1] == "ideals.search":
            tr.count("ideals.search.commute_checks")
        return fn(alg, a, b)
    return wrapper


def _wrap_insert(tr, insert):
    spanned = tr.span("exactla.insert", insert)

    @functools.wraps(insert)
    def wrapper(ech, vec):
        pivot = spanned(ech, vec)
        if pivot is not None:
            tr.count("exactla.insert.pivots")
        return pivot
    return wrapper


def _wrap_build_parser(tr, build):
    spanned = tr.span("cli.parse", build)

    @functools.wraps(build)
    def wrapper():
        ap = spanned()
        ap.parse_args = tr.span("cli.parse", ap.parse_args)
        return ap
    return wrapper


def install(tr, ck):
    """Wrap the layers of the freshly imported package `ck`; returns an undo list."""
    importlib.import_module("cliffordkit.cli")
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "cliffordkit" or name.startswith("cliffordkit.")}
    undo = []

    def replace(module, attr, make):
        owner = mods["cliffordkit." + module]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            undo.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        fn = getattr(owner, attr)
        wrapper = make(fn)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    for module, attr, name in SPANS:
        replace(module, attr, lambda fn, name=name: tr.span(name, fn))
    for module, attr, name in COUNTERS:
        replace(module, attr, lambda fn, name=name: tr.counter(name, fn))
    replace("core", "Multivector.__mul__",
            lambda fn: _wrap_mul(tr, fn, ck.core.Multivector))
    replace("exactla", "Echelon.insert", lambda fn: _wrap_insert(tr, fn))
    for module, cls in (("core", "CliffordAlgebra"), ("factorize", "TensorAlgebra")):
        replace(module, cls + ".keys_commute", lambda fn: _wrap_keys_commute(tr, fn))
    replace("cli", "build_parser", lambda fn: _wrap_build_parser(tr, fn))
    for module in WHOLE_MODULES:
        mod = mods["cliffordkit." + module]
        for attr, value in list(vars(mod).items()):
            if (callable(value) and not isinstance(value, type)
                    and not attr.startswith("_")
                    and getattr(value, "__module__", None) == mod.__name__):
                replace(module, attr, lambda fn, m=module: tr.span(m, fn))
    return undo


def uninstall(undo):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def layer_metrics(tr, units):
    """Per-layer metrics of one traced run, without the import breakdown.

    `units` maps each per-layer metric name to its unit; times and counts are
    read by name, the shares and trace totals are computed here."""
    s, c = tr.self_s, tr.counts
    mul_calls = c.get("core.mul.calls", 0)
    inserts = c.get("exactla.insert.calls", 0)
    out = {name: s.get(name[:-len(".self_s")], 0.0)
           for name in units if name.endswith(".self_s")}
    out.update({name: c.get(name, 0) for name, unit in units.items()
                if unit == "count"})
    out["core.mul.fill"] = c.get("core.mul.fill_sum", 0) / mul_calls if mul_calls else 0.0
    out["core.mul.zero_frac"] = c.get("core.mul.zeros", 0) / mul_calls if mul_calls else 0.0
    out["exactla.insert.pivot_frac"] = (c.get("exactla.insert.pivots", 0) / inserts
                                        if inserts else 0.0)
    out["trace.job_s"] = tr.job_s
    out["trace.uncovered_frac"] = tr.uncovered_s / tr.job_s if tr.job_s else 0.0
    return out


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_breakdown(env, reps=5):
    """Median `python -X importtime` self time per cliffordkit module, in ms."""
    samples = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import cliffordkit.cli"],
                              env=env, capture_output=True, text=True,
                              check=True)
        total, own = 0, {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            self_us, cum_us, indent, mod = int(m[1]), int(m[2]), m[3], m[4]
            if mod in IMPORT_MODULES:
                own[mod] = self_us
            if len(indent) == 1 and mod.startswith("cliffordkit"):
                total += cum_us
        row = {f"cli.import.{m}_ms": own.get(m, 0) / 1000 for m in IMPORT_MODULES}
        row["cli.import_ms"] = total / 1000
        row["cli.import.rest_ms"] = (total - sum(own.values())) / 1000
        samples.append(row)
    return {k: statistics.median(r[k] for r in samples) for k in samples[0]}
