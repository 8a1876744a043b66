"""Batch command-line frontend.

Every subcommand is a pure function of its arguments: identical invocations
produce byte-identical output.  JSON is the default format (sorted keys,
2-space indent); --format table gives aligned text, on every command but
atlas, which writes JSON only.  Exit codes: 0 success,
2 invalid input, 3 failed verification or internal error, 4 I/O failure
(stdout closed early included).

Exact numbers (fractions, multivector coefficients) are emitted as strings
to keep the JSON exact; see schemas/ for the shipped schemas.

A request runs only the modules its command calls.  `core` is imported
eagerly; `automorphisms`, `classify`, `cone`, `exactla`, `factorize`,
`ideals` and `states` are registered in `sys.modules` at import, through
`importlib.util.LazyLoader`, and each runs on the first read of one of its
attributes.  Commands read their callees off these modules at call time
(`ideals.primitive_idempotent(sig)`), so besides `core` `fuse` runs only
`states` and `rings`, and `cpt` only `automorphisms`.  The imports are not
moved into the `cmd_*` functions, because `perfbench/layers.py` looks every
layer module up in `sys.modules` right after `import cliffordkit.cli`.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import types

from . import __version__, core


def _lazy(name):
    """The module `cliffordkit.<name>`, registered in `sys.modules` now and
    run on the first read of one of its attributes (the `LazyLoader` recipe
    of the importlib docs); a module already imported is returned as it is."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


def _raised(module, name):
    """(module.name,) once `module` has run, else (): a module that has not
    run raised none of its exceptions, and a handler must not run it."""
    return (getattr(module, name),) if type(module) is types.ModuleType else ()


automorphisms, classify, cone, exactla, factorize, ideals, states = map(
    _lazy, ("automorphisms", "classify", "cone", "exactla", "factorize",
            "ideals", "states"))

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_IO = 4


class CliError(Exception):
    """Invalid input: exits 2, like a StateError."""


def _emit(args, payload, table_lines):
    if args.format == "table":
        print("\n".join(table_lines))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def _signature(p, q):
    try:
        return core.Signature(p, q)
    except (ValueError, TypeError) as e:
        raise CliError(str(e)) from None


def _in_range(command, name, value, cap):
    """`value` itself; a CliError if it is negative or above `cap`."""
    if value < 0:
        raise CliError(f"{command} {name} must be non-negative")
    if value > cap:
        raise CliError(f"{command} capped at {name} {cap}")
    return value


def _mv_json(mv):
    out = []
    for k in sorted(mv.c, key=mv.alg.order_key):
        v = mv.c[k]
        if mv.alg.field == "C":
            out.append({"blade": mv.alg.key_name(k), "re": str(v.re),
                        "im": str(v.im)})
        else:
            out.append({"blade": mv.alg.key_name(k), "re": str(v), "im": "0"})
    return out


def _type_json(at):
    return {"mod8_class": at.mod8_class, "ring": str(at.ring),
            "matrix_rank": at.matrix_rank, "simple": at.simple,
            "display": str(at)}


def cmd_classify(args):
    sig = args.sig
    at = classify.classify(sig)
    payload = {"signature": {"p": sig.p, "q": sig.q}, "type": _type_json(at)}
    lines = [f"{sig}: {at}  (p-q = {at.mod8_class} mod 8, "
             f"{'simple' if at.simple else 'semisimple'})"]
    alias = classify.DISPLAY_ALIASES.get((sig.p, sig.q))
    if alias:
        payload["alias"] = alias
        lines.append(f"alias: {alias}")
    code = EXIT_OK
    if args.oracle:
        got = classify.division_ring_oracle(sig)
        agrees = got is at.ring
        payload["oracle"] = {"ring": str(got), "agrees": agrees}
        lines.append(f"oracle: {got}  ({'agrees' if agrees else 'DISAGREES'})")
        if not agrees:
            code = EXIT_ORACLE
    _emit(args, payload, lines)
    return code


def cmd_idempotent(args):
    sig = args.sig
    f = ideals.primitive_idempotent(sig)
    dimension = len(ideals._coset_heads(f)[1])
    payload = {
        "signature": {"p": sig.p, "q": sig.q},
        "factor_count": ideals.idempotent_factor_count(sig),
        "factors": [str(t) for t in f.factors],
        "element": _mv_json(f.element),
        "display": str(f),
        "ideal_dimension": dimension,
    }
    lines = [f"f_{sig.p},{sig.q} = {f}",
             f"  = {f.element}",
             f"ideal dimension: {dimension}"]
    paper = ideals._printed_idempotent(f"f{sig.p}{sig.q}")
    if paper is not None:
        payload["paper_form"] = {"factors": [str(t) for t in paper.factors],
                                 "display": str(paper)}
        lines.append(f"printed form: {paper}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_factorize(args):
    sig = args.sig
    if sig.n % 2:
        split = factorize.split_semisimple(sig)
        payload = {
            "signature": {"p": sig.p, "q": sig.q},
            "odd": True,
            "split": {
                "factor": {"p": split.factor.p, "q": split.factor.q},
                "complexified": split.complexified,
                "lambda_plus": _mv_json(split.lambda_plus),
                "lambda_minus": _mv_json(split.lambda_minus),
            },
        }
        lines = [f"{sig} is odd-dimensional: splits as "
                 f"{split.factor} (+) {split.factor}"
                 + (" in the complexification" if split.complexified else ""),
                 f"lambda+ = {split.lambda_plus}",
                 f"lambda- = {split.lambda_minus}"]
        return _emit(args, payload, lines)
    chain = factorize.karoubi_factorize(sig)
    trace = [str(t) for t in chain.ring_trace]
    payload = {
        "signature": {"p": sig.p, "q": sig.q},
        "odd": False,
        "factors": [{"p": s.p, "q": s.q} for s in chain.factors],
        "ring_trace": trace,
        "ring": str(chain.folded_ring()),
        "verified": True,
    }
    pretty = " (x) ".join(f"Cl({s.p},{s.q})" for s in chain.factors) or "R"
    lines = [f"{sig} ~ {pretty}   [verified]",
             f"rings: {' (x) '.join(trace) or 'R'} -> {chain.folded_ring()}"]
    return _emit(args, payload, lines)


def cmd_iso_check(args):
    target = args.sig
    factors = []
    for spec_str in args.factors:
        try:
            a, b = spec_str.split(",")
            factors.append(_signature(int(a), int(b)))
        except (ValueError, TypeError):
            raise CliError(f"bad factor {spec_str!r}: expected p,q") from None
    try:
        w = factorize.verify_tensor_iso(target, factors)
    except factorize.IsoError as e:
        payload = {"verified": False, "reason": e.reason}
        _emit(args, payload, [f"NOT isomorphic: {e.reason}"])
        return EXIT_ORACLE
    payload = {
        "verified": True,
        "target": {"p": target.p, "q": target.q},
        "factors": [{"p": s.p, "q": s.q} for s in w.factors],
        "generator_images": [_mv_json(img) for img in w.images],
    }
    lines = [f"{target} ~ " + " (x) ".join(f"Cl({s.p},{s.q})" for s in w.factors),
             "generator images:"]
    for i, img in enumerate(w.images, 1):
        lines.append(f"  e{i} -> {img}")
    return _emit(args, payload, lines)


def cmd_cpt(args):
    sig = args.sig
    gs = automorphisms.group_structure(core.clifford(sig.p, sig.q, "C"))
    labels, table = automorphisms.LABELS, gs.table
    payload = {
        "signature": {"p": sig.p, "q": sig.q, "complexified": True},
        "labels": list(labels),
        "table": {f"{a}.{b}": table[(a, b)] for a in labels for b in labels},
        "group": {"order": gs.order, "abelian": gs.abelian,
                  "exponent": gs.exponent, "distinct_maps": gs.distinct_maps,
                  "structure": str(gs)},
    }
    width = max(len(l) for l in labels) + 1
    lines = [" " * width + "".join(l.ljust(width) for l in labels)]
    for a in labels:
        lines.append(a.ljust(width)
                     + "".join(table[(a, b)].ljust(width) for b in labels))
    lines.append(f"group: {gs}")
    return _emit(args, payload, lines)


def cmd_fuse(args):
    s1 = states.parse_state(args.state1)
    s2 = states.parse_state(args.state2)
    res = states.fuse_detailed(s1, s2)
    payload = {
        "operands": [s1.to_json(), s2.to_json()],
        "state": res.state.to_json(),
        "label": res.label(),
        "spin_additive": str(res.spin_additive),
        "spin_vector_label": str(res.spin_vector),
        "spin_rule_mismatch": res.spin_rule_mismatch,
    }
    lines = [f"{s1} (x) {s2} = {res.label()}"]
    if res.spin_rule_mismatch:
        lines.append(f"note: additive spin {res.spin_additive} vs "
                     f"|l-l̇| label {res.spin_vector} (readings differ)")
    return _emit(args, payload, lines)


def cmd_double(args):
    s = states.parse_state(args.state)
    out = states.double(s, args.sign)
    payload = {"operand": s.to_json(), "sign": args.sign,
               "state": out.to_json(), "label": str(out)}
    return _emit(args, payload, [f"double({s}, {args.sign}) = {out}"])


def cmd_annihilate(args):
    s = states.parse_state(args.state1)
    sbar = states.parse_state(args.state2)
    out = states.annihilate(s, sbar)
    spin = states.additive_spin(s, sbar)
    terms = []
    text = []
    for sv, mult in out:
        terms.append({"multiplicity": mult, "state": sv.to_json(),
                      "label": sv.label(spin=spin)})
        text.append((f"{mult}" if mult != 1 else "") + sv.label(spin=spin))
    payload = {"operands": [s.to_json(), sbar.to_json()],
               "terms": terms, "total_multiplicity": out.total_multiplicity}
    return _emit(args, payload, [f"{s} (x) {sbar} -> " + " + ".join(text)])


def cmd_spectrum(args):
    # time and memory grow quadratically in max-m: about 70 MB at the cap
    max_m = _in_range("spectrum", "max-m", args.max_m, 200)
    m_e = states.exact_fraction(args.electron_mass, "electron mass")
    rows = cone.enumerate_cone(max_m, m_e=m_e)
    payload = {"max_m": max_m, "electron_mass": str(m_e),
               "rows": [{"k": r.label.k, "r": r.label.r,
                         "l": str(r.label.l), "ldot": str(r.label.ldot),
                         "spin": str(r.spin), "statistics": r.statistics,
                         "degree": r.degree, "mass": str(r.mass)}
                        for r in rows]}
    lines = [f"{'(l,ld)':>10} {'spin':>5} {'stat':>8} {'deg':>4} {'mass':>7}"]
    for r in rows:
        lines.append(f"{str(r.label):>10} {str(r.spin):>5} "
                     f"{r.statistics:>8} {r.degree:>4} {str(r.mass):>7}")
    return _emit(args, payload, lines)


def _atlas_entry(p, q):
    # every relation is checked on keys; no f, image or lambda+- is built
    sig, alg = core.Signature(p, q), core.clifford(p, q)
    at = classify.classify(sig)
    keys, dimension, central = ideals._primitive_reading(alg)
    oracle = classify._ring_of(alg, central)
    entry = {
        "p": p, "q": q, "n": sig.n,
        "type": _type_json(at),
        "oracle_ring": str(oracle),
        "oracle_agrees": oracle is at.ring,
        "idempotent": {"factors": [alg.key_name(a) for a in keys],
                       "factor_count": ideals.idempotent_factor_count(sig),
                       "ideal_dimension": dimension},
    }
    if sig.n % 2 == 0:
        entry["omega_square"] = classify.omega_square_sign(sig)
        canonical = factorize.karoubi_factor_signatures(sig)
        factorize._tensor_keys(sig, canonical)  # raises on failure
        chains = {canonical: (str(factorize._fold(canonical)), "canonical")}
        for fac, ring in factorize.PAPER_CHAINS.get((p, q), []):
            fac = tuple(core.Signature(*f) for f in fac)
            if fac not in chains:
                factorize._tensor_keys(sig, fac)
                chains[fac] = (ring, "printed")
        entry["factor_chains"] = [
            {"factors": [[s.p, s.q] for s in fac],
             "ring_trace": [str(factorize.FACTOR_RINGS[s]) for s in fac],
             "ring": ring, "verified": True, "source": source}
            for fac, (ring, source) in chains.items()]
    else:
        split_alg, _t = factorize._split_key(sig)
        entry["split"] = {"factor": list(factorize._even_part(sig)),
                          "complexified": split_alg.field == "C"}
    return entry


def cmd_atlas(args):
    max_n = _in_range("atlas", "max-n", args.max_n, core.MAX_N)
    sigs = sorted(((p, n - p) for n in range(max_n + 1)
                   for p in range(n + 1)), key=lambda s: (s[0] + s[1], s[0]))
    entries = [_atlas_entry(p, q) for p, q in sigs]
    payload = {"max_n": max_n, "count": len(entries),
               "signatures": entries}
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out == "-":
        print(text)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as e:
        print(f"atlas: cannot write {args.out}: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(entries)} signatures to {args.out}")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cliffordkit",
        description="Exact Clifford algebra kernel and state calculus")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, signature=False):  # a command rendered by _emit
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        sp.add_argument("--format", choices=("json", "table"), default="json")
        if signature:  # `main` reads them into args.sig
            sp.add_argument("p", type=int)
            sp.add_argument("q", type=int)
        return sp

    sp = add("classify", cmd_classify, "mod-8 type of Cl(p,q)", True)
    sp.add_argument("--oracle", action="store_true",
                    help="also run the division-ring oracle")
    add("idempotent", cmd_idempotent, "canonical primitive idempotent", True)
    add("factorize", cmd_factorize, "Karoubi chain or semisimple split", True)
    sp = add("iso-check", cmd_iso_check,
             "verify Cl(p,q) ~ tensor of factors", True)
    sp.add_argument("factors", nargs="+", metavar="P,Q",
                    help="factor signatures, e.g. 1,1 0,2")
    add("cpt", cmd_cpt, "the eight discrete symmetries on C (x) Cl(p,q)", True)

    sp = add("fuse", cmd_fuse, "fuse two states")
    sp.add_argument("state1")
    sp.add_argument("state2")

    sp = add("double", cmd_double, "double (complexify) a state")
    sp.add_argument("state")
    sp.add_argument("sign", help="+ or -")

    sp = add("annihilate", cmd_annihilate, "contract a conjugate pair")
    sp.add_argument("state1")
    sp.add_argument("state2")

    sp = add("spectrum", cmd_spectrum, "enumerate the representation cone")
    sp.add_argument("--max-m", type=int, required=True, dest="max_m")
    sp.add_argument("--electron-mass", default="1", dest="electron_mass")

    sp = sub.add_parser("atlas", help="sweep all signatures into a JSON atlas")
    sp.set_defaults(fn=cmd_atlas)  # JSON only, so no --format
    sp.add_argument("--max-n", type=int, required=True, dest="max_n")
    sp.add_argument("--out", required=True, help="output path, or - for stdout")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if "p" in args:
            args.sig = _signature(args.p, args.q)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: keep the flush at shutdown quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except (CliError, *_raised(states, "StateError")) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (*_raised(factorize, "IsoError"), *_raised(ideals, "OracleFailure"),
            ValueError) as e:
        # bad input is a CliError or StateError; any other ValueError is ours
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    raise SystemExit(main())
