"""Command-line surface: enumerate, poset, compare, components, verify, matrix.

Exit codes: 0 success, 1 verification diff, 2 config error or out of
memory, 3 label parse/canonicality error.  Output is deterministic for a
fixed invocation.

The group is chosen by --type (named Cartan type, products via "x":
A1, A2, B2, G2, A3, A1xA1, ...) or --group pointing at a JSON file
{"type": "A2"} or {"cartan": [[2,-1],[-1,2]], "nonreduced": [1-based simple
indices], "weights": {"1-based nondivisible root index": weight}}.  The
ORBITS_CAP environment variable replaces the default enumeration cap; an
explicit --cap wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .coxeter import CapExceeded, DEFAULT_CAP, cartan_matrix, system_from_spec, word_str
from .orbit_model import (
    LabelParseError,
    NotGradedError,
    closure_leq_witness,
    closure_poset,
    enumerate_orbits,
    intersection_components,
    label_str,
    parse_label,
    strata_csv,
)
from .oracle import GeneratorCycleError, compare_posets, oracle_poset
from . import matrix_model

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _default_cap():
    env = os.environ.get("ORBITS_CAP")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError("ORBITS_CAP must be an integer, got %r" % env)
    return DEFAULT_CAP


def _cap(args):
    """--cap, else $ORBITS_CAP, else the default; it must be positive."""
    cap = args.cap if args.cap is not None else _default_cap()
    if cap <= 0:
        raise ConfigError("cap must be positive")
    return cap


def _group(args):
    """The group spec named by --type or read from the --group file, and its
    root system."""
    if args.type is not None:
        spec = {"type": args.type}
    else:
        with open(args.group) as fh:
            try:
                spec = json.load(fh)
            except RecursionError:
                raise ConfigError("group spec %r is nested too deeply" % args.group) from None
    rs, _ = system_from_spec(spec)
    return spec, rs


def _parse_stratum(text, rank):
    """Parse a stratum filter: 'all', '[]', '[1,3]', or '1,3' (1-based)."""
    s = text.strip()
    if s.lower() == "all":
        return None
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    if not s.strip():
        return ()
    try:
        idx = sorted(int(p) - 1 for p in s.split(","))
    except ValueError:
        raise ConfigError("bad stratum %r: expected e.g. [] or [1,2]" % text)
    if len(set(idx)) != len(idx) or idx[0] < 0 or idx[-1] >= rank:
        raise ConfigError(
            "bad stratum %r: indices must be distinct and in 1..%d" % (text, rank)
        )
    return tuple(idx)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args):
    cap = _cap(args)
    _, rs = _group(args)
    J = _parse_stratum(args.stratum, rs.rank)
    labels = enumerate_orbits(rs, J, cap=cap)
    _emit("".join(label_str(O) + "\n" for O in labels), args.out)
    return 0


def cmd_poset(args):
    cap = _cap(args)
    _, rs = _group(args)
    if args.format == "csv":  # the per-stratum summary needs no relation
        _emit(strata_csv(enumerate_orbits(rs, cap=cap)), args.out)
        return 0
    build = oracle_poset if args.engine == "oracle" else closure_poset
    poset = build(rs, cap=cap)
    _emit(poset.to_json() + "\n" if args.format == "json" else poset.to_dot(), args.out)
    return 0


def cmd_compare(args):
    cap = _cap(args)
    _, rs = _group(args)
    O1 = parse_label(rs, args.label1)
    O2 = parse_label(rs, args.label2)
    if O1 == O2:
        print("EQUAL")
        return 0
    for verdict, below, above in (("LEQ", O1, O2), ("GEQ", O2, O1)):
        wit = closure_leq_witness(below, above, cap=cap)
        if wit is not None:
            u, v = wit
            print("%s (witness u=%s, v=%s)" % (verdict, word_str(u), word_str(v)))
            return 0
    print("INCOMPARABLE")
    return 0


def cmd_components(args):
    cap = _cap(args)
    _, rs = _group(args)
    O = parse_label(rs, args.label)
    I = _parse_stratum(args.stratum, rs.rank)
    if I is None:
        raise ConfigError("components needs an explicit stratum, not 'all'")
    try:
        comps = intersection_components(O, I, cap=cap)
    except ValueError as e:
        raise ConfigError(str(e))
    _emit("".join(label_str(L) + "\n" for L in comps), args.out)
    return 0


def _matrix_n(rs):
    """The n with W = W(A_{n-1}), when the configured group is A1 or A2."""
    for n in matrix_model.SUPPORTED_N:
        if rs.cartan == cartan_matrix("A%d" % (n - 1)) and not rs.doubled:
            return n
    return None


def _verify_poset(rs, cap, inject_fault):
    """Formula poset against the move oracle, plus the grading check that the
    Hasse diagram relies on.  A failed check is reported, not raised."""
    formula = closure_poset(rs, cap=cap)
    report = {"labels": len(formula.rows), "diff": []}
    try:
        formula.hasse
    except NotGradedError as e:
        report["not_graded"] = {
            "pair": [label_str(L) for L in e.pair],
            "error": str(e),
        }
    try:
        oracle = oracle_poset(rs, cap=cap)
    except GeneratorCycleError as e:
        report["oracle_cycle"] = [label_str(L) for L in e.cycle]
    else:
        if inject_fault:
            # drop the first off-diagonal relation in row-major order
            bits = enumerate(np.unpackbits(row) for row in oracle.rows)  # padding bits are 0
            pair = next(((i, j) for i, row in bits for j in np.flatnonzero(row) if j != i), None)
            if pair is None:
                raise ConfigError("--inject-fault needs two related labels; this group has none")
            oracle.rows[pair[0], pair[1] >> 3] ^= 0x80 >> (pair[1] & 7)
        report["diff"] = compare_posets(formula, oracle)
    failed = report["diff"] or "not_graded" in report or "oracle_cycle" in report
    report["status"] = "FAIL" if failed else "PASS"
    return report


def _verify_matrix(n, q):
    partition = matrix_model.orbit_partition(n, q)
    report = matrix_model.matching_report(n, q, partition)
    cells = matrix_model.verify_group_cells(n, q, partition)
    ok = report.ok and cells.ok
    return {
        "status": "PASS" if ok else "FAIL",
        "n": n,
        "q": q,
        "labels": report.label_count,
        "orbits": report.orbit_count,
        "total_points": report.total_points,
        "collisions": [
            {"orbit": oid, "labels": names} for oid, names in report.collisions
        ],
        "unmatched_orbits": report.unmatched_orbits,
        "size_mismatches": [
            {"label": name, "actual": actual, "expected": expected}
            for name, actual, expected in report.size_mismatches
        ],
        "group_cells": {
            "status": "PASS" if cells.ok else "FAIL",
            "order": cells.group_order,
            "cells": [
                {"rho": rho, "size": size, "expected": expected}
                for rho, size, expected in cells.cells
            ],
            "mismatches": cells.mismatches,
        },
    }


def cmd_verify(args):
    cap = _cap(args)
    spec, rs = _group(args)
    n = _matrix_n(rs)
    suites = {}
    if args.suite in ("poset", "all"):
        suites["poset"] = _verify_poset(rs, cap, args.inject_fault)
    if args.suite == "matrix" or (args.suite == "all" and n is not None):
        if n is None:
            raise ConfigError("matrix suite needs the group to be A1 or A2")
        if args.q is not None:
            qs = [args.q]
        else:
            qs = [2, 3] if n == 2 else [2]
        for q in qs:
            suites["matrix(%d,%d)" % (n, q)] = _verify_matrix(n, q)
    ok = all(s["status"] == "PASS" for s in suites.values())
    print("PASS" if ok else "FAIL")
    report = {"group": spec.get("type", "custom"), "suites": suites}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


def cmd_matrix(args):
    n, q = args.n, args.q
    partition = matrix_model.orbit_partition(n, q)
    orbits, _ = partition
    report = matrix_model.matching_report(n, q, partition)
    cells = matrix_model.verify_group_cells(n, q, partition)
    print("points: %d" % report.total_points)
    print("orbits: %d  labels: %d" % (report.orbit_count, report.label_count))
    print("label matching bijective: %s" % ("yes" if report.bijective else "no"))
    for oid, names in report.collisions:
        print("  collision: orbit %d (size %d) <- %s"
              % (oid, len(orbits[oid]), ", ".join(names)))
    for name, actual, expected in report.size_mismatches:
        print("  size mismatch: %s has %d points, polynomial says %d"
              % (name, actual, expected))
    print("group cells: %s (order %d)" % ("ok" if cells.ok else "MISMATCH", cells.group_order))
    for msg in cells.mismatches:
        print("  " + msg)
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(matrix_model.orbit_dump(orbits, report), fh, indent=2)
            fh.write("\n")
    return 0 if report.ok and cells.ok else 1


def _add_group_args(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--type", help='named type, e.g. A2, B2, G2, A1xA1')
    g.add_argument("--group", help="path to a group-spec JSON file")
    p.add_argument("--cap", type=int, default=None,
                   help="orbit/element enumeration cap (default %d, or $ORBITS_CAP)"
                   % DEFAULT_CAP)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="orbits",
        description="Orbit combinatorics of wonderful group compactifications.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all orbit labels")
    _add_group_args(p)
    p.add_argument("--stratum", default="all", help="filter: all, [], [1], [1,2] (1-based)")
    p.add_argument("--out", default=None, help="write to file instead of stdout")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("poset", help="emit the closure poset")
    _add_group_args(p)
    p.add_argument("--format", choices=("json", "dot", "csv"), default="json")
    p.add_argument("--engine", choices=("formula", "oracle"), default="formula",
                   help="closed-form criterion or move-generated oracle")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("compare", help="compare two orbit labels in the closure order")
    _add_group_args(p)
    p.add_argument("label1")
    p.add_argument("label2")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("components", help="intersection components of a closure with a stratum")
    _add_group_args(p)
    p.add_argument("label")
    p.add_argument("--stratum", required=True, help="target stratum, e.g. [] or [1]")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("verify", help="cross-check the formula poset against oracles")
    _add_group_args(p)
    p.add_argument("--suite", choices=("poset", "matrix", "all"), default="all")
    p.add_argument("--q", type=int, default=None, help="field size for the matrix suite")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("matrix", help="finite-field orbit partition of P(M_n(F_q))")
    p.add_argument("--n", type=int, required=True, choices=matrix_model.SUPPORTED_N)
    p.add_argument("--q", type=int, required=True, choices=matrix_model.SUPPORTED_Q)
    p.add_argument("--dump", default=None, help="write per-orbit JSON to this file")
    p.set_defaults(func=cmd_matrix)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except LabelParseError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except CapExceeded as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except MemoryError as e:
        print("error: out of memory: %s" % (str(e) or "allocation failed"), file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
