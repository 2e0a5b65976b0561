"""Traced child: wrap the orbits layer functions where their callers look them
up, run one CLI command or one query job, and print spans and counts as JSON.

    python3 perfbench/trace.py cli poset --type B3   # the CLI's stdout is hashed
    python3 perfbench/trace.py query < job.json      # a queries.py job

Every wrapped call updates per-name totals: calls, inclusive time (outermost
calls only, so recursion is not counted twice) and self time (the call minus
the wrapped calls directly inside it).  Calls of the functions in HOT run
thousands of times per command and are kept only in those totals; every other
call is also kept as a span (id, name, start, end, parent id, run id).  A run
is one CLI command, or one query.  Everything stays in memory until the end.
"""

import functools
import hashlib
import json
import sys
import time

import numpy as np

import orbits
from orbits import cli, coxeter, matrix_model, orbit_model, oracle

import queries

# (module, attribute path): the layer functions, named "<module>.<path>" in
# the output; a class stands for its __init__.  Missing ones are skipped, so
# the tracer keeps working when a function is removed.
TARGETS = [
    (coxeter, "enumerate_group"),
    (coxeter, "WeylTables"),
    (coxeter, "bruhat_leq"),
    (orbit_model, "enumerate_orbits"),
    (orbit_model, "closure_poset"),
    (orbit_model, "ClosurePoset"),
    (orbit_model, "ClosurePoset.to_json"),
    (orbit_model, "ClosurePoset.relation_pairs"),
    (orbit_model, "closure_leq_witness"),
    (orbit_model, "intersection_components"),
    (orbit_model, "rank1_act"),
    (orbit_model, "parse_label"),
    (oracle, "oracle_poset"),
    (oracle, "compare_posets"),
    (matrix_model, "enumerate_points"),
    (matrix_model, "orbit_partition"),
    (matrix_model, "matching_report"),
    (matrix_model, "verify_group_cells"),
    (cli, "main"),
    (queries, "answer"),
]
HOT = {
    "coxeter.enumerate_group",
    "coxeter.bruhat_leq",
    "orbit_model.closure_leq_witness",
    "orbit_model.intersection_components",
    "orbit_model.rank1_act",
    "orbit_model.parse_label",
}
ROOTS = {"cli.main", "queries.answer"}  # each call starts a new run id
SEARCHED = [orbits, cli, coxeter, matrix_model, orbit_model, oracle, queries]


def _poset_counts(counts, args, result):
    """Relations (pairs i <= j, i = j included) and Hasse edges of the first
    poset built; skipped when the poset keeps no dense `leq` matrix."""
    poset = args[0]
    leq = getattr(poset, "leq", None)
    if isinstance(leq, np.ndarray) and leq.dtype == bool:
        counts.setdefault("orbit_model.relations", int(np.count_nonzero(leq)))
    counts.setdefault("orbit_model.hasse_edges", len(poset.hasse))


def _max(key, size):
    def hook(counts, args, result):
        counts[key] = max(counts.get(key, 0), size(result))
    return hook


def _add(key, size):
    def hook(counts, args, result):
        counts[key] = counts.get(key, 0) + size(result)
    return hook


COUNT_HOOKS = {
    "orbit_model.enumerate_orbits": _max("orbit_model.labels", len),
    "orbit_model.ClosurePoset": _poset_counts,
    "orbit_model.closure_leq_witness": _add(
        "orbit_model.closure_leq_witness.found", lambda r: r is not None),
    "oracle.compare_posets": _add("oracle.diff_pairs", len),
    "matrix_model.enumerate_points": _max("matrix_model.points", len),
    "matrix_model.orbit_partition": _max("matrix_model.orbits", lambda r: len(r[0])),
}


class Tracer:
    def __init__(self):
        self.totals = {}  # name -> [calls, inclusive s, self s]
        self.counts = {}
        self.spans = []
        self.stack = []  # open calls: [start, wrapped-children s, span id or None]
        self.active = {}  # name -> open calls of that name
        self.next_id = 0
        self.run_id = -1

    def wrap(self, name, fn):
        keep = name not in HOT
        root = name in ROOTS
        hook = COUNT_HOOKS.get(name)
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, active = self.stack, self.active
        active[name] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if root:
                self.run_id += 1
            span_id = None
            if keep:
                span_id = self.next_id
                self.next_id += 1
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                took = end - frame[0]
                totals[0] += 1
                totals[2] += took - frame[1]
                if not active[name]:
                    totals[1] += took
                if stack:
                    stack[-1][1] += took
                if keep:
                    parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                    self.spans.append((span_id, name, frame[0], end, parent, self.run_id))
            if hook is not None and not active[name]:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self):
        for module, path in TARGETS:
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            name = "%s.%s" % (module.__name__.rsplit(".", 1)[-1], path)
            if isinstance(original, type):
                original.__init__ = self.wrap(name, original.__init__)
                continue
            wrapped = self.wrap(name, original)
            if owner is not module:
                setattr(owner, attr, wrapped)
                continue
            for m in SEARCHED:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def report(self):
        return {"totals": self.totals, "counts": self.counts, "spans": self.spans}


class HashingSink:
    """Stands in for sys.stdout: keeps the sha256 and size of what is written."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.bytes = 0

    def write(self, text):
        data = text.encode()
        self.sha256.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self):
        pass


def main(argv):
    tracer = Tracer()
    tracer.install()
    out = sys.stdout
    if argv[0] == "query":
        record = {"query": queries.run_job(json.load(sys.stdin))}
    else:
        sink = HashingSink()
        sys.stdout = sink
        try:
            code = cli.main(argv[1:])
        except SystemExit as e:
            code = e.code
        finally:
            sys.stdout = out
        record = {"exit": code, "sha256": sink.sha256.hexdigest(),
                  "output_bytes": sink.bytes}
    record.update(tracer.report())
    json.dump(record, out)


if __name__ == "__main__":
    main(sys.argv[1:])
