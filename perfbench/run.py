"""Benchmark of the orbits package, driven from outside the package.

    python3 perfbench/run.py --workload poset-B3 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest    # the checks catch an injected fault
    python3 perfbench/run.py --pin         # rewrite perfbench/pinned.json from ./src

Run it from the root of a checkout; the package is imported from ./src.

Workloads, each a closed loop with one client:
  poset-B3    `orbits poset --type B3`, JSON output
  verify-A3   `orbits verify --type A3 --suite poset`
  matrix-3-3  `orbits matrix --n 3 --q 3`; exit code 1 and the collision
              report are the expected output (acceptance criterion 2 is red)
  query-A4    label queries over A4 through the Python API (queries.py); the
              seed picks PASS_SIZE of the POOL_SIZE pinned queries and their order

query-A4 is not in BENCHMARK.json, so no change is gated on it: its pass
time moved by up to 70% between 30 s runs with the host's speed state
(quartile spread 0.26 over ten runs; see below).  Run it by hand.

On a CLI workload one operation is one CLI command in a fresh interpreter; on
query-A4 it is one query.  The end-to-end metrics (--trace 0) are:
  wall_s         mean time of one CLI command, or of one pass over the stream
  peak_rss_mb    median peak RSS of the child doing the work (os.wait4)
  setup_s        median of SETUP_REPEATS set-ups: a fresh interpreter running
                 `import orbits.cli`, or (query-A4) system_from_spec +
                 enumerate_orbits + label_str over all labels
  queries_per_s  operations completed per second of measured time
  query_p99_ms   operation latency, 99th percentile by nearest rank (on a CLI
                 workload, with fewer than 100 commands, the slowest one)
The host this was built on (2 CPUs) alternates between a fast and a slow
state, 35-70% apart, for seconds at a time.  The median of a run's commands
jumps between the two states while the mean moves with the share of time
spent in each: over four sets of ten runs the quartile spread of the median
reached 0.23 and that of the mean 0.15.  So wall_s is a mean, and
query_p50_ms, the median latency, is printed as a line but is not in
BENCHMARK.json.  failed_frac, the share of operations whose output or exit
code fails its check, is printed as a line too; the result carries it as
`attempted` and `failed`.

--trace 1 alternates untraced and traced children (trace.py) and prints the
per-layer metrics of the traced ones, with the tracing overhead; the spans go
to .perfbench/trace-<workload>-seed<n>.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS_PATH = os.path.join(HERE, "pinned.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
PY = sys.executable
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 5
QUERY_SETUPS = 3
QUERY_TYPE, POOL_SIZE, PASS_SIZE = "A4", 2000, 1000

CLI_WORKLOADS = {
    "poset-B3": ["poset", "--type", "B3"],
    "verify-A3": ["verify", "--type", "A3", "--suite", "poset"],
    "matrix-3-3": ["matrix", "--n", "3", "--q", "3"],
}
SELFTEST_CLI = {
    "poset-A2": ["poset", "--type", "A2"],
    "poset-B2": ["poset", "--type", "B2"],
    "matrix-2-3": ["matrix", "--n", "2", "--q", "3"],
    "verify-A2": ["verify", "--type", "A2", "--suite", "poset"],
}
SELFTEST_QUERIES = ("A2", 24)
WORKLOADS = list(CLI_WORKLOADS) + ["query-A4"]
# Printed but not in BENCHMARK.json: see the module docstring.
UNGATED = {"query_p50_ms": "ms"}
WITNESS_RE = re.compile(r"^(LEQ|GEQ) \(witness u=(\S+), v=(\S+)\)$")


class Child(NamedTuple):
    code: int
    out: bytes
    err: bytes
    wall: float
    rss_mb: float


def run_child(argv, stdin=None):
    """Run argv to the end; its wall time and its own peak RSS (from wait4,
    not the running maximum over all children)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        if stdin is not None:
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:
                pass
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, out, err[0], wall, usage.ru_maxrss / 1024)


def closed_loop(op, seconds):
    """Call op() back to back until the next call would end after `seconds`;
    at least once."""
    results, t0 = [], time.perf_counter()
    while True:
        results.append(op())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def answer_hash(answer):
    return sha256(answer.encode())[:12]


# ---- checks -----------------------------------------------------------------

def hasse_counts(out):
    """(labels, relations, Hasse edges) of `orbits poset` JSON output.  The
    relations are the pairs i <= j, i = j included, from the transitive
    closure of the edges, computed as bitsets."""
    poset = json.loads(out)
    n, edges = len(poset["labels"]), poset["hasse"]
    below = [[] for _ in range(n)]
    pending = [0] * n
    for i, j in edges:
        below[j].append(i)
        pending[i] += 1
    above = [0] * n
    ready = [j for j in range(n) if not pending[j]]
    while ready:
        j = ready.pop()
        for i in below[j]:
            above[i] |= above[j] | (1 << j)
            pending[i] -= 1
            if not pending[i]:
                ready.append(i)
    if any(pending):
        return n, -1, len(edges)  # a cycle: not a poset
    return n, n + sum(a.bit_count() for a in above), len(edges)


def cli_problems(pin, code, digest, out=None):
    """What is wrong with one CLI result against its pinned entry."""
    problems = []
    if code != pin["exit"]:
        problems.append("exit code %s, pinned %s" % (code, pin["exit"]))
    if digest != pin["sha256"]:
        problems.append("stdout sha256 %s, pinned %s" % (digest[:16], pin["sha256"][:16]))
    if out is not None and "relations" in pin:
        got = hasse_counts(out)
        want = (pin["labels"], pin["relations"], pin["hasse_edges"])
        if got != want:
            problems.append("labels/relations/Hasse edges %s, pinned %s" % (got, want))
    return problems


def witness_ok(rs, query, answer):
    """Re-check a LEQ/GEQ witness (u, v) against the closure criterion with the
    subword Bruhat oracle; other answers pass."""
    from orbits.coxeter import bruhat_leq_subword, parse_word
    from orbits.orbit_model import parse_label

    m = WITNESS_RE.match(answer)
    if query[0] != "compare" or not m:
        return True
    lo, hi = parse_label(rs, query[1]), parse_label(rs, query[2])
    if m.group(1) == "GEQ":
        lo, hi = hi, lo
    u, v = parse_word(rs, m.group(2)), parse_word(rs, m.group(3))

    def in_parabolic(w, J):
        return set(w.word) <= set(J)

    def minimal_mod(w, J):
        return all((w * rs.simple_reflection(j)).length > w.length for j in J)

    return (set(lo.I) <= set(hi.I)
            and in_parabolic(u, lo.I) and in_parabolic(v, hi.I) and minimal_mod(v, lo.I)
            and (hi.rho * v).length == hi.rho.length - v.length
            and bruhat_leq_subword(hi.sigma * hi.rho * v, lo.sigma * lo.rho * u)
            and bruhat_leq_subword(hi.tau * v * u.inverse(), lo.tau))


def bad_answers(rs, pool, hashes, order, result):
    """Queries of a worker result whose answer is not the pinned one or whose
    witness fails the re-check; a later pass that differs from the first
    counts all its queries."""
    bad = sum(answer_hash(a) != hashes[i] or not witness_ok(rs, pool[i], a)
              for i, a in zip(order, result["answers"]))
    first, *later = result["pass_digests"]
    return bad + len(order) * sum(d != first for d in later)


def query_pool(group_type, size, pins):
    """(rs, pool, pinned answer hashes); every hash is None when the pool
    itself differs from the pinned one."""
    import queries
    from orbits.coxeter import system_from_spec

    rs, _ = system_from_spec({"type": group_type})
    pool = queries.make_pool(rs, size)
    pin = pins["queries"][group_type]
    if sha256(json.dumps(pool).encode()) != pin["pool_sha256"]:
        print("query pool differs from the pinned pool", file=sys.stderr)
        return rs, pool, [None] * len(pool)
    return rs, pool, pin["answers"]


def run_queries(group_type, queries_list, seconds, setups, max_passes=None, traced=False):
    job = {"type": group_type, "queries": queries_list, "seconds": seconds,
           "setups": setups, "max_passes": max_passes}
    argv = [PY, os.path.join(HERE, "trace.py"), "query"] if traced else [
        PY, os.path.join(HERE, "queries.py")]
    child = run_child(argv, json.dumps(job).encode())
    if child.code != 0:
        raise RuntimeError("query worker failed (exit %s): %s"
                           % (child.code, child.err.decode()[-2000:]))
    return child, json.loads(child.out)


# ---- the two modes ------------------------------------------------------------

def setup_times():
    return [run_child([PY, "-c", "import orbits.cli"]).wall for _ in range(SETUP_REPEATS)]


def cli_argv(args):
    return [PY, "-m", "orbits.cli"] + args


def end_to_end(walls, rss, setup, latencies, measured_s, ops):
    return {
        "wall_s": statistics.mean(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
        "queries_per_s": ops / measured_s,
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p99_ms": percentile(latencies, 0.99) * 1e3,
    }


def measure_cli(name, seconds, pins):
    pin = pins["cli"][name]
    setup = setup_times()
    runs = closed_loop(lambda: run_child(cli_argv(CLI_WORKLOADS[name])), seconds)
    failed = 0
    for k, c in enumerate(runs):
        problems = cli_problems(pin, c.code, sha256(c.out), c.out if k == 0 else None)
        for p in problems:
            print("check failed: %s" % p, file=sys.stderr)
        failed += bool(problems)
    walls = [c.wall for c in runs]
    metrics = end_to_end(walls, [c.rss_mb for c in runs], setup, walls, sum(walls), len(runs))
    note = "%d CLI commands, %d set-ups" % (len(runs), len(setup))
    return metrics, len(runs), failed, note


def measure_queries(seed, seconds, pins):
    rs, pool, hashes = query_pool(QUERY_TYPE, POOL_SIZE, pins)
    order = random.Random(seed).sample(range(len(pool)), PASS_SIZE)
    child, res = run_queries(QUERY_TYPE, [pool[i] for i in order], seconds, QUERY_SETUPS)
    attempted = len(order) * len(res["pass_s"])
    failed = bad_answers(rs, pool, hashes, order, res)
    metrics = end_to_end(res["pass_s"], [child.rss_mb], res["setup_s"], res["latency_s"],
                         sum(res["pass_s"]), attempted)
    note = "%d passes of %d queries, %d set-ups" % (len(res["pass_s"]), len(order),
                                                   len(res["setup_s"]))
    return metrics, attempted, failed, note


def layer_values(record, per_layer):
    """Per-layer metrics of one traced child's record."""
    totals, counts = record["totals"], record["counts"]
    column = {"calls": 0, "s": 1, "self_s": 2}
    values = {}
    for name in per_layer:
        base, _, kind = name.rpartition(".")
        if name in counts:
            values[name] = counts[name]
        elif kind in column and base in totals:
            values[name] = totals[base][column[kind]]
        else:
            values[name] = 0
    calls = totals.get("orbit_model.closure_leq_witness", [0])[0]
    found = counts.get("orbit_model.closure_leq_witness.found", 0)
    values["orbit_model.closure_leq_witness.found_frac"] = found / calls if calls else 0
    rel = counts.get("orbit_model.relations", 0)
    values["orbit_model.hasse_per_relation"] = (
        counts.get("orbit_model.hasse_edges", 0) / rel if rel else 0)
    values["cli.output_bytes"] = record.get("output_bytes", 0)
    return values


def trace_run(name, seed, seconds, per_layer, pins, env_info):
    """Untraced and traced children in turn; per-layer metrics from the traced."""
    attempted = failed = 0
    if name in CLI_WORKLOADS:
        pin = pins["cli"][name]
        setup = statistics.median(setup_times())
        args = CLI_WORKLOADS[name]

        def pair():
            return (run_child(cli_argv(args)),
                    run_child([PY, os.path.join(HERE, "trace.py"), "cli"] + args))

        pairs = closed_loop(pair, seconds)
        records = []
        for plain, traced in pairs:
            record = json.loads(traced.out)
            records.append(record)
            for code, digest in ((plain.code, sha256(plain.out)),
                                 (record["exit"], record["sha256"])):
                problems = cli_problems(pin, code, digest)
                for p in problems:
                    print("check failed: %s" % p, file=sys.stderr)
                attempted += 1
                failed += bool(problems)
        untraced = [p.wall for p, _ in pairs]
        traced_walls = [t.wall for _, t in pairs]
        accounted = [r["totals"].get("cli.main", [0, 0])[1] / (t.wall - setup)
                     for r, (_, t) in zip(records, pairs)]
    else:
        rs, pool, hashes = query_pool(QUERY_TYPE, POOL_SIZE, pins)
        order = random.Random(seed).sample(range(len(pool)), len(pool))
        stream = [pool[i] for i in order]

        def pair():
            return (run_queries(QUERY_TYPE, stream, 0, 1, max_passes=1)[1],
                    run_queries(QUERY_TYPE, stream, 0, 1, max_passes=1, traced=True)[1])

        pairs = closed_loop(pair, seconds)
        records = [t for _, t in pairs]
        for plain, traced in pairs:
            for res in (plain, traced["query"]):
                attempted += len(order)
                failed += bad_answers(rs, pool, hashes, order, res)
        untraced = [p["pass_s"][0] for p, _ in pairs]
        traced_walls = [t["query"]["pass_s"][0] for _, t in pairs]
        accounted = [t["totals"].get("queries.answer", [0, 0])[1] / t["query"]["pass_s"][0]
                     for t in records]
    per_record = [layer_values(r, per_layer) for r in records]
    metrics = {m: statistics.median_low(v[m] for v in per_record) for m in per_record[0]}
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1
    metrics["trace.accounted_frac"] = statistics.median(accounted)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (name, seed))
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "env": env_info,
                   "metrics": metrics, "runs": records}, fh)
    note = "%d untraced + %d traced children; spans in %s" % (
        len(pairs), len(pairs), os.path.relpath(path, ROOT))
    return metrics, attempted, failed, note


# ---- pinning and the self-test --------------------------------------------------

def pin_cli(args):
    c = run_child(cli_argv(args))
    pin = {"exit": c.code, "sha256": sha256(c.out), "bytes": len(c.out)}
    if args[0] == "poset":
        pin["labels"], pin["relations"], pin["hasse_edges"] = hasse_counts(c.out)
    return pin


def pin_queries(group_type, size):
    import queries
    from orbits.coxeter import system_from_spec

    rs, _ = system_from_spec({"type": group_type})
    pool = queries.make_pool(rs, size)
    _, res = run_queries(group_type, pool, 0, 1, max_passes=1)
    bad = [q for q, a in zip(pool, res["answers"]) if not witness_ok(rs, q, a)]
    if bad:
        raise RuntimeError("witnesses fail the subword re-check: %s" % bad[:3])
    return {"pool_sha256": sha256(json.dumps(pool).encode()),
            "answers": [answer_hash(a) for a in res["answers"]]}


def pin():
    pins = {"cli": {}, "queries": {}}
    for name, args in list(CLI_WORKLOADS.items()) + list(SELFTEST_CLI.items()):
        pins["cli"][name] = pin_cli(args)
    for group_type, size in ((QUERY_TYPE, POOL_SIZE), SELFTEST_QUERIES):
        pins["queries"][group_type] = pin_queries(group_type, size)
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % os.path.relpath(PINS_PATH, ROOT))
    return 0


def selftest(pins):
    """The checks pass on tiny clean inputs and fail on injected faults."""
    cases = []  # (name, failed_frac, a fault is expected)
    for name, args in SELFTEST_CLI.items():
        c = run_child(cli_argv(args))
        cases.append((name, float(bool(cli_problems(pins["cli"][name], c.code,
                                                     sha256(c.out), c.out))), False))
    c = run_child(cli_argv(SELFTEST_CLI["verify-A2"] + ["--inject-fault"]))
    cases.append(("verify-A2 --inject-fault",
                  float(bool(cli_problems(pins["cli"]["verify-A2"], c.code, sha256(c.out)))),
                  True))
    group_type, size = SELFTEST_QUERIES
    rs, pool, hashes = query_pool(group_type, size, pins)
    order = list(range(len(pool)))
    _, res = run_queries(group_type, pool, 0, 1, max_passes=1)
    cases.append(("queries-%s" % group_type,
                  bad_answers(rs, pool, hashes, order, res) / len(pool), False))
    k = next(k for k, a in enumerate(res["answers"]) if WITNESS_RE.match(a))
    res["answers"][k] = "INCOMPARABLE"
    cases.append(("queries-%s with one answer changed" % group_type,
                  bad_answers(rs, pool, hashes, order, res) / len(pool), True))
    ok = True
    for name, frac, fault in cases:
        good = (frac > 0) == fault
        ok &= good
        print("%-40s failed_frac %.4f  %s" % (name, frac, "ok" if good else "WRONG"))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


# ---- main ---------------------------------------------------------------------

def environment_info():
    import ctypes
    import glob

    import numpy

    blas = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    if libs:
        try:
            blas = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": blas, "machine": platform.machine()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orbits", "cli.py")):
        print("error: no orbits package under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    if not (args.workload or args.selftest or args.pin):
        ap.error("one of --workload, --selftest and --pin is required")

    # Same settings on every commit: one process at a time, BLAS on nproc threads.
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ.pop("ORBITS_CAP", None)
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    sys.path.insert(0, SRC)
    env_info = environment_info()
    if args.pin:
        return pin()
    with open(PINS_PATH) as fh:
        pins = json.load(fh)
    if args.selftest:
        return selftest(pins)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        metrics, attempted, failed, note = trace_run(
            args.workload, args.seed, args.seconds, [m["name"] for m in listed],
            pins, env_info)
    elif args.workload in CLI_WORKLOADS:
        metrics, attempted, failed, note = measure_cli(args.workload, args.seconds, pins)
    else:
        metrics, attempted, failed, note = measure_queries(args.seed, args.seconds, pins)

    print("# %s seed %d, %g s: %s" % (args.workload, args.seed, args.seconds, note))
    print("# env %s" % json.dumps(env_info, sort_keys=True))
    units = dict(UNGATED, **{m["name"]: m["unit"] for m in listed})
    for name, value in metrics.items():
        print("%-45s %14.6g %s%s" % (name, value, units[name],
                                     " (not gated)" if name in UNGATED else ""))
    print("%-45s %14.6g (%d of %d operations)" % ("failed_frac", failed / attempted,
                                                 failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
