"""The query workload: label queries over one root system through the Python API.

A query is ["compare", label1, label2], answered as `orbits compare` answers
it (EQUAL, LEQ/GEQ with the first witness, or INCOMPARABLE), or
["components", label, [0-based stratum indices]], answered with the labels of
`intersection_components`, one per line.

The parent builds a fixed pool of queries with `make_pool` and pins the pool's
answers; a run draws its stream from the pool with the workload seed.  Run as a
script, this module is the worker child: it reads a job from stdin, sets up the
root system and all its labels, answers the queries in a closed loop with one
client, and prints the answers and the timings as one JSON object.  The worker
looks every orbits function up on its module at call time, so the traced run
sees the calls.
"""

import hashlib
import json
import random
import statistics
import sys
import time

from orbits import coxeter, orbit_model

POOL_SEED = 20251219  # fixed: the pool and its pinned answers never depend on --seed
COMPONENTS_SHARE = 1 / 8  # queries that ask for intersection components
RANDOM_SHARE = 1 / 2  # compare queries on two random labels; the rest are near pairs


def _near(O, rng):
    """A label comparable to O: an intersection component of O at a sub-stratum
    one smaller, or O moved up by one to three random rank-1 parabolic steps."""
    if O.I and rng.random() < 0.5:
        j = rng.choice(O.I)
        comps = orbit_model.intersection_components(O, tuple(i for i in O.I if i != j))
        return rng.choice(comps)
    for _ in range(rng.randint(1, 3)):
        side = rng.choice((orbit_model.LEFT, orbit_model.RIGHT))
        O = orbit_model.rank1_act(O, side, rng.randrange(O.system.rank))
    return O


def make_pool(rs, size):
    """`size` queries over all labels of rs, drawn with the fixed POOL_SEED."""
    labels = orbit_model.enumerate_orbits(rs)
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(size):
        O = rng.choice(labels)
        r = rng.random()
        if r < COMPONENTS_SHARE:
            I = [i for i in O.I if rng.random() < 0.5]
            pool.append(["components", orbit_model.label_str(O), I])
            continue
        if r < COMPONENTS_SHARE + (1 - COMPONENTS_SHARE) * RANDOM_SHARE:
            P = rng.choice(labels)
        else:
            P = _near(O, rng)
        if rng.random() < 0.5:
            O, P = P, O
        pool.append(["compare", orbit_model.label_str(O), orbit_model.label_str(P)])
    return pool


def answer(rs, query):
    kind, a, b = query
    O1 = orbit_model.parse_label(rs, a)
    if kind == "components":
        comps = orbit_model.intersection_components(O1, tuple(b))
        return "".join(orbit_model.label_str(C) + "\n" for C in comps)
    O2 = orbit_model.parse_label(rs, b)
    if O1 == O2:
        return "EQUAL"
    for verdict, lo, hi in (("LEQ", O1, O2), ("GEQ", O2, O1)):
        wit = orbit_model.closure_leq_witness(lo, hi)
        if wit is not None:
            u, v = wit
            return "%s (witness u=%s, v=%s)" % (
                verdict, coxeter.word_str(u), coxeter.word_str(v))
    return "INCOMPARABLE"


def answers_digest(answers):
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


def setup(group_type):
    """What a query server does before its first query: the root system, all
    labels and their names."""
    rs, _ = coxeter.system_from_spec({"type": group_type})
    names = [orbit_model.label_str(O) for O in orbit_model.enumerate_orbits(rs)]
    return rs, len(names)


def run_job(job):
    """Set up `job["setups"]` times, then answer job["queries"] in passes until
    job["seconds"] would be exceeded or job["max_passes"] are done."""
    clock = time.perf_counter
    setup_s = []
    for _ in range(job["setups"]):
        t0 = clock()
        rs, _ = setup(job["type"])
        setup_s.append(clock() - t0)
    queries = job["queries"]
    deadline = clock() + job["seconds"]
    pass_s, latency_s, digests, first = [], [], [], None
    while True:
        answers = []
        t_pass = clock()
        for q in queries:
            t0 = clock()
            answers.append(answer(rs, q))
            latency_s.append(clock() - t0)
        pass_s.append(clock() - t_pass)
        digests.append(answers_digest(answers))
        if first is None:
            first = answers
        if len(pass_s) == job.get("max_passes") or clock() + statistics.median(pass_s) > deadline:
            break
    return {"setup_s": setup_s, "pass_s": pass_s, "latency_s": latency_s,
            "answers": first, "pass_digests": digests}


if __name__ == "__main__":
    json.dump(run_job(json.load(sys.stdin)), sys.stdout)
