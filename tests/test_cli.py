"""Command-line behavior: output shapes, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from orbits import cli
from orbits.cli import main
from orbits.coxeter import build_root_system, cartan_matrix
from orbits.orbit_model import (
    ClosurePoset,
    closure_poset,
    enumerate_orbits,
    label_str,
    parse_label,
)
from orbits.oracle import GeneratorCycleError

A1_LINES = [
    "I=[];sigma=e;tau=e;rho=e",
    "I=[];sigma=e;tau=1;rho=e",
    "I=[];sigma=1;tau=e;rho=e",
    "I=[];sigma=1;tau=1;rho=e",
    "I=[1];sigma=e;tau=e;rho=e",
    "I=[1];sigma=e;tau=e;rho=1",
]


def run_main(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------- golden output

# stdout sha256 and exit code of poset and verify commands: a change to how
# the order is computed or stored must keep these bytes
GOLDEN = {
    "poset --type A2 --format json":
        ("29f8b06242e69f0069c0188e6c4772d8d4d81cbb0e51d61be76dbcfb1eab67b0", 0),
    "poset --type A2 --format dot":
        ("07a1434d3895d5af40db49b71b8dba7855e1db2390e3476161870c4d5986f005", 0),
    "poset --type B2 --format json":
        ("32104b7d433b6e6125ab0b8caba66618d023b0f889c7c2624b206033aa582e84", 0),
    "poset --type B2 --format dot":
        ("18489719fcc396e43955636589d62f7253eb57df524fd87e27236657609adae3", 0),
    "poset --type G2 --format json":
        ("24a1d39be03b5926f46699fe3ffb60540dc47ceebf31488d994b2353373764fb", 0),
    "poset --type G2 --format dot":
        ("2197375dedc17e9f46ac6e60008c81390abb34dc5cbd1c149eb64eaee3e3dbea", 0),
    "poset --type A3 --format json":
        ("2d828b2d981644fac5776a6f91d9e03e602c99d4912111520a920c3c9517454d", 0),
    "poset --type A3 --format dot":
        ("8e897a79d1e5e1d291ffab5f3efb23c329e5a07acb30aff0af22895b0bf1e7db", 0),
    "poset --type A1xA2 --format json":
        ("9b7dad2dfa0eb8094d249872d51ff4941ab0482d77b2184b274181fdc8d6d030", 0),
    "poset --type A1xA2 --format dot":
        ("bff4ff4a7e688a12c5a0a0ea1a391006f7016af544cf6794f7f4ffeed94af67e", 0),
    "verify --type A2 --suite poset --inject-fault":
        ("b9109f5e5afdc0b8745d4991f53a08c36daa113b38bd43f51fe318304273ff1a", 1),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(capsys, command):
    rc, out, _ = run_main(capsys, *command.split())
    assert (hashlib.sha256(out.encode()).hexdigest(), rc) == GOLDEN[command]


# ---------------------------------------------------------------- enumerate


def test_enumerate_a1(capsys):
    rc, out, _ = run_main(capsys, "enumerate", "--type", "A1")
    assert rc == 0
    assert out.splitlines() == A1_LINES


def test_enumerate_stratum_filter(capsys):
    rc, out, _ = run_main(capsys, "enumerate", "--type", "A1", "--stratum", "[]")
    assert rc == 0
    assert out.splitlines() == A1_LINES[:4]
    rc, out, _ = run_main(capsys, "enumerate", "--type", "A1", "--stratum", "[1]")
    assert rc == 0
    assert out.splitlines() == A1_LINES[4:]


def test_enumerate_rank_zero(capsys, tmp_path):
    spec = tmp_path / "rank0.json"
    spec.write_text('{"cartan": []}')
    rc, out, _ = run_main(capsys, "enumerate", "--group", str(spec))
    assert rc == 0
    assert out.splitlines() == ["I=[];sigma=e;tau=e;rho=e"]


def test_enumerate_round_trip(capsys):
    rc, out, _ = run_main(capsys, "enumerate", "--type", "A2")
    assert rc == 0
    rs = build_root_system(cartan_matrix("A2"))
    parsed = [parse_label(rs, line) for line in out.splitlines()]
    assert parsed == enumerate_orbits(rs)


def test_enumerate_deterministic(capsys):
    rc1, out1, _ = run_main(capsys, "enumerate", "--type", "B2")
    rc2, out2, _ = run_main(capsys, "enumerate", "--type", "B2")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_enumerate_to_file(capsys, tmp_path):
    out_file = tmp_path / "labels.txt"
    rc, out, _ = run_main(capsys, "enumerate", "--type", "A1", "--out", str(out_file))
    assert rc == 0
    assert out == ""
    assert out_file.read_text().splitlines() == A1_LINES


# ---------------------------------------------------------------- poset


def test_poset_json(capsys):
    rc, out, _ = run_main(capsys, "poset", "--type", "A1", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert set(obj) == {"labels", "hasse"}
    assert obj["labels"] == A1_LINES
    assert sorted(map(tuple, obj["hasse"])) == [
        (0, 4), (1, 0), (1, 5), (2, 0), (2, 5), (3, 1), (3, 2), (5, 4),
    ]


def test_poset_engines_agree_bytewise(capsys):
    rc1, out1, _ = run_main(capsys, "poset", "--type", "A2", "--engine", "formula")
    rc2, out2, _ = run_main(capsys, "poset", "--type", "A2", "--engine", "oracle")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_poset_dot_and_csv(capsys):
    rc, out, _ = run_main(capsys, "poset", "--type", "A1", "--format", "dot")
    assert rc == 0
    assert out.startswith("digraph closure {")
    assert "rankdir=BT;" in out
    assert out.count(" -> ") == 8
    rc, out, _ = run_main(capsys, "poset", "--type", "A1", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == ["stratum,count,min_dim,max_dim", "[],4,0,2", "[1],2,2,3"]


def test_poset_csv_builds_no_relation(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("poset --format csv built a relation")

    monkeypatch.setattr(cli, "closure_poset", refuse)
    monkeypatch.setattr(cli, "oracle_poset", refuse)
    expected = {
        "B2": '[],64,0,8\n[1],32,2,9\n[2],32,2,9\n"[1,2]",8,6,10\n',
        "A3": (
            "[],576,0,12\n[1],288,2,13\n[2],288,2,13\n[3],288,2,13\n"
            '"[1,2]",96,5,14\n"[1,3]",144,4,14\n"[2,3]",96,5,14\n"[1,2,3]",24,9,15\n'
        ),
    }
    for name, rows in expected.items():
        for engine in ("formula", "oracle"):
            rc, out, _ = run_main(
                capsys, "poset", "--type", name, "--format", "csv", "--engine", engine
            )
            assert rc == 0
            assert out == "stratum,count,min_dim,max_dim\n" + rows


# ---------------------------------------------------------------- compare


def test_compare_equal(capsys):
    rc, out, _ = run_main(
        capsys, "compare", "--type", "A1", A1_LINES[0], A1_LINES[0]
    )
    assert rc == 0 and out == "EQUAL\n"


def test_compare_leq_with_witness(capsys):
    rc, out, _ = run_main(
        capsys, "compare", "--type", "A1",
        "I=[];sigma=e;tau=1;rho=e", "I=[1];sigma=e;tau=e;rho=1",
    )
    assert rc == 0
    assert out == "LEQ (witness u=e, v=1)\n"


def test_compare_geq_and_incomparable(capsys):
    rc, out, _ = run_main(
        capsys, "compare", "--type", "A1",
        "I=[1];sigma=e;tau=e;rho=1", "I=[];sigma=e;tau=1;rho=e",
    )
    assert rc == 0 and out.startswith("GEQ (witness ")
    rc, out, _ = run_main(
        capsys, "compare", "--type", "A1",
        "I=[];sigma=e;tau=1;rho=e", "I=[];sigma=1;tau=e;rho=e",
    )
    assert rc == 0 and out == "INCOMPARABLE\n"


def test_compare_non_canonical_label_exits_3(capsys):
    rc, _, err = run_main(
        capsys, "compare", "--type", "A2",
        "I=[2];sigma=1.2;tau=e;rho=2", "I=[1,2];sigma=e;tau=e;rho=e",
    )
    assert rc == 3
    assert "canonical label: I=[2];sigma=1;tau=e;rho=e" in err


@pytest.mark.parametrize(
    "stratum, canonical", [("2,1", "1,2"), ("1,1", "1"), ("01", "1")]
)
def test_compare_non_canonical_stratum_exits_3(capsys, stratum, canonical):
    rc, out, err = run_main(
        capsys, "compare", "--type", "A2",
        "I=[%s];sigma=e;tau=e;rho=e" % stratum, "I=[1,2];sigma=e;tau=e;rho=e",
    )
    assert rc == 3 and out == ""
    assert "I=[%s] is not a canonical stratum" % stratum in err
    assert "canonical label: I=[%s];sigma=e;tau=e;rho=e" % canonical in err


@pytest.mark.parametrize("stratum", ["3", "0"])
def test_compare_out_of_range_stratum_index_exits_3(capsys, stratum):
    rc, out, err = run_main(
        capsys, "compare", "--type", "A2",
        "I=[%s];sigma=e;tau=e;rho=e" % stratum, "I=[];sigma=e;tau=e;rho=e",
    )
    assert rc == 3 and out == ""
    assert "stratum index %s out of range 1..2" % stratum in err


# ---------------------------------------------------------------- components


def test_components_command(capsys):
    rc, out, _ = run_main(
        capsys, "components", "--type", "A1",
        "I=[1];sigma=e;tau=e;rho=1", "--stratum", "[]",
    )
    assert rc == 0
    assert sorted(out.splitlines()) == [
        "I=[];sigma=1;tau=e;rho=e",
        "I=[];sigma=e;tau=1;rho=e",
    ]


def test_components_disjoint_stratum_is_empty(capsys):
    rc, out, _ = run_main(
        capsys, "components", "--type", "A2",
        "I=[1];sigma=e;tau=e;rho=e", "--stratum", "[2]",
    )
    assert rc == 0 and out == ""


def test_components_bad_stratum(capsys):
    rc, _, err = run_main(
        capsys, "components", "--type", "A2",
        "I=[1];sigma=e;tau=e;rho=e", "--stratum", "[9]",
    )
    assert rc == 2 and "error" in err


def test_components_out_of_range_stratum_index_exits_3(capsys):
    rc, out, err = run_main(
        capsys, "components", "--type", "A2",
        "I=[4];sigma=e;tau=e;rho=e", "--stratum", "[]",
    )
    assert rc == 3 and out == ""
    assert "stratum index 4 out of range 1..2" in err


# ---------------------------------------------------------------- verify


def test_verify_a1_all_passes(capsys):
    rc, out, _ = run_main(capsys, "verify", "--type", "A1", "--suite", "all")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "PASS"
    report = json.loads("\n".join(lines[1:]))
    assert set(report["suites"]) == {"poset", "matrix(2,2)", "matrix(2,3)"}
    assert all(s["status"] == "PASS" for s in report["suites"].values())


def test_verify_poset_only(capsys):
    rc, out, _ = run_main(capsys, "verify", "--type", "B2", "--suite", "poset")
    assert rc == 0
    assert out.splitlines()[0] == "PASS"


def test_verify_inject_fault_fails(capsys):
    rc, out, _ = run_main(
        capsys, "verify", "--type", "A1", "--suite", "poset", "--inject-fault"
    )
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL"
    report = json.loads("\n".join(lines[1:]))
    assert len(report["suites"]["poset"]["diff"]) >= 1
    entry = report["suites"]["poset"]["diff"][0]
    assert set(entry) == {"below", "above", "only_in"}


def test_verify_inject_fault_without_a_relation_exits_2(capsys, tmp_path):
    spec = tmp_path / "rank0.json"
    spec.write_text('{"cartan": []}')
    rc, out, err = run_main(
        capsys, "verify", "--group", str(spec), "--suite", "poset", "--inject-fault"
    )
    assert rc == 2
    assert out == ""
    assert err == "error: --inject-fault needs two related labels; this group has none\n"


def test_verify_reports_ungraded_formula_poset(capsys, monkeypatch):
    def ungraded(rs, cap):
        p = closure_poset(rs, cap=cap)
        leq = p.leq.copy()
        i, j, k = next(
            (i, j, k) for i, j in p.hasse for a, k in p.hasse if a == j
        )
        leq[i, k] = False  # no longer transitive
        return ClosurePoset(p.labels, np.packbits(leq, axis=1))

    monkeypatch.setattr(cli, "closure_poset", ungraded)
    rc, out, _ = run_main(capsys, "verify", "--type", "A1", "--suite", "poset")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL"
    poset = json.loads("\n".join(lines[1:]))["suites"]["poset"]
    assert poset["status"] == "FAIL"
    pair = poset["not_graded"]["pair"]
    assert len(pair) == 2 and all(name in A1_LINES for name in pair)
    assert pair[0] in poset["not_graded"]["error"]


def test_verify_reports_oracle_cycle(capsys, monkeypatch):
    def cyclic(rs, cap):
        raise GeneratorCycleError("cycle", enumerate_orbits(rs)[:2])

    monkeypatch.setattr(cli, "oracle_poset", cyclic)
    rc, out, _ = run_main(capsys, "verify", "--type", "A1", "--suite", "poset")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL"
    poset = json.loads("\n".join(lines[1:]))["suites"]["poset"]
    assert poset["oracle_cycle"] == A1_LINES[:2]
    assert poset["diff"] == []


def test_verify_matrix_a2_is_honest_about_n3(capsys):
    rc, out, _ = run_main(capsys, "verify", "--type", "A2", "--suite", "matrix")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL"
    report = json.loads("\n".join(lines[1:]))
    suite = report["suites"]["matrix(3,2)"]
    assert suite["orbits"] == 33 and suite["labels"] == 78
    assert len(suite["collisions"]) == 9
    assert suite["group_cells"]["status"] == "PASS"


def test_verify_matrix_requires_a_type(capsys):
    rc, _, err = run_main(capsys, "verify", "--type", "B2", "--suite", "matrix")
    assert rc == 2 and "A1 or A2" in err


# ---------------------------------------------------------------- matrix


def test_matrix_2_3(capsys, tmp_path):
    dump = tmp_path / "orbits.json"
    rc, out, _ = run_main(
        capsys, "matrix", "--n", "2", "--q", "3", "--dump", str(dump)
    )
    assert rc == 0
    assert "orbits: 6  labels: 6" in out
    assert "label matching bijective: yes" in out
    assert "group cells: ok (order 24)" in out
    data = json.loads(dump.read_text())
    assert len(data) == 6
    assert sorted(e["size"] for e in data) == [1, 3, 3, 6, 9, 18]


def test_matrix_3_2_reports_failure(capsys):
    rc, out, _ = run_main(capsys, "matrix", "--n", "3", "--q", "2")
    assert rc == 1
    assert "orbits: 33  labels: 78" in out
    assert "label matching bijective: no" in out
    assert "group cells: ok (order 168)" in out


# ---------------------------------------------------------------- config errors


def test_bad_type_exits_2(capsys):
    rc, _, err = run_main(capsys, "enumerate", "--type", "Z9")
    assert rc == 2 and "error" in err


def test_bad_group_file_exits_2(capsys, tmp_path):
    rc, _, err = run_main(capsys, "enumerate", "--group", str(tmp_path / "nope.json"))
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"cartan": [[2, 1], [1, 2]]}')
    rc, _, err = run_main(capsys, "enumerate", "--group", str(bad))
    assert rc == 2


@pytest.mark.parametrize(
    "spec",
    [
        '{"cartan": 5}',
        '{"cartan": [[2, null], [-1, 2]]}',
        '{"cartan": [[2]], "nonreduced": 1}',
        '{"type": "A2", "weights": [1, 2]}',
        '{"type": "A2", "weights": {"1": "two"}}',
        pytest.param("[" * 100000 + "]" * 100000, id="deeply-nested"),
    ],
)
def test_malformed_group_spec_exits_2(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    rc, out, err = run_main(capsys, "enumerate", "--group", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "extra, message",
    [
        ('"nonreduced": [0]', "nonreduced mark 0 is not a simple index in 1..2"),
        ('"nonreduced": [3]', "nonreduced mark 3 is not a simple index in 1..2"),
        ('"weights": {"0": 2}', "root index 0 is not in 1..3"),
        ('"weights": {"4": 2}', "root index 4 is not in 1..3"),
    ],
)
def test_group_spec_index_errors_are_one_based(capsys, tmp_path, extra, message):
    path = tmp_path / "spec.json"
    path.write_text('{"cartan": [[2, -1], [-1, 2]], %s}' % extra)
    rc, out, err = run_main(capsys, "enumerate", "--group", str(path))
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_cap_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("ORBITS_CAP", "2")
    rc, _, err = run_main(capsys, "enumerate", "--type", "A2")
    assert rc == 2 and "more than 2 elements" in err
    monkeypatch.setenv("ORBITS_CAP", "not-a-number")
    rc, _, err = run_main(capsys, "enumerate", "--type", "A1")
    assert rc == 2


def test_cap_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("ORBITS_CAP", "2")
    rc, _, _ = run_main(capsys, "enumerate", "--type", "A2", "--cap", "1000")
    assert rc == 0


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def huge(rs, cap):
        raise MemoryError("Unable to allocate 3.92 GiB for an array")

    monkeypatch.setattr(cli, "closure_poset", huge)
    rc, out, err = run_main(capsys, "poset", "--type", "A1")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "3.92 GiB" in err
    assert err.count("\n") == 1


# ---------------------------------------------------------------- console script


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "orbits.cli", "enumerate", "--type", "A1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == A1_LINES


def test_missing_group_spec_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "orbits.cli", "enumerate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
