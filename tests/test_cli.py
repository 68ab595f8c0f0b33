import argparse
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from phylorank import bruteforce, cli, exactcount, sampler, seriesoracle, stats
from phylorank.cli import main
from phylorank.errors import ConsistencyError
from phylorank.seriesoracle import TruncatedSeries
from phylorank.treecore import from_newick

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "docs" / "cli_output.schema.json"
FIGURE_ONE = {"((1,2),3);", "((1,3),2);", "((2,3),1);"}


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_schema(schema, payload):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(payload, schema)


# ---------------------------------------------------------------- commands


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "3")
    assert code == 0 and out == "3\n"


def test_count_inadmissible_is_zero(capsys):
    code, out, _ = run(capsys, "count", "--k", "3", "--n", "4")
    assert code == 0 and out == "0\n"


def test_count_larger(capsys):
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "6")
    assert code == 0 and out == "945\n"


def test_census_tsv(capsys):
    code, out, _ = run(capsys, "census", "--k", "2", "--n", "4", "--max-rank", "3")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(0, 60), (1, 42), (2, 3), (3, 0)]


def test_census_n1(capsys):
    code, out, _ = run(capsys, "census", "--k", "2", "--n", "1", "--max-rank", "0")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("0\t1")


def test_census_ternary(capsys):
    code, out, _ = run(capsys, "census", "--k", "3", "--n", "5", "--max-rank", "2")
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(0, 50), (1, 20), (2, 0)]


def test_census_json_schema(capsys, schema):
    code, out, _ = run(capsys, "census", "--k", "2", "--n", "4", "--format", "json")
    payload = json.loads(out)
    check_schema(schema, payload)
    assert payload["total"] == "105"


def test_census_inadmissible_is_empty(capsys, schema):
    # no trees on 4 leaves at k=3: the census has no rows in either format
    code, out, _ = run(capsys, "census", "--k", "3", "--n", "4", "--format", "json")
    payload = json.loads(out)
    check_schema(schema, payload)
    assert code == 0 and payload["total"] == "0" and payload["rows"] == []
    code, out, _ = run(capsys, "census", "--k", "3", "--n", "4")
    assert code == 0 and out == "rank\tcount\tratio\tratio_decimal\n"


def test_limits_tsv(capsys):
    code, out, _ = run(capsys, "limits", "--k", "2", "--max-rank", "2")
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [r[4] for r in rows] == ["1/2", "3/8", "15/128"]


def test_limits_rank_zero_value(capsys):
    for k in ("2", "5"):
        _, out, _ = run(capsys, "limits", "--k", k, "--max-rank", "0")
        point = out.strip().splitlines()[1].split("\t")[4]
        assert point == f"{int(k) - 1}/{k}"


def test_limits_json_schema(capsys, schema):
    code, out, _ = run(capsys, "limits", "--k", "3", "--max-rank", "1", "--format", "json")
    payload = json.loads(out)
    check_schema(schema, payload)
    assert payload["rows"][1]["point_prob"] == "26/81"


def test_sample_newick(capsys):
    code, out, _ = run(capsys, "sample", "--k", "2", "--n", "3", "--count", "2", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and all(line in FIGURE_ONE for line in lines)


def test_sample_deterministic(capsys):
    _, first, _ = run(capsys, "sample", "--k", "2", "--n", "9", "--count", "5", "--seed", "3")
    _, second, _ = run(capsys, "sample", "--k", "2", "--n", "9", "--count", "5", "--seed", "3")
    assert first == second


def test_sample_prefix_determinism(capsys):
    _, five, _ = run(capsys, "sample", "--k", "2", "--n", "9", "--count", "5", "--seed", "3")
    _, twelve, _ = run(capsys, "sample", "--k", "2", "--n", "9", "--count", "12", "--seed", "3")
    assert twelve.splitlines()[:5] == five.splitlines()


def test_sample_json_schema(capsys, schema):
    code, out, _ = run(capsys, "sample", "--k", "3", "--n", "7", "--count", "3",
                       "--seed", "2", "--format", "json")
    payload = json.loads(out)
    check_schema(schema, payload)
    assert len(payload["trees"]) == 3


def test_estimate_tsv(capsys):
    code, out, _ = run(capsys, "estimate", "--k", "2", "--n", "9", "--samples", "30",
                       "--seed", "5", "--max-rank", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t")[0] == "rank"
    assert len(lines) == 4


def test_estimate_json_schema(capsys, schema):
    code, out, _ = run(capsys, "estimate", "--k", "2", "--n", "9", "--samples", "30",
                       "--seed", "5", "--max-rank", "1", "--format", "json")
    payload = json.loads(out)
    check_schema(schema, payload)
    assert payload["samples"] == 30


def test_estimate_serialization(capsys):
    argv = ["estimate", "--k", "2", "--n", "9", "--samples", "20", "--seed", "3", "--max-rank", "1"]
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert json.loads(out)["rows"][0]["limit"] == "1/2"
    _, tsv, _ = run(capsys, *argv)
    assert tsv.splitlines()[0].startswith("rank\tcount")
    assert len(tsv.splitlines()) == 3  # the header and ranks 0..max_rank


def test_convergence_tsv(capsys):
    code, out, _ = run(capsys, "convergence", "--k", "2", "--i", "1",
                       "--n-grid", "3,11,101", "--negligibility", "2,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n\tratio")
    assert lines[1].split("\t")[1] == "2/5"


def test_convergence_json_schema(capsys, schema):
    code, out, _ = run(capsys, "convergence", "--k", "2", "--i", "2",
                       "--n-grid", "5,9", "--format", "json")
    payload = json.loads(out)
    check_schema(schema, payload)
    assert payload["limit"] == "1/8"


def test_convergence_serialization(capsys):
    argv = ["convergence", "--k", "2", "--i", "1", "--n-grid", "3,9", "--negligibility", "2"]
    _, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert payload["limit"] == "1/2"
    assert payload["rows"][0]["negligibility"]["2"] == "2/5"
    _, tsv, _ = run(capsys, *argv)
    assert "neg_T^2" in tsv.splitlines()[0]


def test_convergence_builds_no_table(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("convergence built a table")

    monkeypatch.setattr(cli, "CountTable", refuse)
    monkeypatch.setattr(stats, "CountTable", refuse, raising=False)
    monkeypatch.setattr(exactcount.CountTable, "__init__", refuse)
    code, out, _ = run(capsys, "convergence", "--k", "2", "--i", "3",
                       "--n-grid", "3,1001,1000000001", "--negligibility", "2,3")
    assert code == 0
    assert [line.split("\t")[0] for line in out.splitlines()] == ["n", "3", "1001", "1000000001"]


def test_convergence_empty_grid_is_a_domain_error(capsys):
    code, out, err = run(capsys, "convergence", "--k", "2", "--i", "1", "--n-grid", ",")
    assert code == 2 and out == ""
    assert "n_grid must be nonempty" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--n-max", "5", "--order", "24")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "PASS"
    assert all(line.startswith("PASS") for line in lines)
    assert any("triple agreement" in line for line in lines)
    assert any("chi-square" in line for line in lines)


def test_verify_ternary(capsys):
    code, out, _ = run(capsys, "verify", "--k", "3", "--n-max", "5", "--order", "18")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"


def test_verify_fails_on_a_wrong_census(capsys, monkeypatch):
    census = exactcount.CountTable.rank_census

    def bumped(self, n, max_rank):
        c = census(self, n, max_rank)
        return c._replace(exact=(c.exact[0] + 1, *c.exact[1:])) if n == 4 else c

    monkeypatch.setattr(exactcount.CountTable, "rank_census", bumped)
    code, out, _ = run(capsys, "verify", "--k", "2", "--n-max", "5")
    lines = out.strip().splitlines()
    assert code == 3 and lines[-1] == "FAIL"
    assert [line for line in lines if line.startswith("FAIL ")] == ["FAIL triple agreement at n=4"]


def test_verify_fails_on_a_wrong_polynomial_split(capsys, monkeypatch):
    monkeypatch.setattr(seriesoracle, "verify_theorem_decomposition", lambda k, i, order: False)
    code, out, _ = run(capsys, "verify", "--k", "2", "--n-max", "5")
    lines = out.strip().splitlines()
    assert code == 3 and lines[-1] == "FAIL"
    assert "FAIL polynomial split identity i=0" in lines


class _OffByOne(TruncatedSeries):
    """Its counts n! [x^n] read one too high; a series built from it is true."""

    def labeled(self, n):
        return super().labeled(n) + 1


def _bumped_series(name, i):
    """``seriesoracle.<name>`` with its series at rank i read one too high."""
    real = getattr(seriesoracle, name)
    return lambda k, j, o: (_OffByOne if j == i else TruncatedSeries)(k, real(k, j, o).coeffs)


def _bumped_root_rank_count(i, at):
    """``CountTable.root_rank_count`` one too high for r_i at n = ``at``."""
    real = exactcount.CountTable.root_rank_count
    return lambda self, j, n: real(self, j, n) + (j == i and n == at)


def _corrupted_tally(at):
    """``bruteforce._stored`` with one vertex of rank 0 too many in the tally of
    the first stored tree on the block ``at``."""
    real = bruteforce._stored

    def stored(block, *rest):
        trees, tallies = real(block, *rest)
        return (trees, (tallies[0] + 1, *tallies[1:])) if block == at else (trees, tallies)

    return stored


# each named check of verify at k=2, n_max=5, order 4: the one input broken
# for it and the one FAIL line that must follow.  The series checks stop at
# n = 4, so r_0 (the tree count) bumped at n = 5 reaches triple agreement only.
# Trees on {1,2,3} are stored at n = 5 alone: at n = 4 that block is streamed.
_BROKEN_CHECKS = {
    "inverse": (seriesoracle, "verify_inverse", lambda k, order: False,
                "compositional inverse through order 4"),
    **{f"root-rank-series-i{i}": (seriesoracle, "oracle_R", _bumped_series("oracle_R", i),
                                  f"root-rank series identity i={i}") for i in range(3)},
    **{f"rank-at-least-series-i{i}": (seriesoracle, "oracle_M", _bumped_series("oracle_M", i),
                                      f"rank-at-least series identity i={i}") for i in range(3)},
    # no shuffle: every draw deals the same labels, so all 3000 are one tree
    "chi-square": (sampler, "_shuffle", lambda labels, seed: None,
                   "chi-square uniformity at n=3 (stat 6000.00 < 13.82)"),
    **{f"root-rank-count-i{i}": (exactcount.CountTable, "root_rank_count",
                                 _bumped_root_rank_count(i, 5), "triple agreement at n=5")
       for i in (0, 3)},
    "stored-tally": (bruteforce, "_stored", _corrupted_tally((1, 2, 3)), "triple agreement at n=5"),
}


@pytest.mark.parametrize("case", list(_BROKEN_CHECKS))
def test_verify_fails_on_each_broken_check(capsys, monkeypatch, case):
    target, name, broken, failed = _BROKEN_CHECKS[case]
    monkeypatch.setattr(target, name, broken)
    code, out, _ = run(capsys, "verify", "--k", "2", "--n-max", "5", "--order", "4")
    lines = out.strip().splitlines()
    assert code == 3 and lines[-1] == "FAIL"
    assert [line for line in lines if line.startswith("FAIL ")] == [f"FAIL {failed}"]


def test_verify_runs_without_scipy():
    # a fresh interpreter, because a test session may already have scipy loaded
    script = (
        "import sys; sys.modules['scipy'] = None; from phylorank.cli import main; "
        "sys.exit(main(['verify', '--k', '2', '--n-max', '4', '--order', '12']))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_verify_dump_newick(capsys, tmp_path):
    dump = tmp_path / "trees.nwk"
    code, _, _ = run(capsys, "verify", "--k", "2", "--n-max", "4", "--order", "12",
                     "--dump-newick", str(dump))
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 1 + 1 + 3 + 15
    assert set(lines[2:5]) == FIGURE_ONE


def test_verify_refuses_an_over_cap_n_max_before_enumerating(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify built or enumerated before checking its input")

    # triple agreement enumerates through brute_census_with_roots, the rest through enumerate_all
    monkeypatch.setattr(bruteforce, "enumerate_all", refuse)
    monkeypatch.setattr(bruteforce, "brute_census_with_roots", refuse)
    monkeypatch.setattr(cli, "CountTable", refuse)
    # t_{2,10} = 34,459,425 exceeds the cap; at k=3, n=14 has no trees but
    # n=13 has 190,590,400; at n_max = 3000 the scan stops at n = 10
    for k, n_max in [("2", "10"), ("3", "14"), ("2", "3000")]:
        code, out, err = run(capsys, "verify", "--k", k, "--n-max", n_max)
        assert code == 2 and out == ""
        assert f"cap {bruteforce.DEFAULT_CAP}" in err and len(err) < 120
    # a table this large is refused by its size bound alone, before any
    # factorial is formed, whatever k is
    for k, n_max in [("2", "1000000000"), ("1000000000", "1000000000")]:
        code, out, err = run(capsys, "verify", "--k", k, "--n-max", n_max)
        assert code == 2 and out == ""
        assert "MiB" in err and len(err) < 160


# ------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence", "--k", "2", "--i", "1", "--n-grid", "3,abc"],
        ["convergence", "--k", "2", "--i", "1", "--n-grid", "3,5", "--negligibility", "x"],
        ["verify", "--k", "2", "--n-max", "8", "--order", "0"],
        ["verify", "--k", "2", "--n-max", "0", "--order", "8"],
        ["verify", "--k", "2", "--n-max", "-3", "--order", "8"],
    ],
    ids=["n-grid", "negligibility", "order", "0", "-3"],
)
def test_bad_input_is_a_usage_error_before_any_work(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(bruteforce, "enumerate_all", refuse)
    monkeypatch.setattr(bruteforce, "brute_census_with_roots", refuse)
    monkeypatch.setattr(cli, "CountTable", refuse)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and "error:" in err and "Traceback" not in err


def test_consistency_error_exit_code(capsys, monkeypatch):
    def broken(self, n):
        raise ConsistencyError("tree count disagrees")

    monkeypatch.setattr(exactcount.CountTable, "tree_count", broken)
    code, out, err = run(capsys, "count", "--k", "2", "--n", "3")
    assert code == 3 and out == ""
    assert err == "internal consistency failure: tree count disagrees\n"


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "sample", "--k", "3", "--n", "4", "--count", "1", "--seed", "0")
    assert code == 2
    assert "inadmissible" in err


def test_bad_k_exit_code(capsys):
    code, _, err = run(capsys, "count", "--k", "1", "--n", "3")
    assert code == 2


def test_oversized_table_refused(capsys):
    # refused from k and n alone, before any factorial is built
    code, out, err = run(capsys, "count", "--k", "2", "--n", "100000")
    assert code == 2
    assert out == ""
    assert "MiB" in err


def test_sample_needs_no_table(capsys):
    # at the parent the table guard refused this from n = 10,361 on
    code, out, _ = run(capsys, "sample", "--k", "2", "--n", "100001", "--count", "1")
    assert code == 0
    (line,) = out.splitlines()
    tree = from_newick(line, 2)
    assert tree.n_leaves == 100001 and tree.n_vertices == 200001


def test_sample_streams_its_trees(tmp_path):
    # each tree is written as it is made, so the peak does not grow with
    # --count; at the parent it grew by 7.4 MB from 1000 trees to 10,000
    target = str(tmp_path / "trees.txt")
    main(["sample", "--k", "2", "--n", "51", "--count", "1", "--output", target])  # warm-up

    def peak(count):
        tracemalloc.start()
        try:
            assert main(["sample", "--k", "2", "--n", "51", "--count", str(count),
                         "--output", target]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    at_1000 = peak(1000)
    assert peak(10_000) < at_1000 + 64 * 1024
    with open(target) as fh:
        assert sum(1 for _ in fh) == 10_000


@pytest.mark.parametrize("count", [0, 1, 3])
def test_sample_json_is_json_dumps_at_indent_2(capsys, count):
    # the trees array is written element by element, byte for byte as before
    code, out, _ = run(capsys, "sample", "--k", "3", "--n", "7", "--count", str(count),
                       "--seed", "2", "--format", "json")
    assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"


_ROW = {"rank": 0, "count": "7", "ratio": "4/7", "ratio_decimal": "0.571428571429"}
_WRITER_PAYLOADS = {
    "no rows": ({"k": 3, "total": "0"}, ("rank", "count"), []),
    "one row": ({"k": 2}, tuple(_ROW), [_ROW]),
    "many rows": ({"k": 2, "n": 4}, tuple(_ROW), [{**_ROW, "rank": i} for i in range(50)]),
    "nested dicts": ({"i": 1}, ("n", "negligibility"),
                     [{"n": 3, "negligibility": {}}, {"n": 5, "negligibility": {"2": "1/3"}}]),
    "floats": ({"x": 0.1}, ("rank", "deviation"),
               [{"rank": i, "deviation": v} for i, v in enumerate([0.0, -0.0, 0.1, 1e-300,
                                                                  1.5e300, 2.0 / 3])]),
    "strings": ({"note": 'a "b" \\ c'}, ("name",),
                [{"name": v} for v in ['say "hi"', "back\\slash", "new\nline", "naïve π", "😀"]]),
}


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("name", list(_WRITER_PAYLOADS))
def test_report_writer_is_byte_identical(capsys, name, fmt):
    # JSON as json.dumps of the whole payload, TSV as the join of every line
    head, columns, rows = _WRITER_PAYLOADS[name]
    args = argparse.Namespace(command="census", format=fmt, output=None)
    cli._emit_table(args, head, columns, iter(rows))
    if fmt == "json":
        expected = json.dumps({"command": "census", **head, "rows": rows}, indent=2) + "\n"
    else:
        lines = ["\t".join(columns)]
        for row in rows:
            cells = (row[c] for c in columns)
            lines.append("\t".join(f"{v:.6e}" if isinstance(v, float) else str(v) for v in cells))
        expected = "\n".join(lines) + "\n"
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_census_rows_are_formatted_as_they_are_written(monkeypatch, fmt):
    # row i is formatted once the i chunks before it are written, so no report
    # is held whole; formatting every row before the first write fails this
    class Stdout(io.StringIO):
        chunks = 0

        def write(self, text):
            self.chunks += 1
            return super().write(text)

    out, seen, exact = Stdout(), [], cli.exact
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(cli, "exact", lambda name, v: seen.append(out.chunks) or exact(name, v))
    assert main(["census", "--k", "2", "--n", "4", "--max-rank", "5", "--format", fmt]) == 0
    assert seen == [1, 2, 3, 4, 5, 6]
    assert out.chunks == (8 if fmt == "json" else 7)  # head, 6 rows, JSON's close


@pytest.mark.parametrize("argv", [["--k", "3", "--n", "4", "--count", "1"],
                                  ["--k", "2", "--n", "1000000001", "--count", "1"],
                                  ["--k", "2", "--n", "5", "--count", "-1"]])
def test_sample_refuses_before_opening_the_output(capsys, tmp_path, argv):
    target = tmp_path / "trees.txt"
    code, _, err = run(capsys, "sample", *argv, "--output", str(target))
    assert code == 2 and "error:" in err
    assert not target.exists()


def test_oversized_tree_refused(capsys):
    # refused from k and n alone, before the shuffle's list is built
    code, out, err = run(capsys, "sample", "--k", "2", "--n", "1000000001", "--count", "1")
    assert code == 2
    assert out == ""
    assert "MiB" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "5"],
        ["census", "--n", "5"],
        ["convergence", "--i", "1", "--n-grid", "5"],
        ["sample", "--n", "5", "--count", "1"],
        ["estimate", "--n", "5", "--samples", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_sampling_commands_have_no_full_verify(argv):
    # every table checks every identity at every n: there is no flag to ask for it
    with pytest.raises(SystemExit) as err:
        main([*argv, "--k", "2", "--full-verify"])
    assert err.value.code == 2
    assert main([*argv, "--k", "2", "--output", os.devnull]) == 0  # the rest is valid


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.tsv"
    code, out, _ = run(capsys, "limits", "--k", "2", "--max-rank", "1",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1].split("\t")[4] == "1/2"


def test_limits_power_bound_exit_code(capsys, monkeypatch):
    # k**c_8 at k=2 has 255 bits: over a lowered bound, refused before it is built
    monkeypatch.setattr(exactcount, "MAX_POWER_BITS", 100)
    code, out, err = run(capsys, "limits", "--k", "2", "--max-rank", "7")
    assert code == 2 and out == ""
    assert "bits" in err


class _Reached(Exception):
    """Raised by a stand-in for the function a command builds its values with."""


def _reached(*args, **kwargs):
    raise _Reached


# each command that prints an exact limit: the function it builds its values
# with, the flags it needs besides --k, its rank flag, and that flag's offset
# from limits' --max-rank at the same largest power (convergence --i i prints
# k**c_i, as limits --max-rank i-1 does)
_LIMIT_PRINTERS = {
    "limits": (cli, "limit_distribution", [], "--max-rank", 0),
    "estimate": (stats, "estimate_rank_distribution", ["--n", "5", "--samples", "1"], "--max-rank", 0),
    "convergence": (stats, "convergence_table", ["--n-grid", "3"], "--i", 1),
}


@pytest.mark.parametrize("k, last_admitted", [(2, 18), (3, 11)])
@pytest.mark.parametrize("command", list(_LIMIT_PRINTERS))
def test_limits_digit_bound(capsys, monkeypatch, command, k, last_admitted):
    # k=2, rank 18 prints 157,826 digits; the bound is decided from k and the
    # rank alone, so nothing is sampled and no table or value is built on
    # either side of it
    module, builder, flags, rank_flag, offset = _LIMIT_PRINTERS[command]
    monkeypatch.setattr(module, builder, _reached)
    argv = [command, "--k", str(k), *flags, rank_flag]
    for refused in (last_admitted + 1, 10**12):
        code, out, err = run(capsys, *argv, str(refused + offset))
        assert code == 2 and out == ""
        assert f"would print more than {cli.LIMITS_MAX_DIGITS} digits" in err
    with pytest.raises(_Reached):
        main([*argv, str(last_admitted + offset)])


@pytest.mark.parametrize(
    "flags, last_admitted, far",
    [
        # m_15/m_0: c_15 = 32,767 factors up to n+s = 2n-1, 199,999.99 digits at n = 634,851
        (["--i", "15", "--n-grid", "3,{}"], 634_851, 10**12 + 1),
        # T^p at n = 10^6+1: p-1 factors up to 2n-1, times 2! each, 199,996.2 digits at
        # p = 30,294; a power over n is 0
        (["--i", "1", "--n-grid", "1000001", "--negligibility", "2,{}"], 30_294, 1_000_001),
    ],
    ids=["rank", "negligibility"],
)
def test_convergence_ratio_digit_bound(capsys, monkeypatch, flags, last_admitted, far):
    # the bound is decided from k, i, n and the power alone: no ratio is formed
    # on either side of it
    monkeypatch.setattr(stats, "rank_ge_ratio", _reached)
    monkeypatch.setattr(stats, "negligibility_ratio", _reached)
    argv = ["convergence", "--k", "2"]
    for refused in (last_admitted + 1, far):
        code, out, err = run(capsys, *argv, *(f.format(refused) for f in flags))
        assert code == 2 and out == ""
        assert f"would print more than {cli.LIMITS_MAX_DIGITS} digits" in err
    with pytest.raises(_Reached):
        main([*argv, *(f.format(last_admitted) for f in flags)])


def test_verify_order_bound(capsys, monkeypatch):
    # one order above the bound is refused before any table or series is
    # built; the bound itself runs and passes
    argv = ["verify", "--k", "2", "--n-max", "1", "--order"]
    with monkeypatch.context() as patched:
        patched.setattr(cli, "CountTable", _reached)
        patched.setattr(seriesoracle, "solve_T", _reached)
        patched.setattr(seriesoracle, "_vertex_factor", _reached)
        for refused in (cli.VERIFY_MAX_ORDER + 1, 10**12):
            code, out, err = run(capsys, *argv, str(refused))
            assert code == 2 and out == ""
            assert f"over the bound of {cli.VERIFY_MAX_ORDER}" in err
    code, out, _ = run(capsys, *argv, str(cli.VERIFY_MAX_ORDER))
    assert code == 0 and out.endswith("\nPASS\n")


def test_removed_workers_option_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["sample", "--k", "2", "--n", "5", "--count", "1", "--workers", "2"])
    assert err.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["census", "--k", "2"])  # missing --n
    assert err.value.code == 2
