import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from phylorank import cli, exactcount
from phylorank.cli import main
from phylorank.exactcount import LimitDistribution
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


# ------------------------------------------------------------- exit codes


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


def test_oversized_tree_refused(capsys):
    # refused from k and n alone, before the shuffle's list is built
    code, out, err = run(capsys, "sample", "--k", "2", "--n", "1000000001", "--count", "1")
    assert code == 2
    assert out == ""
    assert "MiB" in err


@pytest.mark.parametrize("command", ["sample", "estimate"])
def test_sampling_commands_have_no_full_verify(command):
    count = "--count" if command == "sample" else "--samples"
    with pytest.raises(SystemExit) as err:
        main([command, "--k", "2", "--n", "5", count, "1", "--full-verify"])
    assert err.value.code == 2


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


@pytest.mark.parametrize("k, last_admitted", [(2, 18), (3, 11)])
def test_limits_digit_bound(capsys, monkeypatch, k, last_admitted):
    # k=2, rank 18 prints 157,826 digits; the bound is decided from k and the
    # rank alone, so the values are never built on either side of it
    def refuse(k, max_rank):
        raise AssertionError("limit_distribution must not be reached")

    monkeypatch.setattr(cli, "limit_distribution", refuse)
    for refused in (last_admitted + 1, 10**12):
        code, out, err = run(capsys, "limits", "--k", str(k), "--max-rank", str(refused))
        assert code == 2 and out == ""
        assert "digits" in err
    monkeypatch.setattr(cli, "limit_distribution", lambda k, max_rank: LimitDistribution(k, ()))
    code, out, _ = run(capsys, "limits", "--k", str(k), "--max-rank", str(last_admitted))
    assert code == 0 and out.startswith("rank\tc")


def test_removed_workers_option_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["sample", "--k", "2", "--n", "5", "--count", "1", "--workers", "2"])
    assert err.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["census", "--k", "2"])  # missing --n
    assert err.value.code == 2
