"""Every README command, and the JSON shapes those miss, run in process against
its recorded stdout.

Each file in ``tests/golden/`` holds the byte-exact output of one command
below, so a change to an exact value, a report's layout or the random stream
behind a seed shows up here.  Besides the README commands there are a report
with no rows, a sample of no trees, a report of one row and convergence rows
whose negligibility map is empty.
"""

from pathlib import Path

import pytest

from phylorank.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "count": "count --k 2 --n 6",
    "census": "census --k 2 --n 4 --max-rank 3",
    "census_json": "census --k 2 --n 4 --max-rank 3 --format json",
    "limits": "limits --k 2 --max-rank 2",
    "limits_json": "limits --k 2 --max-rank 2 --format json",
    "sample": "sample --k 2 --n 33 --count 10 --seed 1",
    "sample_json": "sample --k 2 --n 33 --count 10 --seed 1 --format json",
    "estimate": "estimate --k 2 --n 1001 --samples 200 --seed 7 --max-rank 3",
    "estimate_json": "estimate --k 2 --n 1001 --samples 200 --seed 7 --max-rank 3 --format json",
    "convergence": "convergence --k 2 --i 1 --n-grid 3,11,101,501 --negligibility 2,3",
    "convergence_json": (
        "convergence --k 2 --i 1 --n-grid 3,11,101,501 --negligibility 2,3 --format json"
    ),
    "verify": "verify --k 2 --n-max 8",
    "census_empty_json": "census --k 3 --n 2 --max-rank 1 --format json",
    "sample_none_json": "sample --k 2 --n 5 --count 0 --format json",
    "limits_one_row_json": "limits --k 3 --max-rank 0 --format json",
    "convergence_no_negligibility_json": "convergence --k 2 --i 1 --n-grid 3,11 --format json",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_output(name, capsys):
    assert main(COMMANDS[name].split()) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN_DIR / f"{name}.txt").read_bytes()
