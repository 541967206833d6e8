"""The byte census: every command of ``census.COMMANDS``, run in-process,
prints what its golden files under ``tests/golden/`` hold.

Exit codes, stderr, the document's structure, its strings and its
integers must match exactly; floats within 4 ulps, since a libm or SIMD
path on another host may move a last bit.  ``tests/census.py``
regenerates the files and reports exact byte identity on the host at
hand.
"""

import json
import math

import pytest

from census import COMMANDS, GOLDEN, golden_path, load_status, run

_ULPS = 4


def _assert_matches(got, want, where="document"):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= _ULPS * math.ulp(max(abs(got), abs(want))), \
            (where, got, want)
    else:
        assert got == want, where


def test_census_covers_every_golden_file():
    """Each stdout file belongs to a command of the census, and each
    command has its exit code and stderr on file."""
    names = {golden_path(c).name for c in COMMANDS}
    assert {p.name for p in GOLDEN.glob("*.json")} - {"status.json"} <= names
    assert list(load_status()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_command_prints_its_golden_output(command):
    code, out, err = run(command)
    assert {"exit": code, "stderr": err} == load_status()[command]
    path = golden_path(command)
    if not path.exists():
        assert out == ""
        return
    _assert_matches(json.loads(out), json.loads(path.read_text()))
