"""The byte census: CLI commands whose ``--json --no-timing`` output is
checked in under ``tests/golden/``.

    PYTHONPATH=src python tests/census.py

runs every command in-process through ``ballgrad.cli.main`` and rewrites
the golden files: each command's stdout, the JSON document, verbatim in
its own file, and the exit code and stderr of every command in
``status.json``.  It prints, per command, whether all three are the
bytes that were checked in.  ``test_census.py`` holds the package to
these files.  A change that moves an output on purpose regenerates the
files and says which moved and why.
"""

import contextlib
import io
import json
from pathlib import Path

from ballgrad.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# the verify suites, the n = 4 and other-dimension oracle and sweep
# paths, and every constant branch; the seven `constant --n 3, 5, 6, 7`
# lines are the CLI's only paths through c_numeric
COMMANDS = [
    "verify identities",
    "verify lemmas",
    "verify sup",
    "verify sup --n 3",
    "verify sup --n 5",
    "verify oracle",
    "verify oracle --n 3",
    "verify oracle --n 2 --seed 9",
    "verify conjecture",
    "verify conjecture --n 2 --r-steps 3",
    "verify conjecture --n 5 --r-steps 2 --theta-steps 5",
    "sweep --n 2 --r-steps 3 --seed 4",
    "oracle --n 5 --r 0.4 --theta 0.7",
    "oracle --r 0.9",
    "constant --r 0.5",
    "constant --r 1.0",
    "constant --r 0.3 --n 2",
    "constant --r 0.5 --n 3",
    "constant --r 0.5 --n 5",
    "constant --r 0.9 --n 6",
    "constant --r 0.5 --n 7",
    "constant --r 0 --n 3",
    "constant --r 1 --n 3",
    "curve --quantity frak_c --steps 11",
]


STATUS = GOLDEN / "status.json"


def golden_path(command):
    """The file of ``command``'s stdout: its words, dashes stripped,
    joined by '_'."""
    return GOLDEN / ("_".join(w.lstrip("-") for w in command.split()) + ".json")


def run(command):
    """(exit code, stdout, stderr) of ``ballgrad <command> --json
    --no-timing``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split() + ["--json", "--no-timing"])
    return code, out.getvalue(), err.getvalue()


def load_status():
    """{command: {"exit": code, "stderr": text}} as checked in."""
    return json.loads(STATUS.read_text()) if STATUS.exists() else {}


def regenerate():
    """Rewrite every golden file, print whether each command's output
    kept its bytes, and return the number of commands that changed."""
    GOLDEN.mkdir(exist_ok=True)
    old_status, status, changed = load_status(), {}, 0
    for command in COMMANDS:
        code, out, err = run(command)
        status[command] = {"exit": code, "stderr": err}
        path = golden_path(command)
        old_out = path.read_text() if path.exists() else ""
        if out:
            path.write_text(out)
        elif path.exists():
            path.unlink()
        same = (old_out, old_status.get(command)) == (out, status[command])
        changed += not same
        print(f"{'same' if same else 'CHANGED':7s} exit {code}  {command}")
    STATUS.write_text(json.dumps(status, indent=2) + "\n")
    return changed


if __name__ == "__main__":
    print(f"{regenerate()} of {len(COMMANDS)} commands changed")
