"""CLI and demo output, byte for byte, against recorded golden files.

Each ``tests/golden/<case>-<format>.txt`` holds the stdout of one command
run from the repository root, and ``<case>-<format>-stderr.txt`` its
stderr; a case without a stderr file prints nothing there (only
``complete`` and ``identities`` print a summary, and only in text).  The
CLI cases cover ``complete`` and ``reduce`` on the Q8, trefoil and Z^2
demos, ``reduce`` of a 30-letter trefoil word (120 rewrites, 51 of them
by lengthening rules, three log terms cancelled at the inverse prefix)
and of a 64-letter Q8 word, ``kone``, ``identities`` and ``identities
--keep-all`` on Q8, each in text and JSON; the two demo scripts are run as
they ship.  ``kone`` and ``identities`` on the infinite groups are left
out: they only print the vertex cap error, after a Cayley BFS of 10000
vertices.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from logrewrite.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

REDUCE_WORDS = {
    "q8": "a b b a",
    "trefoil": "y x^3 y^-2 x",
    "abelian": "y x y^-1 x^2",
}

LONG_REDUCE_WORDS = {
    "trefoil": "x x x^-1 x^-1 x x^-1 x^-1 y x^-1 x^-1 x y^-1 y x x x^-1 x x^-1 "
    "y^-1 x^-1 x y^-1 y^-1 y^-1 x x^-1 x^-1 y x x",
    "q8": "a b^-1 b^-1 a^-1 a^-1 a^-1 a a^-1 a a^-1 b b a^-1 b^-1 a^-1 a a^-1 a "
    "b^-1 a^-1 b a a^-1 a b b a^-1 a^-1 a^-1 b^-1 a^-1 b^-1 a a^-1 a^-1 b b b^-1 "
    "b a a a a^-1 b^-1 b^-1 b b b a^-1 a^-1 a^-1 a b b a b^-1 b b^-1 a b a b a a^-1",
}

CLI_CASES = {}
for _group, _word in REDUCE_WORDS.items():
    _pres = f"demos/{_group}.pres"
    CLI_CASES[f"complete-{_group}"] = ["complete", _pres]
    CLI_CASES[f"reduce-{_group}"] = ["reduce", _pres, _word]
for _group, _word in LONG_REDUCE_WORDS.items():
    CLI_CASES[f"reduce-long-{_group}"] = ["reduce", f"demos/{_group}.pres", _word]
CLI_CASES["kone-q8"] = ["kone", "demos/q8.pres"]
CLI_CASES["identities-q8"] = ["identities", "demos/q8.pres"]
CLI_CASES["identities-keep-all-q8"] = ["identities", "demos/q8.pres", "--keep-all"]

DEMOS = ["quaternion_identities", "infinite_groups"]


def _golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout(name, fmt, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(CLI_CASES[name] + ["--format", fmt]) == 0
    assert capsys.readouterr().out == _golden(f"{name}-{fmt}")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stderr(name, fmt, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(CLI_CASES[name] + ["--format", fmt]) == 0
    stderr = GOLDEN / f"{name}-{fmt}-stderr.txt"
    want = stderr.read_text(encoding="utf-8") if stderr.exists() else ""
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == _golden(f"demo-{demo}")
