import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from logrewrite import words
from logrewrite.cli import main
from logrewrite.presentation import parse_presentation
from logrewrite.words import parse_monoid
from logrewrite.ysequences import boundary, parse_ysequence

from tests.conftest import Q8_TEXT, TREFOIL_TEXT

SRC = Path(__file__).resolve().parent.parent / "src"

# what every command prints when the trefoil's completion stops after
# four shortlex passes
STOPPED_TREFOIL = """\
error: completion stopped (max_passes) after 4 passes; last rules added:
  Xyxyy -> xxyx
  Xyxx -> xxyX
  YYx -> XX
  Yxyy -> yx
  Yxx -> yX
consider another ordering (--order/--letter-order) or higher limits
"""


@pytest.fixture(scope="module")
def q8_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pres") / "q8.pres"
    path.write_text(Q8_TEXT)
    return str(path)


@pytest.fixture(scope="module")
def abelian_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pres") / "abelian.pres"
    path.write_text("generators: x, y\nrelators:\n  r = x y x^-1 y^-1\n")
    return str(path)


@pytest.fixture(scope="module")
def trefoil_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pres") / "trefoil.pres"
    path.write_text(TREFOIL_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplete:
    def test_q8_table(self, capsys, q8_file):
        code, out, err = run(capsys, "complete", q8_file)
        lines = out.splitlines()
        assert code == 0
        assert lines[0].split() == ["lhs", "rhs", "log"]
        assert len(lines) == 17  # header + 16 rules
        assert "16 rules" in err

    def test_byte_stable(self, capsys, q8_file):
        _, out1, _ = run(capsys, "complete", q8_file)
        _, out2, _ = run(capsys, "complete", q8_file)
        assert out1 == out2

    def test_json_roundtrips(self, capsys, q8_file):
        code, out, _ = run(capsys, "complete", q8_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rules"]) == 16
        p = parse_presentation(Q8_TEXT)
        relators = p.relator_map()
        for rule in payload["rules"]:
            lhs = parse_monoid(p.alphabet, rule["lhs"])
            rhs = parse_monoid(p.alphabet, rule["rhs"])
            log = parse_ysequence(rule["log"], relators, p.alphabet)
            from logrewrite.words import free_multiply, mu_inverse

            assert mu_inverse(lhs) == free_multiply(
                boundary(log, p.alphabet), mu_inverse(rhs)
            )

    def test_order_override(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "complete", trefoil_file)
        assert code == 0 and len(out.splitlines()) == 7
        # shortlex cannot orient X -> xxYY, so the run must stop at a limit
        code, _, err = run(
            capsys, "complete", trefoil_file, "--order", "shortlex",
            "--max-passes", "3", "--max-rules", "200",
        )
        assert code == 1
        assert "last rules added" in err
        assert "max_passes" in err


class TestReduce:
    def test_abba(self, capsys, q8_file):
        code, out, _ = run(capsys, "reduce", q8_file, "a b b a")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "I = <id>"
        assert lines[1].startswith("L = ")
        # the log must witness the reduction: boundary(L) = abba
        p = parse_presentation(Q8_TEXT)
        log = parse_ysequence(lines[1][4:], p.relator_map(), p.alphabet)
        from logrewrite.words import parse_group

        assert boundary(log, p.alphabet) == parse_group(p.alphabet, "a b b a")

    def test_irreducible(self, capsys, q8_file):
        code, out, _ = run(capsys, "reduce", q8_file, "a b")
        assert code == 0
        assert out.splitlines() == ["I = ab", "L = <idY>"]

    def test_long_word_that_only_shrinks(self, capsys, q8_file):
        # longer than REDUCE_MAX_WORD_LEN, but no rewrite lengthens it
        code, out, err = run(capsys, "reduce", q8_file, "a^12000")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "I = <id>"

    def test_bad_word(self, capsys, q8_file):
        code, _, err = run(capsys, "reduce", q8_file, "z")
        assert code == 1 and "error:" in err

    def test_empty_exponent(self, capsys, q8_file):
        code, out, err = run(capsys, "reduce", q8_file, "a^")
        assert (code, out) == (1, "")
        assert "bad exponent in 'a^'" in err

    def test_word_past_the_parse_bound(self, capsys, q8_file, monkeypatch):
        monkeypatch.setattr(words, "MAX_PARSED_LETTERS", 100)
        code, out, err = run(capsys, "reduce", q8_file, "a^60 b^41")
        assert (code, out) == (1, "")
        assert err == "error: a parsed word is limited to 100 letters\n"

    def test_budget_error_is_one_short_line(self, capsys):
        # 100,000 rewrites on a word of about 3000 letters: the message
        # shows the first 40 letters and the length, not the whole word
        trefoil = str(SRC.parent / "demos" / "trefoil.pres")
        code, out, err = run(capsys, "reduce", trefoil, "x^-3000")
        assert (code, out) == (1, "")
        assert err == (
            "error: reduction budget exceeded on MonoidWord("
            f"'xx{'Y' * 38}')… (2878 letters)\n"
        )


class TestKone:
    def test_q8_table(self, capsys, q8_file):
        code, out, _ = run(capsys, "kone", q8_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["edge", "target", "word", "k1"]
        assert len(lines) == 17  # header + 16 edges
        row = next(l for l in lines if l.startswith("[aa, b]"))
        assert "(r4^+)" in row

    def test_infinite_group(self, capsys, abelian_file):
        code, _, err = run(
            capsys, "kone", abelian_file, "--vertex-cap", "50"
        )
        assert code == 1
        assert "vertex cap" in err


class TestIdentities:
    def test_kept(self, capsys, q8_file):
        code, out, err = run(capsys, "identities", q8_file)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 19  # header + 18 kept
        assert "# 32 records, 18 kept, 0 too long for the primary test" in err

    def test_keep_all_shows_statuses(self, capsys, q8_file):
        code, out, _ = run(capsys, "identities", q8_file, "--keep-all")
        lines = out.splitlines()
        assert len(lines) == 33
        assert any("primary" in l for l in lines)
        assert any("trivial" in l for l in lines)

    def test_emit_rejected(self, capsys, q8_file):
        # k1 values are what `kone` prints, raw records what --keep-all does
        with pytest.raises(SystemExit) as exc:
            main(["identities", q8_file, "--emit", "k1"])
        assert exc.value.code == 2

    def test_json(self, capsys, q8_file):
        code, out, _ = run(
            capsys, "identities", q8_file, "--format", "json", "--keep-all"
        )
        payload = json.loads(out)
        assert len(payload) == 32
        p = parse_presentation(Q8_TEXT)
        relators = p.relator_map()
        for rec in payload:
            seq = parse_ysequence(rec["sequence"], relators, p.alphabet)
            assert boundary(seq, p.alphabet).is_identity()
        assert sum(1 for rec in payload if rec["status"] == "kept") == 18

    def test_infinite_group(self, capsys, abelian_file):
        code, _, err = run(
            capsys, "identities", abelian_file, "--vertex-cap", "50"
        )
        assert code == 1
        assert "identity_for" in err

    def test_stopped_completion(self, capsys, trefoil_file):
        # the trefoil does not complete under shortlex; identities
        # reports the stop as complete, reduce and kone do
        limits = ("--order", "shortlex", "--max-passes", "4")
        code, out, err = run(capsys, "identities", trefoil_file, *limits)
        assert (code, out) == (1, "")
        assert err == STOPPED_TREFOIL
        for argv in (
            ("complete", trefoil_file),
            ("reduce", trefoil_file, "x"),
            ("kone", trefoil_file),
        ):
            assert run(capsys, *argv, *limits) == (1, "", err)


class TestPlumbing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["complete"])  # missing file argument
        assert exc.value.code == 2

    # a limit must be positive: 0 would stop before completion starts and
    # a 0 vertex cap would call a finite group infinite; and it is written
    # in ASCII digits, as an exponent is, so "1_0" and "٣" are not 10 and 3
    @pytest.mark.parametrize("value", ["0", "-3", "1_0", "٣"])
    @pytest.mark.parametrize(
        "command,flag",
        [
            ("complete", "--max-rules"),
            ("complete", "--max-passes"),
            ("kone", "--vertex-cap"),
            ("identities", "--vertex-cap"),
        ],
    )
    def test_limit_not_positive(self, capsys, q8_file, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, q8_file, flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: not a positive integer: '{value}'" in err

    # there is one log form, so no command takes a flag to choose it
    @pytest.mark.parametrize(
        "argv",
        [["complete"], ["reduce", "a b"], ["identities"], ["kone"]],
        ids=lambda argv: argv[0],
    )
    def test_raw_logs_rejected(self, capsys, q8_file, argv):
        command, *rest = argv
        with pytest.raises(SystemExit) as exc:
            main([command, q8_file, *rest, "--raw-logs"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys, q8_file):
        with pytest.raises(SystemExit) as exc:
            main(["complete", q8_file, "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    def test_missing_file(self, capsys, tmp_path, kind):
        path = tmp_path / "p.pres"
        if kind == "directory":
            path.mkdir()
        elif kind == "not utf-8":
            path.write_bytes(b"generators: \xff\n")
        code, _, err = run(capsys, "complete", str(path))
        assert code == 1 and err.startswith("error:")
        assert "Traceback" not in err
        if kind == "not utf-8":
            assert err.startswith(f"error: {path}: ")

    def test_parse_error_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.pres"
        path.write_text("relators:\n  r = a\n")
        code, _, err = run(capsys, "complete", str(path))
        assert code == 1
        assert "line 1" in err

    def test_empty_letters_line(self, capsys, tmp_path):
        path = tmp_path / "bad.pres"
        path.write_text("generators: a, b\nletters:\nrelators:\n  r = a^2\n")
        code, out, err = run(capsys, "complete", str(path))
        assert (code, out) == (1, "")
        assert err == "error: line 2: empty 'letters:' declaration\n"

    def test_empty_letter_order(self, capsys, q8_file):
        code, out, err = run(capsys, "complete", q8_file, "--letter-order", "")
        assert (code, out) == (1, "")
        assert err == "error: empty letter order\n"

    def test_closed_pipe_is_quiet(self, tmp_path):
        # A5's records in JSON are far larger than a pipe's buffer, so the
        # writer is still writing when the reader closes its end
        path = tmp_path / "a5.pres"
        path.write_text(
            "generators: a, b\nrelators:\n"
            "  r1 = a^2\n  r2 = b^3\n  r3 = a b a b a b a b a b\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        argv = ["identities", str(path), "--keep-all", "--format", "json"]
        with subprocess.Popen(
            [sys.executable, "-m", "logrewrite.cli", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.read(10) == b'[\n  {\n    '
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait()
        assert err == ""
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["identities", "demos/q8.pres", "--keep-all", "--format", "json"],
            ["complete", "demos/trefoil.pres", "--format", "json"],
        ],
        ids=["identities", "complete"],
    )
    def test_output_independent_of_the_hash_seed(self, argv):
        root = SRC.parent
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(SRC), env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-m", "logrewrite", *argv],
                cwd=root, env=env, capture_output=True, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1]

    def test_python_m_logrewrite(self):
        """``python -m logrewrite`` runs the command line: the Q8 demo's
        ``reduce`` prints its golden output."""
        root = SRC.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        argv = ["reduce", "demos/q8.pres", "a b b a"]
        proc = subprocess.run(
            [sys.executable, "-m", "logrewrite", *argv],
            cwd=root, env=env, capture_output=True, text=True,
        )
        want = (root / "tests" / "golden" / "reduce-q8-text.txt").read_text()
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")
