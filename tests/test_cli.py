import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import reeskit
import reeskit.classify
import reeskit.cli
from reeskit.cli import main
from reeskit.demos import (
    family_ideal,
    pentagon_ideal,
    random_ideal,
    villarreal_ideal,
)
from reeskit.ideal_io import parse_ideal_text, render_ideal


@pytest.fixture
def villarreal_file(tmp_path):
    path = tmp_path / "v.ideal"
    path.write_text(render_ideal(villarreal_ideal()))
    return str(path)


def test_classify_text_output(villarreal_file, capsys):
    assert main(["classify", villarreal_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: RtAtMost(2)" in out
    assert "unique_even_cycle" in out
    assert "witness: x4*T1*T3 - x1*T2*T4" in out


def test_classify_json_shape(villarreal_file, capsys):
    assert main(["classify", villarreal_file, "--json", "--oracle",
                 "--s-max", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data)[:7] == ["ideal", "graph", "verdict", "justification",
                              "witnesses", "oracle", "versions"]
    assert data["verdict"] == "RtAtMost(2)"
    assert data["versions"] == {"format": 2}
    assert data["ideal"]["vars"][0] == "x1"
    assert data["graph"]["classes"][0]["kind"] == "unique_even_cycle"
    assert data["oracle"]["certified_lower"] == 2
    assert data["oracle"]["layers"]["2"]["no"] >= 1
    assert set(data["oracle"]["layers"]["2"]) == {"yes", "no"}
    assert "unknown_count" not in data["oracle"]
    assert data["witnesses"][0]["alpha"] == [1, 3]


def test_classify_dot_output(villarreal_file, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert main(["classify", villarreal_file, "--dot", str(dot)]) == 0
    capsys.readouterr()
    text = dot.read_text()
    assert text.startswith("graph generators {")
    assert "y1 -- y2" in text


def test_classify_dot_is_utf8_under_a_c_locale(tmp_path):
    # the DOT file is written in the encoding load_ideal reads, whatever
    # the locale says
    path = tmp_path / "sub.ideal"
    path.write_text("vars: x₁ y z\nf1: x₁ y\nf2: y z\n",
                    encoding="utf-8")
    dot = tmp_path / "g.dot"
    src = str(Path(reeskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0", LC_ALL="C")
    proc = subprocess.run([sys.executable, "-m", "reeskit.cli", "classify",
                           str(path), "--dot", str(dot)],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "x₁" in dot.read_bytes().decode("utf-8")


@pytest.mark.parametrize("args", [["taylor", "--degree", "1"],
                                  ["reduce", "--alpha", "1,1", "--beta", "2,2"],
                                  ["rt"]], ids=["taylor", "reduce", "rt"])
def test_non_ascii_names_print_under_a_c_locale(tmp_path, args):
    # the villarreal square with x1 renamed: each command prints a binomial
    # naming it, which an ASCII stdout writes as an escape
    path = tmp_path / "sub.ideal"
    path.write_text("vars: x₁ x2 x3 x4 x5 x6 x7\nf1: x₁ x2 x3\nf2: x2 x4 x5\n"
                    "f3: x5 x6 x7\nf4: x3 x6 x7\n", encoding="utf-8")
    src = str(Path(reeskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0", LC_ALL="C")
    proc = subprocess.run([sys.executable, "-m", "reeskit.cli", args[0],
                           str(path), *args[1:]],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert b"x\\u2081" in proc.stdout


def test_missing_file_exit_code(capsys):
    assert main(["classify", "/no/such/file.ideal"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_ideal_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars: a b\nf1: a\nf2: a b\n")
    assert main(["classify", str(bad)]) == 2
    assert "divides" in capsys.readouterr().err


def test_taylor_listing(villarreal_file, capsys):
    assert main(["taylor", villarreal_file, "--degree", "1"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 6
    assert "(1)|(2): x4*x5*T1 - x1*x3*T2" in out


def test_taylor_json(villarreal_file, capsys):
    assert main(["taylor", villarreal_file, "--degree", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 45
    assert {"alpha", "beta", "binomial"} <= set(rows[0])


def test_reduce_reduced_pair(villarreal_file, capsys):
    assert main(["reduce", villarreal_file, "--alpha", "1,2",
                 "--beta", "1,4"]) == 0
    out = capsys.readouterr().out
    assert "reduced in 1 step(s)" in out
    assert "shared_index" in out


def test_reduce_stuck_pair_prints_witness(villarreal_file, capsys):
    assert main(["reduce", villarreal_file, "--alpha", "1,3",
                 "--beta", "2,4"]) == 0
    out = capsys.readouterr().out
    assert "stuck" in out
    assert "irredundancy witness" in out
    assert "closed even walk" in out


def test_reduce_pair_no_rule_reduces_gets_fiber_path(tmp_path, capsys):
    path = tmp_path / "r1063.ideal"
    path.write_text(render_ideal(random_ideal(random.Random(1063), 5, 8)))
    assert main(["reduce", str(path), "--alpha", "2,5",
                 "--beta", "3,4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "reduced in 1 step(s); terminal degree 1\n"
        "[1] fiber_path (as-given) on (2,5)|(3,4): "
        "3-step path in the lcm fiber\n")


def test_reduce_stuck_pair_without_witness_gives_oracle_answer(
        tmp_path, monkeypatch, capsys):
    # the family's F has no witness pattern; stuck already means the
    # oracle said "no", so the CLI asks it nothing
    path = tmp_path / "f6.ideal"
    path.write_text(render_ideal(family_ideal(6)))

    def fail(*args, **kwargs):
        raise AssertionError("member_lower called by the CLI")

    monkeypatch.setattr(reeskit.cli, "member_lower", fail)
    assert main(["reduce", str(path), "--alpha", "1,1,2,3,4",
                 "--beta", "5,5,5,6,6"]) == 0
    out = capsys.readouterr().out
    assert out == ("stuck at (1,1,2,3,4)|(5,5,5,6,6): no rule applies\n"
                   "no irredundancy witness found; "
                   "reduces modulo layers <= 4: no\n")


def test_reduce_bad_row_exit_code(villarreal_file, capsys):
    assert main(["reduce", villarreal_file, "--alpha", "1,9",
                 "--beta", "2,4"]) == 2


def test_rt_output(villarreal_file, capsys):
    assert main(["rt", villarreal_file, "--s-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "layer 2: 44 reduce, 1 new\n" in out
    assert "certified lower bound: 2" in out
    assert "verified upper through: 3" in out


def test_rt_default_layers_for_two_generators(tmp_path, capsys):
    path = tmp_path / "two.ideal"
    path.write_text("vars: a b c\nf1: a b\nf2: b c\n")
    assert main(["rt", str(path)]) == 0
    assert "layers tested: 2..2" in capsys.readouterr().out


BAD_INPUTS = [
    ["taylor", "{file}", "--degree", "0"],
    ["rt", "{file}", "--s-max", "0"],
    ["rt", "{file}", "--s-max", "-1"],
    ["classify", "{file}", "--oracle", "--s-max", "1"],
    ["classify", "{file}", "--s-max", "3"],
    ["classify", "{file}", "--dot", "{tmp}/no/such/dir/g.dot"],
    ["reduce", "{file}", "--alpha", "1,x", "--beta", "2,4"],
    ["reduce", "{file}", "--alpha", "1", "--beta", "2,3"],
    ["reduce", "{file}", "--alpha", "1,2", "--beta", "2,1"],  # equal, sorted
    ["random", "--graph-shape", "odd-cycle", "--n", "2"],
    ["demo", "family", "--n", "4"],
    ["random", "--graph-shape", "forest", "--n", "3", "--vars", "-2"],
    # too large to enumerate: OverflowError, not ValueError, in the library
    ["taylor", "{file}", "--degree", "99999999999999999999"],
    ["demo", "family", "--n", "99999999999999999999"],
    # argument errors, which argparse alone reports on two lines
    ["reduce", "{file}", "--alpha", "1,2"],
    ["rt", "{file}", "--s-max", "abc"],
    ["nosuch", "{file}"],
    ["random", "--graph-shape", "star", "--n", "3"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS,
                         ids=lambda a: " ".join(a[:1] + a[2:]))
def test_bad_input_exits_2_with_one_line(argv, villarreal_file, tmp_path,
                                         capsys):
    argv = [a.format(file=villarreal_file, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("argv", [["-h"], ["rt", "-h"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: reeskit") and captured.err == ""


@pytest.mark.parametrize("text, message", [
    ("vars:\n", "line 1: no variable names given"),
    ("vars: x1\nnonsense\n", "line 2: expected 'name: entries'"),
    ("vars: x1 x2\nf1:\n", "line 2: generator f1 is empty"),
    ("", "empty ideal file"),
    ("vars: x1 x2\n", "no generators"),
    ("vars: x1 x1\n", "line 1: duplicate variable name"),
], ids=["no names", "no colon", "empty generator", "empty file",
        "no generators", "duplicate name"])
def test_malformed_ideal_file_exits_2_with_one_line(text, message, tmp_path,
                                                    capsys):
    path = tmp_path / "bad.ideal"
    path.write_text(text)
    assert main(["classify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("data", [b"vars: x1\nf1: x1 \xff\n",
                                  b"\x7fELF\x02\x01\x01\x00\x00\xb0\xc3"],
                         ids=["byte 0xff", "binary"])
def test_non_utf8_file_exits_2_with_one_line(data, tmp_path, capsys):
    path = tmp_path / "bad.ideal"
    path.write_bytes(data)
    assert main(["classify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not UTF-8 text: byte 0x")
    assert len(captured.err.splitlines()) == 1, captured.err


def test_byte_order_mark_is_ignored(villarreal_file, tmp_path, capsys):
    bom = tmp_path / "bom.ideal"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(villarreal_file).read_bytes())
    assert main(["classify", villarreal_file]) == 0
    plain = capsys.readouterr().out
    assert main(["classify", str(bom)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("argv", [BAD_INPUTS[0], BAD_INPUTS[2]],
                         ids=["taylor degree 0", "rt s-max -1"])
def test_bad_input_exits_2_without_asserts(argv, villarreal_file, tmp_path):
    # python -O strips assert statements; validation must not rely on them
    argv = [a.format(file=villarreal_file, tmp=tmp_path) for a in argv]
    src = str(Path(reeskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-m", "reeskit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the reader of the pipe has gone before the first write, as when
    # `reeskit demo villarreal | head -3` outlives head
    src = str(Path(reeskit.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "reeskit.cli", "demo", "villarreal"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr, proc.stderr


def test_no_assert_statement_in_the_package():
    # python -O strips them, so no check in src/ may be one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(reeskit.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_import_in_the_package():
    # no linter is a dependency, so this is the unused-import check
    found = []
    for path in sorted(Path(reeskit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names if name not in used]
    assert found == []


def test_demo_villarreal(capsys):
    assert main(["demo", "villarreal"]) == 0
    out = capsys.readouterr().out
    assert "minimal linear generators (4):" in out
    assert "degree-2 generator: x4*T1*T3 - x1*T2*T4" in out


def test_demo_pentagon(capsys):
    assert main(["demo", "pentagon"]) == 0
    out = capsys.readouterr().out
    assert "x7*T1^2*T4 - T2*T3*T5" in out
    assert "closed even walk (length 6): 1-2-1-3-4-5-1" in out
    assert "reduces modulo layers <= 2: no" in out
    assert "certified relation type lower bound: 3" in out


def test_demo_family(capsys):
    assert main(["demo", "family", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "F (degree 5):" in out
    assert "substitutes to zero: True" in out
    assert "fiber witness" in out and "True" in out
    assert "not T-homogeneous" in out


@pytest.mark.parametrize("n", [10, 11])
def test_demo_family_large(n, capsys):
    assert main(["demo", "family", "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert f"F (degree {2 * n - 7}):" in out
    assert f"  reduces modulo layers <= {2 * n - 8}: no\n" in out
    assert ("  fiber witness (new generator with non-unit coefficients): "
            "True\n") in out


def test_demo_family_rejects_small_n(capsys):
    assert main(["demo", "family", "--n", "4"]) == 2


def test_random_emits_parseable_ideal(capsys):
    assert main(["random", "--graph-shape", "forest", "--n", "5",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    ideal = parse_ideal_text(out)
    assert ideal.n == 5


def test_random_deterministic_per_seed(capsys):
    main(["random", "--graph-shape", "odd-cycle", "--n", "5", "--seed", "7"])
    first = capsys.readouterr().out
    main(["random", "--graph-shape", "odd-cycle", "--n", "5", "--seed", "7"])
    assert capsys.readouterr().out == first
    main(["random", "--graph-shape", "odd-cycle", "--n", "5", "--seed", "8"])
    assert capsys.readouterr().out != first


def test_cross_check_consistent_run(villarreal_file, capsys):
    assert main(["classify", villarreal_file, "--oracle", "--s-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "oracle cross-check:" in out


@pytest.mark.parametrize("kind, bound, verdict", [
    ("linear_type", None, "LinearType"), ("rt_at_most", 1, "RtAtMost(1)")])
def test_classify_oracle_disagreement_exits_3(kind, bound, verdict,
                                              villarreal_file, monkeypatch,
                                              capsys):
    # the square has a new generator in degree 2, so both verdicts are wrong
    def wrong(ideal):
        return reeskit.classify.ClassificationReport(kind, bound, (), ())

    monkeypatch.setattr(reeskit.classify, "classify", wrong)
    assert main(["classify", villarreal_file, "--oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 3, captured.err
    assert lines[0].startswith("INCONSISTENT: classified ")
    assert lines[1:] == [f"verdict: {verdict}", "oracle lower bound: 2"]


def test_classify_oracle_classifies_once(tmp_path, monkeypatch, capsys):
    # the CLI and cross_validate bind classify under different names
    calls = []
    original = reeskit.classify.classify

    def counting(ideal):
        calls.append(ideal)
        return original(ideal)

    monkeypatch.setattr(reeskit.classify, "classify", counting)
    monkeypatch.setattr(reeskit.cli, "classify", counting)
    path = tmp_path / "pentagon.ideal"
    path.write_text(render_ideal(pentagon_ideal()))
    assert main(["classify", str(path), "--oracle"]) == 0
    assert "oracle cross-check:" in capsys.readouterr().out
    assert len(calls) == 1
