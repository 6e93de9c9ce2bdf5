"""Golden CLI transcripts: stdout of fixed commands, compared byte for byte.

The files under tests/golden/ hold the expected output.  After a deliberate
change to the CLI's output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from reeskit.cli import main
from reeskit.demos import pentagon_ideal, villarreal_ideal
from reeskit.ideal_io import render_ideal
from reeskit.taylor import taylor_layer

GOLDEN = Path(__file__).parent / "golden"
IDEALS = {"square": villarreal_ideal, "pentagon": pentagon_ideal}


def _row(seq):
    return ",".join(map(str, seq))


def cases() -> dict[str, list[list[str]]]:
    """Golden file name -> the commands whose stdout it concatenates;
    "{square}" and "{pentagon}" stand for an ideal file."""
    out = {"demo-villarreal": [["demo", "villarreal"]],
           "demo-pentagon": [["demo", "pentagon"]]}
    for n in range(5, 10):
        out[f"demo-family-n{n}"] = [["demo", "family", "--n", str(n)]]
    for name, make in IDEALS.items():
        path = "{" + name + "}"
        out[f"rt-{name}"] = [["rt", path]]
        out[f"classify-oracle-{name}"] = [["classify", path, "--oracle"]]
        out[f"classify-oracle-json-{name}"] = [
            ["classify", path, "--oracle", "--json"]]
        out[f"reduce-{name}"] = [
            ["reduce", path, "--alpha", _row(b.alpha), "--beta", _row(b.beta)]
            for b in taylor_layer(make(), 2)]
    return out


def transcript(commands: list[list[str]], files: dict[str, str]) -> str:
    """Each command as a "$ reeskit ..." line followed by its stdout."""
    chunks = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([a.format(**files) for a in argv]) == 0, argv
        chunks.append("$ reeskit " + " ".join(argv) + "\n" + buf.getvalue())
    return "".join(chunks)


def _ideal_files(folder: Path) -> dict[str, str]:
    files = {}
    for name, make in IDEALS.items():
        path = folder / f"{name}.ideal"
        path.write_text(render_ideal(make()))
        files[name] = str(path)
    return files


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert transcript(CASES[name], _ideal_files(tmp_path)) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        files = _ideal_files(Path(tmp))
        for name, commands in sorted(CASES.items()):
            (GOLDEN / f"{name}.txt").write_text(transcript(commands, files))
            print(f"wrote {name}.txt", file=sys.stderr)
