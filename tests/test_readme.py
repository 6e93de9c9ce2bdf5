"""README's examples, run as written: the Library block and each
"$ reeskit ... square.ideal" transcript, on the square ideal."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from reeskit.cli import main
from reeskit.demos import villarreal_ideal
from reeskit.ideal_io import render_ideal

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_library_block_prints_what_it_says():
    code = re.search(r"```python\n(.*?)```", README, re.DOTALL).group(1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(code, {})
    # each print's comment opens with the value it prints
    said = [re.match(r'"?(\w+)', c).group(1)
            for c in re.findall(r"#\s*(.*)", code)]
    assert said == ["no", "reduced", "2"]
    assert buf.getvalue().split() == said


# (argv, shown output) of each indented "$ reeskit" block
COMMANDS = [(m.group(1).split(), m.group(2)) for m in re.finditer(
    r"^    \$ reeskit (.*)\n((?:    .*\n)*)", README, re.MULTILINE)]


def test_every_square_example_is_found():
    assert len(COMMANDS) >= 3
    assert all("square.ideal" in argv for argv, _ in COMMANDS)


@pytest.mark.parametrize("argv, shown", COMMANDS,
                         ids=[" ".join(a[:1] + a[2:]) for a, _ in COMMANDS])
def test_example_output_appears_in_order(argv, shown, tmp_path):
    path = tmp_path / "square.ideal"
    path.write_text(render_ideal(villarreal_ideal()))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([str(path) if a == "square.ideal" else a
                     for a in argv]) == 0
    actual = " ".join(buf.getvalue().split())
    at = 0
    for chunk in shown.split("..."):
        chunk = " ".join(chunk.split())
        if not chunk:
            continue
        found = actual.find(chunk, at)
        assert found >= 0, chunk
        at = found + len(chunk)
