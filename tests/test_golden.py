"""Golden CLI transcripts: stdout of fixed commands, compared byte for byte.

The files under tests/golden/ hold the expected output.  After a deliberate
change to the CLI's output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import contextlib
import io
import itertools
import random
import sys
import tempfile
from pathlib import Path

import pytest

from reeskit.cli import main
from reeskit.demos import (
    family_ideal,
    pentagon_ideal,
    random_ideal,
    random_shape_ideal,
    villarreal_ideal,
)
from reeskit.ideal_io import render_ideal
from reeskit.monomials import make_ideal
from reeskit.taylor import taylor_layer

GOLDEN = Path(__file__).parent / "golden"
IDEALS = {"square": villarreal_ideal, "pentagon": pentagon_ideal,
          "random1063": lambda: random_ideal(random.Random(1063), 5, 8)}


def _union(*parts):
    """The parts' generators side by side, the k-th part over its own
    variables a0.., b0.., ...: one component per part's component."""
    names, supports = [], []
    for letter, part in zip("abcd", parts):
        supports += [sorted(len(names) + v for v in g) for g in part.supports]
        names += [f"{letter}{v}" for v in range(len(part.table))]
    return make_ideal(names, supports)


def _edge_ideal(vertices, edges):
    """The edge ideal of a graph on the vertices x0, x1, ...: one
    generator x_u x_v per edge (u, v)."""
    return make_ideal([f"x{v}" for v in range(vertices)],
                      [sorted(e) for e in edges])


# ideal files for single commands only, not for the IDEALS cases
EXTRA = {"family7": lambda: family_ideal(7),
         "family6": lambda: family_ideal(6),
         "evencycle7": lambda: random_shape_ideal("even-cycle", 7, seed=1),
         "evencycle10": lambda: random_shape_ideal("even-cycle", 10, seed=1),
         "k5edge": lambda: _edge_ideal(5, itertools.combinations(range(5), 2)),
         "c10edge": lambda: _edge_ideal(
             10, [(v, (v + 1) % 10) for v in range(10)]),
         # the square beside the pentagon, and that pair twice over:
         # components of at most 5 vertices
         "union9": lambda: _union(villarreal_ideal(), pentagon_ideal()),
         # two trees beside an odd cycle: LinearType
         "linear": lambda: _union(random_shape_ideal("forest", 4, seed=0),
                                  random_shape_ideal("odd-cycle", 5, seed=0)),
         "union13": lambda: _union(villarreal_ideal(), pentagon_ideal(),
                                   villarreal_ideal()),
         "union18": lambda: _union(villarreal_ideal(), pentagon_ideal(),
                                   villarreal_ideal(), pentagon_ideal())}


def _row(seq):
    return ",".join(map(str, seq))


def cases() -> dict[str, list[list[str]]]:
    """Golden file name -> the commands whose stdout it concatenates;
    "{square}", "{pentagon}", "{random1063}" and each name in EXTRA in
    braces stand for an ideal file."""
    out = {"demo-villarreal": [["demo", "villarreal"]],
           "demo-pentagon": [["demo", "pentagon"]],
           "rt-family7": [["rt", "{family7}", "--s-max", "6"]],
           # many disjoint pairs that no one-index swap settles
           "rt-k5edge": [["rt", "{k5edge}", "--s-max", "5"]],
           "rt-c10edge": [["rt", "{c10edge}", "--s-max", "5"]],
           # wide layers that a generator settling its betas keeps cheap
           "rt-evencycle10": [["rt", "{evencycle10}", "--s-max", "6"]],
           # no bound applies: the Unknown verdict and its oracle hint
           "classify-evencycle7": [["classify", "{evencycle7}"],
                                   ["classify", "{evencycle7}", "--json"]],
           # components of at most 5 vertices: relation type at most 3
           "classify-union9": [["classify", "{union9}"]],
           # forest and unique_odd_cycle classes in JSON
           "classify-json-linear": [["classify", "{linear}", "--json"]],
           "classify-union18": [["classify", "{union18}"],
                                ["classify", "{union18}", "--json"]],
           "classify-oracle-union9": [
               ["classify", "{union9}", "--oracle", "--s-max", "3"]],
           "classify-oracle-union13": [
               ["classify", "{union13}", "--oracle", "--s-max", "5"]],
           # F is stuck, and no irredundancy pattern fits it
           "reduce-family6": [["reduce", "{family6}", "--alpha", "1,1,2,3,4",
                               "--beta", "5,5,5,6,6"]],
           "taylor-square": [["taylor", "{square}", "--degree", "2"],
                             ["taylor", "{square}", "--json"]],
           # shared_index, then constant_row, then power_factor
           "reduce4-pentagon": [["reduce", "{pentagon}", "--alpha", "3,5,5,5",
                                 "--beta", "4,4,4,5"]],
           # constant-row, block-disjoint and power-factor chains
           "reduce3-square": [
               ["reduce", "{square}", "--alpha", _row(b.alpha),
                "--beta", _row(b.beta)]
               for b in taylor_layer(villarreal_ideal(), 3)]}
    for shape in ("forest", "odd-cycle", "even-cycle"):
        out[f"random-{shape}"] = [
            ["random", "--graph-shape", shape, "--n", "5", "--seed", "3"]]
    # n = 12..16 were first written by the index-order fiber search alone,
    # so they pin the variable search's F and G against it
    for n in range(5, 17):
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
    for name, make in {**IDEALS, **EXTRA}.items():
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
