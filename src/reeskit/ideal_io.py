"""Plain-text ideal files.

    vars: x1 x2 x3
    f1: x1 x2
    f2: x2 x3    # trailing comments allowed

Blank lines and lines starting with # are ignored.  The vars line comes
first; generator lines must be named f1, f2, ... consecutively and list the
variables of a square-free monomial.
"""

from __future__ import annotations

from pathlib import Path

from .monomials import (
    IdealValidationError,
    Monomial,
    SquareFreeIdeal,
    VariableTable,
)


class IdealParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


def parse_ideal_text(text: str) -> SquareFreeIdeal:
    table = None
    supports: list[list[int]] = []
    expected = 1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, colon, tail = line.partition(":")
        if not colon:
            raise IdealParseError(line_no, "expected 'name: entries'")
        head = head.strip()
        entries = tail.split()
        if table is None:
            if head != "vars":
                raise IdealParseError(
                    line_no, f"first line must start with 'vars:', got {head!r}")
            if not entries:
                raise IdealParseError(line_no, "no variable names given")
            try:
                table = VariableTable(tuple(entries))
            except IdealValidationError as exc:
                raise IdealParseError(line_no, str(exc)) from exc
            continue
        if head != f"f{expected}":
            raise IdealParseError(
                line_no, f"expected generator 'f{expected}', got {head!r}")
        if not entries:
            raise IdealParseError(line_no, f"generator f{expected} is empty")
        seen: list[int] = []
        for name in entries:
            if name not in table.names:
                raise IdealParseError(line_no, f"unknown variable {name!r}")
            idx = table.index(name)
            if idx in seen:
                raise IdealParseError(
                    line_no, f"variable {name!r} repeated in f{expected}")
            seen.append(idx)
        supports.append(seen)
        expected += 1
    if table is None:
        raise IdealParseError(0, "empty ideal file")
    if not supports:
        raise IdealParseError(0, "no generators")
    try:
        return SquareFreeIdeal(
            table, tuple(Monomial.from_support(s) for s in supports))
    except IdealValidationError as exc:
        raise IdealParseError(0, f"invalid ideal: {exc}") from exc


def render_ideal(ideal: SquareFreeIdeal) -> str:
    lines = ["vars: " + " ".join(ideal.table.names)]
    for k, g in enumerate(ideal.gens, start=1):
        lines.append(
            f"f{k}: " + " ".join(ideal.table.names[v] for v, _ in g.exps))
    return "\n".join(lines) + "\n"


def load_ideal(path) -> SquareFreeIdeal:
    try:
        # utf-8-sig drops a leading byte-order mark
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IdealParseError(
            0, f"not UTF-8 text: byte {exc.object[exc.start]:#04x} "
               f"at offset {exc.start}") from None
    return parse_ideal_text(text)
