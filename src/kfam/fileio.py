"""Reading and writing families as plain text.

Format: the first significant line is ``n=<ground size>``, then one member
per line as space-separated ascending 1-based labels.  Blank lines and lines
starting with ``#`` are ignored.  Duplicate members are dropped with a
warning; malformed input raises ParseError carrying the line number.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path

from .errors import ParseError
from .families import MAX_GROUND, Family, elements_of, mask_of

_HEADER = re.compile(r"^n\s*=\s*0*(\d+)$", re.ASCII)


def parse_family(text: str) -> Family:
    n = None
    masks = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            m = _HEADER.match(line)
            if not m:
                raise ParseError(f"line {lineno}: expected 'n=<ground size>', got {line!r}")
            digits = m.group(1)  # without leading zeros, so its length bounds it
            if len(digits) > len(str(MAX_GROUND)) or not 1 <= int(digits) <= MAX_GROUND:
                raise ParseError(f"line {lineno}: ground size outside [1, {MAX_GROUND}]")
            n = int(digits)
            continue
        labels = []
        for tok in line.split():
            if not (tok.isascii() and tok.isdigit()):
                raise ParseError(f"line {lineno}: bad label {tok!r}")
            try:
                labels.append(int(tok))
            except ValueError:  # int() refuses a label of thousands of digits
                raise ParseError(f"line {lineno}: label outside ground [{n}]") from None
        if any(not 1 <= e <= n for e in labels):
            raise ParseError(f"line {lineno}: label outside ground [{n}]")
        if labels != sorted(set(labels)):
            raise ParseError(f"line {lineno}: labels must be strictly ascending")
        mask = mask_of(labels)
        if mask in seen:
            warnings.warn(f"duplicate member at line {lineno} dropped", stacklevel=2)
            continue
        seen.add(mask)
        masks.append(mask)
    if n is None:
        raise ParseError("line 1: missing 'n=<ground size>' header")
    return Family.from_masks(n, masks)


def format_family(fam: Family) -> str:
    lines = [f"n={fam.n}"]
    for m in fam.members:
        lines.append(" ".join(str(e) for e in elements_of(m)))
    return "\n".join(lines) + "\n"


def load_family(path) -> Family:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc.reason})") from exc
    return parse_family(text)


def save_family(fam: Family, path) -> None:
    Path(path).write_text(format_family(fam))
