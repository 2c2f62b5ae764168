"""Compare two output directories file by file.

    python scripts/compare_outputs.py DIR_A DIR_B [--rtol 1e-12]

Lists the files present in only one directory and the files whose bytes
differ.  For a differing CSV with the same header and row count it prints,
per column, the largest relative difference |a - b| / max(|a|, |b|) over
the rows where both cells are numbers, and the number of rows where the
cells differ as text (verdicts, "diverges", empty cells).  ``config.cfg``
is compared without its ``out_dir`` line, which echoes where the run wrote
(``--out``), not what it wrote.

Exit code: 0 when every file is byte-identical, 1 when files differ but
every difference is numeric and within --rtol, 2 otherwise.  This checks
the rule that a change keeps output bytes, or else shows agreement to
1e-12 relative.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return math.inf if not math.isfinite(scale) else abs(a - b) / scale


def compare_csv(text_a: str, text_b: str) -> tuple[list[str], bool, float]:
    """Report lines for two differing CSV texts, whether the difference is
    purely numeric (same header, rows and text cells), and the largest
    relative difference."""
    rows_a = list(csv.reader(io.StringIO(text_a)))
    rows_b = list(csv.reader(io.StringIO(text_b)))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return ["  headers differ"], False, math.inf
    if len(rows_a) != len(rows_b):
        return [f"  row counts differ: {len(rows_a) - 1} vs {len(rows_b) - 1}"], False, math.inf
    header = rows_a[0]
    worst = [0.0] * len(header)
    text_diffs = [0] * len(header)
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if len(ra) != len(rb):
            return ["  rows have different cell counts"], False, math.inf
        for j, (ca, cb) in enumerate(zip(ra, rb)):
            if ca == cb:
                continue
            xa, xb = _number(ca), _number(cb)
            if xa is None or xb is None:
                text_diffs[j] += 1
            else:
                worst[j] = max(worst[j], _rel_diff(xa, xb))
    lines = []
    for name, rel, texts in zip(header, worst, text_diffs):
        if rel or texts:
            lines.append(f"  {name}: max rel diff {rel:.3g}" + (f", {texts} text cell(s) differ" if texts else ""))
    return lines, not any(text_diffs), max(worst, default=0.0)


def _without_out_dir(name: Path, data: bytes) -> bytes:
    if name.name != "config.cfg":
        return data
    lines = data.splitlines(keepends=True)
    return b"".join(line for line in lines if line.partition(b"=")[0].strip() != b"out_dir")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--rtol", type=float, default=1e-12, help="numeric tolerance for exit code 1")
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"not a directory: {d}")

    files_a = {p.relative_to(args.dir_a) for p in args.dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(args.dir_b) for p in args.dir_b.rglob("*") if p.is_file()}
    status = 0
    for name in sorted(files_a ^ files_b):
        print(f"only in {args.dir_a if name in files_a else args.dir_b}: {name}")
        status = 2
    for name in sorted(files_a & files_b):
        data_a, data_b = (_without_out_dir(name, (d / name).read_bytes()) for d in (args.dir_a, args.dir_b))
        if data_a == data_b:
            continue
        print(f"differs: {name}")
        if name.suffix != ".csv":
            status = 2
            continue
        lines, numeric_only, worst = compare_csv(data_a.decode(), data_b.decode())
        print("\n".join(lines))
        status = max(status, 1 if numeric_only and worst <= args.rtol else 2)
    if status == 0:
        print(f"{len(files_a)} file(s), all byte-identical")
    return status


if __name__ == "__main__":
    sys.exit(main())
