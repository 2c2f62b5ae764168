"""The package's one CSV writer.

Every number is printed with 17 significant digits (``'%.17g'``, the same
text as ``format(x, '.17g')``), enough to round-trip any double.  A table
with text cells is rendered by one %-template applied to each row; only
optional cells (an empty lag, a closed form that may diverge) are formatted
on their own, with ``G17 % x`` or :func:`analytic_cell`.

A numeric table (:func:`columns_to_csv`) goes through an exact vectorised
kernel, ``_CHUNK`` cells at a time.  The 17 digits of |x| are the integer
nearest s = |x| 10^(16-E), E = floor(log10|x|) in float64, with s computed
in long double from a table parsed from ``"1e{k}"``: two roundings of at
most 2^-64 relative, so below 1e17 s is off by less than 0.011.  A cell with
1e16 <= s < 1e17 - 1 (E is the printed exponent) and the fraction of s at
least 1/64 from 1/2 (the rounding is the true one) gets its digits from
integer arithmetic.  The rest (0, inf, nan, ties, cells near a rounding or
digit boundary: about 2% of a path export), and every cell where long
double has under 64 significand bits, are printed by ``G17 % x``.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

import numpy as np

__all__ = ["G17", "csv_text", "analytic_cell", "columns_to_csv", "export_grid", "off_events", "event_columns"]

G17 = "%.17g"

_EXACT = np.finfo(np.longdouble).nmant >= 63
_E0 = -324  # the exponents E of nonzero finite doubles are -324 ... 308
_W = 25  # a cell: its text (at most 24 characters), NUL-padded, and its separator
_CHUNK = 8192  # cells formatted at once, which bounds the kernel's scratch


def csv_text(header: str, template: str, rows: Iterable[tuple]) -> str:
    """``header``, then ``template % row`` per row; newline-terminated."""
    return "\n".join([header, *map(template.__mod__, rows)]) + "\n"


def analytic_cell(value: float | None) -> str:
    """A closed form's cell: the number, or "diverges" where the moment is
    infinite (None)."""
    return "diverges" if value is None else G17 % value


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's tables, built on first use: per E, 64 10^(16-E) (s in
    units of 1/64 keeps six fraction bits through the cast to uint64) and
    ``e+XX``; 4-digit ASCII groups, [g] with trailing zeros NUL, [10000 + g] in full."""
    scale = np.array([np.longdouble(f"1e{16 - e}") * 64 for e in range(_E0, 309)])
    suffix = np.frombuffer(b"".join((b"e%+03d" % e).ljust(5, b"\0") for e in range(_E0, 309)), np.uint8)
    digits = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48
    stripped = np.where(np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1)[:, ::-1], 0, digits)
    return scale, suffix.reshape(-1, 5), np.concatenate([stripped, digits]).astype(np.uint8).view("<u4").ravel()


def _g17_cells(x: np.ndarray) -> np.ndarray:
    """Row i: the ``G17`` text of ``x[i]``, NUL-padded to ``_W`` bytes."""
    scale, suffix, groups = _tables()
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        e = np.where(np.isfinite(e), e, 0).astype(np.intp)
        v = (a.astype(np.longdouble) * scale[e - _E0]).astype(np.uint64)
    ok = _EXACT & np.isfinite(x) & (v >= np.uint64(64 * 10**16)) & (v < np.uint64(64 * (10**17 - 1)))
    frac = v & np.uint64(63)
    ok &= (frac != 31) & (frac != 32)  # the fraction of s is at least 1/64 from 1/2
    # sort by layout: fixed style by E (-4 ... 16), exponent style (17), fallback (18)
    key = np.where(ok, np.where((e >= -4) & (e <= 16), e, 17), 18).astype(np.int8)
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key + 4, minlength=23)
    n = len(x) - counts[22]
    cells = np.zeros((len(x), _W), np.uint8)
    xs, vs, es = x[order], v[order[:n]], e[order[:n]]
    lead, r = np.divmod((vs >> np.uint64(6)) + ((vs >> np.uint64(5)) & np.uint64(1)), np.uint64(10**16))
    hi, lo = (h.astype(np.uint32) for h in np.divmod(r, np.uint64(10**8)))
    (g0, g1), (g2, g3) = np.divmod(hi, np.uint32(10**4)), np.divmod(lo, np.uint32(10**4))
    # a group keeps its trailing zeros (the full word, at 10000 + g) when a later group is nonzero
    later = np.stack([g0 + 10000 * ((g1 | lo) != 0), g1 + 10000 * (lo != 0), g2 + 10000 * (g3 != 0), g3], 1)
    digits = groups[later].view(np.uint8)  # digits 2 ... 17, trailing zeros NUL
    cells[:n, 0] = np.signbit(xs[:n]) * np.uint8(45)
    start = 0
    for k in np.flatnonzero(counts[:22]):
        b, start, E = slice(start, start + counts[k]), start + counts[k], k - 4
        m, p = (1 - E, 0) if E < 0 else (0, E if E <= 16 else 0)  # "0.00" prefix, integer digits after the first
        blk = cells[b]
        blk[:, 1:1 + m] = np.frombuffer(b"0.000"[:m], np.uint8)
        blk[:, 1 + m] = lead[b] + np.uint64(48)
        blk[:, 2 + m:2 + m + p] = np.maximum(digits[b, :p], 48)  # a zero of the integer part stays
        q = 2 + m + p
        if E >= 0 and p < 16:
            blk[:, q] = (digits[b, p] != 0) * np.uint8(46)  # no point without a fraction digit
            q += 1
        blk[:, q:q + 16 - p] = digits[b, p:]
        if E > 16:
            blk[:, 19:24] = suffix[es[b] - _E0]
    cells[n:, :-1] = np.array([G17 % c for c in xs[n:].tolist()], "S24").view(np.uint8).reshape(-1, _W - 1)
    out = np.empty_like(cells)
    out.view(f"V{_W}")[order] = cells.view(f"V{_W}")
    return out


def columns_to_csv(header: str, *columns) -> str:
    """Equal-length numeric columns, every cell printed with ``G17``; a None
    column prints empty cells."""
    cols = [c if c is None else np.asarray(c, dtype=float) for c in columns]
    nums, empty = [c for c in cols if c is not None], [i for i, c in enumerate(cols) if c is None]
    (rows,), step = {len(c) for c in nums}, max(1, _CHUNK // len(cols))  # a ValueError unless one length
    parts = [header + "\n"]
    for r0 in range(0, rows, step):
        cells = _g17_cells(np.column_stack([c[r0:r0 + step] for c in nums]).ravel()).reshape(-1, len(nums), _W)
        if empty:  # a None column's cells: NUL up to the separator
            cells = np.insert(cells, [i - j for j, i in enumerate(empty)], 0, axis=1)
        cells[:, :, -1] = ord(",")
        cells[:, -1, -1] = ord("\n")
        parts.append(cells.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def export_grid(t0: float, t1: float, step: float) -> np.ndarray:
    """t0 + step, t0 + 2 step, ... on (t0, t1] (``np.arange``'s points), the last
    t1 itself where (t1 - t0) / step is a whole number up to rounding."""
    k, grid = (t1 - t0) / step, np.arange(t0 + step, t1 + 2.0 * step, step)
    return np.append(grid[: round(k) - 1], t1) if abs(k - round(k)) <= 1e-12 * k else grid[: int(k)]


def off_events(grid: np.ndarray, event_t: np.ndarray) -> np.ndarray:
    """The points of ``grid`` that are not among the ascending times
    ``event_t``: a point is one when no event time equals it."""
    return grid[np.searchsorted(event_t, grid) == np.searchsorted(event_t, grid, side="right")]


def event_columns(plain_t: np.ndarray, event_t: np.ndarray, columns) -> list[np.ndarray]:
    """Row layout of a piecewise path export: one row per plain time and two
    per event (left limit, then post-jump value), merged stably by time.

    ``columns`` holds one ``(plain_values, left_values, post_values)`` triple
    per value column; returns the time column followed by the value columns.
    """
    times = np.concatenate([plain_t, np.repeat(event_t, 2)])
    order = np.argsort(times, kind="stable")
    out = [times[order]]
    for plain, left, post in columns:
        out.append(np.concatenate([plain, np.column_stack([left, post]).ravel()])[order])
    return out
