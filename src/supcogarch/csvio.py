"""The package's one CSV writer.

Every number is printed with 17 significant digits (``'%.17g'``, the same
text as ``format(x, '.17g')``), enough to round-trip any double.  A table is
rendered by one %-template applied to each row; only optional cells (an
empty lag, a closed form that may diverge) are formatted on their own,
with ``G17 % x`` or :func:`analytic_cell`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["G17", "csv_text", "analytic_cell", "columns_to_csv", "event_columns"]

G17 = "%.17g"


def csv_text(header: str, template: str, rows: Iterable[tuple]) -> str:
    """``header``, then ``template % row`` per row; newline-terminated."""
    return "\n".join([header, *map(template.__mod__, rows)]) + "\n"


def analytic_cell(value: float | None) -> str:
    """A closed form's cell: the number, or "diverges" where the moment is
    infinite (None)."""
    return "diverges" if value is None else G17 % value


def columns_to_csv(header: str, *columns) -> str:
    """Equal-length numeric columns, every cell printed with ``G17``."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    return csv_text(header, ",".join([G17] * len(columns)), map(tuple, table.tolist()))


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
