"""Paper-style text tables for benchmark and CLI output.

The human-readable rendering the ``benchmarks/`` series and the serve /
cluster / audit / ledger CLIs print, kept byte-compatible so existing
series remain comparable.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def format_table(title: str, headers: Sequence, rows: Iterable) -> str:
    """Render one aligned results table.

    ``rows`` may be any iterable (including a one-shot generator) and may
    be empty; short rows are padded per-column.  Column widths fit the
    widest cell or header.
    """
    rows = [tuple(row) for row in rows]
    widths = [
        max([len(str(h))] + [len(str(row[i])) for row in rows if i < len(row)])
        for i, h in enumerate(headers)
    ]
    lines = [f"\n== {title} =="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    title: str,
    headers: Sequence,
    rows: Iterable,
    path: Optional[str] = None,
) -> str:
    """Print a table to stdout and optionally append it to ``path``."""
    text = format_table(title, headers, rows)
    print(text)
    if path is not None:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text
