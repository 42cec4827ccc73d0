"""Table/figure formatting for the experiment harness.

Each registry entry's report (:mod:`repro.bench.experiments`) prints the
same rows/series the paper reports, side by side with the paper's
values, so EXPERIMENTS.md can be regenerated from ``python -m repro
experiments`` output.
"""

from __future__ import annotations


def format_comparison_table(title: str, rows, columns) -> str:
    """Render a fixed-width comparison table.

    ``rows`` is a list of (label, {column: value}); ``columns`` is a list
    of (column_key, header, format_spec).
    """
    header_cells = ["{:<22}".format(title)]
    for _key, header, _fmt in columns:
        header_cells.append("{:>18}".format(header))
    lines = ["".join(header_cells), "-" * (22 + 18 * len(columns))]
    for label, values in rows:
        cells = ["{:<22}".format(label)]
        for key, _header, fmt in columns:
            value = values.get(key)
            if value is None:
                cells.append("{:>18}".format("-"))
            else:
                cells.append("{:>18}".format(format(value, fmt)))
        lines.append("".join(cells))
    return "\n".join(lines)


def ratio(measured, paper) -> float | None:
    """measured / paper, or None when either side is missing."""
    if measured is None or paper in (None, 0):
        return None
    return measured / paper


def human_bytes(n: int) -> str:
    """Compact byte-count rendering (8KB, 4MB, ...)."""
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024:
            return f"{n:g}{unit}"
        n //= 1024
    return f"{n}TB"
