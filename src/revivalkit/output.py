"""Deterministic file outputs: CSV at 17 significant digits, JSON, plot scripts."""

from __future__ import annotations

import json
from pathlib import Path


def fmt(value) -> str:
    """Round-trip-safe text for one cell."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, complex):
        return f"{format(value.real, '.17g')}{'+' if value.imag >= 0 else '-'}{format(abs(value.imag), '.17g')}j"
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write rows as they are formatted, so memory does not grow with the table."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        out.writelines(",".join(fmt(v) for v in row) + "\n" for row in rows)
    return path


def write_json(path: Path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def write_plot_script(path: Path, title: str, plots: list[tuple[str, str, str]]) -> Path:
    """Emit a gnuplot script; plots are (csv_name, using_spec, legend)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key outside",
        "plot \\",
    ]
    clauses = [
        f"  '{csv}' using {using} with lines title '{legend}'"
        for csv, using, legend in plots
    ]
    lines.append(", \\\n".join(clauses))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
