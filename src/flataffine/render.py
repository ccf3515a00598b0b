"""Plain-text rendering of structure-constant tables and linear combinations."""
from __future__ import annotations

from fractions import Fraction

from .algebra import SCAlgebra


def format_combination(vector, names) -> str:
    """Render a coordinate vector as a combination of named basis elements.

    Examples: "0", "e1", "-C4", "2*e1 - 2*C5", "(3/2)*C3 + C4".
    """
    return _format_terms(zip(vector, names))


def _format_terms(terms) -> str:
    """`format_combination` of (coefficient, name) terms."""
    parts = []
    for coeff, name in terms:
        coeff = Fraction(coeff)
        if not coeff:
            continue
        mag = abs(coeff)
        if mag == 1:
            body = name
        elif mag.denominator == 1:
            body = f"{mag}*{name}"
        else:
            body = f"({mag})*{name}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"


def render_table_text(A: SCAlgebra) -> str:
    """Aligned multiplication grid, rows = left factor."""
    names = A.basis_names
    cells = [[""] + list(names)]
    for i, row_name in enumerate(names):
        row = [row_name]
        for j in range(A.dim):
            row.append(_format_terms((x, names[k]) for k, x in A.rows[i][j]))
        cells.append(row)
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    lines = []
    for r, row in enumerate(cells):
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if r == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)
