"""Deterministic tabular results with CSV rendering.

Formatting contract: UTF-8, header row, floats at 9 significant digits,
bools as true/false, rows in the order they were appended. Two runs that
append identical values produce byte-identical CSV. A row whose values are
all exactly int, float or str is rendered by one cached % template with the
same text as format_value ("%.9g" spells nan and inf as it does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.9g}"
    if v is None:
        return ""
    return str(v)


# The % conversion that renders a value of exactly this type as format_value
# does; a row of only these types is rendered by one template.
_CONVERSIONS = {int: "%d", float: "%.9g", str: "%s"}


def _row_template(types: tuple) -> Optional[str]:
    if all(t in _CONVERSIONS for t in types):
        return ",".join(_CONVERSIONS[t] for t in types)
    return None


@dataclass
class ResultTable:
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        self.columns = tuple(self.columns)

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        templates: dict[tuple, Optional[str]] = {}
        for row in self.rows:
            types = tuple(map(type, row))
            if types not in templates:
                templates[types] = _row_template(types)
            template = templates[types]
            if template is None:
                lines.append(",".join(format_value(v) for v in row))
            else:
                lines.append(template % tuple(row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        text = self.to_csv_text()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    def __len__(self) -> int:
        return len(self.rows)
