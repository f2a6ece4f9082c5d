"""Per-vertex fields, multi-column stacks, and their CSV round-trips.

A field is a plain 1-d float array aligned to a mesh. A FieldStack holds one
field per column, either one per subject or one per scale. All CSV values
carry 17 significant digits so write/read round-trips are lossless.
"""

from dataclasses import dataclass

import numpy as np

_FMT = "%.16e"


@dataclass(frozen=True)
class FieldStack:
    """N x S matrix of fields with per-column labels.

    axis_meaning is "subjects" or "scales".
    """

    values: np.ndarray
    labels: tuple
    axis_meaning: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("stack values must be an (N, S) matrix")
        if not np.all(np.isfinite(vals)):
            raise ValueError("stack values must be finite (no NaN)")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != vals.shape[1]:
            raise ValueError(
                f"got {len(labels)} labels for {vals.shape[1]} columns"
            )
        if self.axis_meaning not in ("subjects", "scales"):
            raise ValueError(f"unknown axis meaning {self.axis_meaning!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labels)

    @property
    def n_vertices(self):
        return self.values.shape[0]

    @property
    def n_columns(self):
        return self.values.shape[1]


def write_field_csv(path, values):
    """One value per line, line i = vertex i."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("field must be 1-d")
    with open(path, "w") as fh:
        fh.write((_FMT + "\n") * values.size % tuple(values.tolist()))


def _bad_line(path, lines, first, kind, width=None):
    """ValueError naming the first bad non-blank line from lines[first] on.

    A line is bad when a value does not parse or, given a width, its column
    count differs. Only the error path rescans, so the fast path keeps no
    line numbers.
    """
    for lineno, line in enumerate(lines[first:], start=first + 1):
        if not line.strip():
            continue
        tokens = [line] if width is None else line.split(",")
        try:
            [float(tok) for tok in tokens]
        except ValueError as exc:
            return ValueError(f"{path}:{lineno}: malformed {kind}: {exc}")
        if width is not None and len(tokens) != width:
            return ValueError(
                f"{path}:{lineno}: ragged {kind}: {len(tokens)} columns, header has {width}"
            )
    return ValueError(f"{path}: {kind} has no data rows")


def read_field_csv(path):
    with open(path) as fh:
        lines = fh.readlines()
    try:
        return np.asarray([float(line) for line in lines if line.strip()], dtype=float)
    except ValueError:
        raise _bad_line(path, lines, 0, "field CSV") from None


def write_stack_csv(path, stack):
    """Header row of column labels, then one comma-separated row per vertex."""
    with open(path, "w") as fh:
        fh.write(",".join(stack.labels) + "\n")
        row = ",".join([_FMT] * stack.n_columns) + "\n"
        fh.write(row * stack.n_vertices % tuple(stack.values.ravel().tolist()))


def read_stack_csv(path, axis_meaning="scales"):
    with open(path) as fh:
        lines = fh.readlines()
    header = next((i for i, line in enumerate(lines) if line.strip()), None)
    if header is None:
        raise ValueError(f"{path}: empty stack CSV")
    labels = lines[header].strip().split(",")
    try:
        values = np.asarray(
            [[float(tok) for tok in line.split(",")] for line in lines[header + 1 :] if line.strip()]
        )
    except ValueError:
        values = None  # a bad number or a ragged row; _bad_line tells which
    if values is None or values.ndim != 2 or values.shape[1] != len(labels):
        raise _bad_line(path, lines, header + 1, "stack CSV", len(labels))
    return FieldStack(values, labels, axis_meaning)
