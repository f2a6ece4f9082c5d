"""Per-vertex fields, multi-column stacks, and their CSV round-trips.

A field is a plain 1-d float array aligned to a mesh. A FieldStack holds one
field per column, either one per subject or one per scale. All CSV values
carry 17 significant digits so write/read round-trips are lossless.
read_rows, the block reader behind the CSV readers, also reads the vertex
and face blocks of OFF and PLY meshes.
"""

import itertools
import warnings
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


def _data_lines(path, start, comments):
    """(line number, text) of the lines after line `start` that hold data, as
    np.loadtxt sees them: comments cut, blank lines skipped."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = (line.split(comments, 1)[0] if comments else line).strip()
            if lineno > start and text:
                yield lineno, text


def data_line(path, start, row, comments=None):
    """Line number of data row `row` (0-based) after line `start`."""
    return next(itertools.islice(_data_lines(path, start, comments), row, None))[0]


def read_rows(fh, path, kind, start, rows=None, *, skip=0, usecols=None, width=None,
              dtype=float, delimiter=None, comments=None):
    """The next `rows` rows of the open file fh (None: all left) as one 2-d np.loadtxt array.

    usecols keeps some columns and ignores any further ones; width fixes the
    column count; without either each line is one value. Only when loadtxt
    fails, finds fewer rows than declared or none at all, or reads a NaN or
    infinity into a float block, is the file rescanned from line `start`, past
    `skip` data rows, to name the bad line.
    """
    error = None
    try:
        with warnings.catch_warnings():
            # numpy >= 1.23 does not count blank or comment lines towards
            # max_rows, and warns that it does not
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(fh, dtype=dtype, comments=comments, delimiter=delimiter,
                             usecols=usecols, max_rows=rows, ndmin=2)
    except ValueError as exc:
        error = exc
    else:
        complete = len(arr) > 0 if rows is None else len(arr) == rows
        if complete and (usecols is not None or arr.shape[1] == (width or 1)):
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=1)) if dtype is float else ()
            if not len(bad):
                return arr
            line = data_line(path, start, skip + bad[0], comments)
            raise ValueError(f"{path}:{line}: non-finite value in {kind}")
    found, last = -skip, start
    for lineno, text in _data_lines(path, start, comments):
        if found == rows:
            break
        found, last = found + 1, lineno
        if found <= 0:
            continue
        tokens = text.split(delimiter) if usecols or width else [text]
        try:
            [dtype(tokens[c]) for c in usecols or range(len(tokens))]
        except IndexError:
            raise ValueError(
                f"{path}:{lineno}: malformed {kind}: {len(tokens)} columns, need {max(usecols) + 1}"
            ) from None
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed {kind}: {exc}") from None
        if width is not None and len(tokens) != width:
            raise ValueError(
                f"{path}:{lineno}: ragged {kind}: {len(tokens)} columns, header has {width}"
            )
    if rows is not None and found < rows:
        raise ValueError(
            f"{path}: truncated file: expected {rows} {kind}, found {found}; "
            f"last line read was line {last}"
        )
    if found <= 0:
        raise ValueError(f"{path}: {kind} has no data rows")
    raise ValueError(f"{path}: malformed {kind}: {error}")  # a value loadtxt refuses, Python reads


def read_field_csv(path):
    with open(path) as fh:
        return read_rows(fh, path, "field CSV", 0, delimiter=",").ravel()


def write_stack_csv(path, stack):
    """Header row of column labels, then one comma-separated row per vertex."""
    with open(path, "w") as fh:
        fh.write(",".join(stack.labels) + "\n")
        row = ",".join([_FMT] * stack.n_columns) + "\n"
        fh.write(row * stack.n_vertices % tuple(stack.values.ravel().tolist()))


def read_stack_csv(path, axis_meaning="scales"):
    with open(path) as fh:
        for header, line in enumerate(fh, start=1):
            if line.strip():
                break
        else:
            raise ValueError(f"{path}: empty stack CSV")
        labels = line.strip().split(",")
        values = read_rows(fh, path, "stack CSV", header, width=len(labels), delimiter=",")
    return FieldStack(values, labels, axis_meaning)
