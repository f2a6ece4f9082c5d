"""Per-vertex fields, multi-column stacks, and their CSV round-trips.

A field is a plain 1-d float array aligned to a mesh. A FieldStack holds one
field per column, either one per subject or one per scale. All CSV values
carry 17 significant digits so write/read round-trips are lossless. The
bytes are those of "%.16e" per value (or "%d" in the index and flag columns
of StatMap rows and Matrix Market entries); one vectorized exact encoder
writes them all, and hands the few values it cannot decide to "%" one at a
time. Its mirror, one vectorized exact decoder, reads field and stack CSVs
made only of such rows, bit for bit as np.loadtxt does, and hands values
outside [1e-280, 1e280] or next to a rounding tie to float(); any other CSV
goes to np.loadtxt. write_json writes every JSON file. read_rows, the block
reader behind the CSV readers, also reads the vertex and face blocks of OFF
and PLY meshes, always with np.loadtxt.
"""

import functools
import itertools
import json
import warnings
from dataclasses import dataclass

import numpy as np

_FMT = "%.16e"
_BLOCK = 8192  # values encoded at once: the work arrays stay in cache
# bytes decoded at once, then up to a newline: the work arrays stay a few MB, and each
# ufunc call is long enough that reader threads overlap while it releases the GIL
_READ_BLOCK = 1 << 18
# 10**p is tabled for p in [_P0, 297]: the encoder's 16 - floor(log10|x|) for |x| in
# [1e-280, 1e280], log10 a decade off either way, and the decoder's e - 16 for e in [-280, 280]
_P0 = -296


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


def _split(x):
    """Dekker's split of x into a high and a low half of 26 bits each."""
    t = 134217729.0 * x  # 2**27 + 1
    high = t - (t - x)
    return high, x - high


@functools.cache
def _tables():
    """10**p as hi + lo (exact to about 2**-106) with hi's halves, for p from _P0,
    the 4 ASCII digits of each of 0000..9999 as one little-endian word, and the
    byte masks that cut a "%.16e" slot to "%d": row e for e + 1 digits, row 17 for zero.

    Reader threads may build the tables twice on a first concurrent call; both builds
    are identical, so whichever the cache keeps is the same."""
    hi, lo = [], []
    for p in range(_P0, 298):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)  # 10**p = num / den
        n, d = (num / den).as_integer_ratio()
        hi.append(n / d)
        lo.append((num * d - n * den) / (d * den))
    hi = np.array(hi)
    digits = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), "<u4")
    keep = [[1, 0, 1, 0] + [1] * e + [0] * (23 - e) + [1] for e in range(17)]
    masks = (np.array(keep + [[0] + keep[0][1:]], np.uint8) * 255).view("<u4")
    return hi, np.array(lo), *_split(hi), digits, masks


def _encode(values, sep=",", ints=()):
    """Yield, block by block, the rows of the (N,) or (N, S) float array values:
    the blocks join to exactly (sep.join(fmts) + "\n") * N % tuple(values.ravel()),
    where fmts[j] is "%d" for the integer columns j in ints and _FMT for the rest."""
    values = np.asarray(values, dtype=float)
    cols = values.shape[1] if values.ndim == 2 else 1
    if cols == 0:
        yield "\n" * len(values)
        return
    ends = np.array([ord(sep)] * (cols - 1) + [ord("\n")], "<u4") << 24
    fmts = ["%d" if j in ints else _FMT for j in range(cols)]
    hi, lo, hi_high, hi_low, digits, int_masks = _tables()
    flat = values.ravel()
    size = cols * max(1, _BLOCK // cols)  # whole rows
    for x in (flat[i:i + size] for i in range(0, flat.size, size)):
        a = np.abs(x)
        fast = (a >= 1e-280) & (a <= 1e280)
        a = np.where(fast, a, 1.0)
        e = np.floor(np.log10(a)).astype(np.int64)
        k = 16 - e - _P0
        # a * 10**(16 - e) = prod + corr, prod an integer-valued double: the rounding
        # error of the product comes out exact, the rest stays below 1e-13 of a unit
        prod = a * hi[k]
        high, low = _split(a)
        corr = ((high * hi_high[k] - prod) + high * hi_low[k] + low * hi_high[k]) + low * hi_low[k]
        corr += a * lo[k]
        near = np.rint(corr)
        q = prod.astype(np.int64) + near.astype(np.int64)
        # a fraction this near one half may be an exact tie (1000000000000000.25), and
        # a wrong decade from log10 leaves the scaled value below 1e16 or q at 1e17
        fast &= (np.abs(np.abs(corr - near) - 0.5) > 1e-9) & (q < 10**17)
        fast &= (q > 10**16) | ((q == 10**16) & (corr >= near))
        zero = x == 0
        q[zero], e[zero] = 0, 0
        lead, top, bottom = q // 10**16, q // 10**8 % 10**8, q % 10**8
        # 4-byte words, zero bytes cut at the end: sign 0 d . | 16 digits | e sign 0 0 | 2-3 digits, end
        w = np.empty((x.size, 7), "<u4")
        w[:, 0] = np.signbit(x) * ord("-") + ((ord("0") + lead) << 16) + (ord(".") << 24)
        for j, group in enumerate((top // 10**4, top % 10**4, bottom // 10**4, bottom % 10**4)):
            w[:, 1 + j] = digits[group]
        w[:, 5] = ord("e") + (np.where(e < 0, ord("-"), ord("+")) << 8)
        w[:, 6] = (digits[np.abs(e)] >> 8) & np.where(np.abs(e) < 100, 0xFFFF00, 0xFFFFFF)
        w.reshape(-1, cols, 7)[:, :, 6] |= ends
        if ints:  # integers below 1e17 carry all their digits: cut "." and what follows them
            xi = x.reshape(-1, cols)[:, ints]
            fast.reshape(-1, cols)[:, ints] &= (np.trunc(xi) == xi) & (np.abs(xi) < 1e17)
            row = np.where(xi == 0, 17, np.clip(e.reshape(-1, cols)[:, ints], 0, 16))
            w.reshape(-1, cols, 7)[:, ints] &= int_masks[row]
        slow = np.flatnonzero(~(fast | zero))
        text = "".join([(fmts[i % cols] % v).ljust(27, "\0")
                        for i, v in zip(slow.tolist(), x[slow].tolist())]).encode()
        w.view(np.uint8).reshape(-1, 28)[slow, :27] = np.frombuffer(text, np.uint8).reshape(-1, 27)
        yield w.tobytes().translate(None, b"\0").decode("ascii")


def _near_midpoint(y, res):
    """Where y + res lies within 1e-6 ulp of the midpoint between the double y > 0 and
    its neighbour on the side of res: half the gap to that neighbour, which just
    below a power of two is a quarter of the gap above it."""
    gap = np.abs(np.nextafter(y, np.copysign(np.inf, res)) - y)
    return np.abs(np.abs(res) - gap / 2) <= 1e-6 * gap


def _decode(fh, cols):
    """The rest of the binary file fh, read block by block, as the (rows, cols) float
    array that np.loadtxt reads from it with delimiter=",", bit for bit, when it holds
    only _encode's "%.16e" rows of cols values each; None at the first block that
    does not. Values outside [1e-280, 1e280], and values whose exact decimal lies
    near a rounding midpoint, are read by float() one at a time."""
    hi, lo, hi_high, hi_low = _tables()[:4]
    # a value and its separator take 23 bytes or more; the result, allocated before
    # the work arrays of the blocks, is cut to size in place at the end
    here = fh.tell()
    out = np.empty((fh.seek(0, 2) - here) // 23)
    fh.seek(here)
    n = 0
    while block := fh.read(_READ_BLOCK):
        block += fh.readline()
        if not block.endswith(b"\n"):
            return None
        raw = block + bytes(8)  # 8 bytes past the last token for its word reads
        buf = np.frombuffer(raw, np.uint8)
        sep = np.flatnonzero((buf == 44) | (buf == 10))
        nl = buf[sep] == 10
        if sep.size % cols or nl.sum() != sep.size // cols or not nl[cols - 1::cols].all():
            return None
        start = np.concatenate(([0], sep[:-1] + 1))
        neg = buf[start] == 45
        s = start + neg
        size = sep - s  # d.dddddddddddddddde+dd, one more byte for a three-digit exponent
        if not np.all((size == 22) | (size == 23)):
            return None
        # a token is [-]d.<16 digits>e<+ or -><2 or 3 digits>: with the separators, the
        # leading "-" and the ".", "e" and sign checked where they stand, a count of the
        # digits shows that every other byte is one
        digits = buf.size - 8 - 4 * sep.size - np.count_nonzero(neg)
        if np.count_nonzero(buf - 48 < 10) != digits or not np.all(buf[s + 1] == 46):
            return None
        # bytes 2 to 25 of every token, in one stride-1 view: 16 digits in two words,
        # then "e", the sign and the exponent's first two digits in one 4-byte word
        tok = np.ndarray((buf.size - 23, 24), np.uint8, raw, strides=(1, 1))[s + 2]
        mark = tok.view("<u4")[:, 4].astype(np.int64) & 0xFFFF
        if not np.all((mark == 0x2B65) | (mark == 0x2D65)):
            return None
        # 8 digits per word: pairs 10 * d0 + d1, then 100 * pair0 + pair1, then the halves
        v = (tok.view("<u8")[:, :2] & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
        v = (v & 0x00FF00FF00FF00FF) * 6553601 >> 16
        v = (v & 0x0000FFFF0000FFFF) * 42949672960001 >> 32
        e = tok[:, 18:21].astype(np.int64) & 15
        e = np.where(size == 23, e[:, 0] * 100 + e[:, 1] * 10 + e[:, 2], e[:, 0] * 10 + e[:, 1])
        e = np.where(mark == 0x2D65, -e, e)
        # q = d * 10**16 + top * 10**8 + bottom < 10**17 is qa + qb, both exact doubles
        # (qa = (d * 10**8 + top) * 10**8), and a + r with a = fl(q)
        qa = ((buf[s] - 48) * 1e8 + v[:, 0]) * 1e8
        qb = v[:, 1].astype(float)
        a = qa + qb
        r = (qa - a) + qb
        # a * 10**p = prod + corr as in _encode, p = e - 16, plus r * 10**p
        k = np.clip(e, -280, 280) - 16 - _P0
        prod = a * hi[k]
        high, low = _split(a)
        corr = ((high * hi_high[k] - prod) + high * hi_low[k] + low * hi_high[k]) + low * hi_low[k]
        corr += a * lo[k] + r * hi[k]
        y = prod + corr
        # res is q * 10**p less y to within 1e-12 of an ulp (2e-16 for |e| < 240)
        res = (prod - y) + corr
        fast = ~_near_midpoint(y, res) & (np.abs(e) <= 280) & (y >= 1e-280) & (y <= 1e280)
        fast |= a == 0  # zero is exact at any exponent
        np.negative(y, out=y, where=neg)
        slow = np.flatnonzero(~fast)
        y[slow] = [float(raw[t:u]) for t, u in zip(start[slow].tolist(), sep[slow].tolist())]
        out[n:n + y.size] = y
        n += y.size
    if not n:
        return None
    out.resize(n, refcheck=False)
    return out.reshape(-1, cols)


def write_field_csv(path, values):
    """One value per line, line i = vertex i."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("field must be 1-d")
    with open(path, "w") as fh:
        fh.writelines(_encode(values))


def write_json(path, payload):
    """payload as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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

    A comma-separated float block that runs to the end of the file is first read
    by _decode, which gives the same array when its rows are the encoder's.

    usecols keeps some columns and ignores any further ones; width fixes the
    column count; without either each line is one value. Only when loadtxt
    fails, finds fewer rows than declared or none at all, or reads a NaN or
    infinity into a float block, is the file rescanned from line `start`, past
    `skip` data rows, to name the bad line; a whole-file block without a data
    line goes to that rescan before loadtxt sees it.
    """
    error = None
    try:
        arr = None
        if rows is None and delimiter == "," and dtype is float:
            # through a binary handle of its own, so that fh stays where loadtxt needs it
            with open(path, "rb") as data:
                head = b"".join(itertools.islice(data, start))
                if b"\r" not in head:  # text mode also ends a line at a lone "\r"
                    arr = _decode(data, width or 1)
        if arr is None and rows is None and next(_data_lines(path, start, comments), None) is None:
            arr = np.empty((0, 1))  # no data line: the rescan names it, where loadtxt would warn
        if arr is None:
            # numpy >= 1.23 does not count blank or comment lines towards max_rows, and
            # warns that it does not. catch_warnings is not thread-safe, and whole-file
            # blocks, which reader threads read, never need it.
            if rows is not None:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    arr = np.loadtxt(fh, dtype=dtype, comments=comments, delimiter=delimiter,
                                     usecols=usecols, max_rows=rows, ndmin=2)
            else:
                arr = np.loadtxt(fh, dtype=dtype, comments=comments, delimiter=delimiter,
                                 usecols=usecols, ndmin=2)
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
        fh.writelines(_encode(stack.values))


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
