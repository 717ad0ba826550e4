"""CSV text: fields quoted as csv.writer quotes them, and numbers as
``"%.12g" % v`` writes them, built as numpy byte arrays a block of rows at
a time.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def csv_field(text: str) -> str:
    """`text` as one CSV field, quoted exactly where csv.writer's default
    dialect quotes it (QUOTE_MINIMAL: on a comma, quote or line break)."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# Numbers in CSV text. A cell is a row of G12_WIDTH bytes padded with 0xFF,
# a byte UTF-8 never uses, so one bytes.translate per block of rows removes
# the padding wherever it sits.
_PAD = 0xFF
G12_WIDTH = 20  # five 4-byte units; len("%.12g" % v) is at most 19
FORMAT_CHUNK = 2048  # values formatted per call: the temporaries stay small
_GUARD = 1e-3  # scaled products this close to a half-integer go to "%.12g" % v
_POW10 = 10.0 ** np.arange(17)  # 10**0 .. 10**16, each exact


@functools.cache
def _tables():
    """format_g12's lookup tables, built on its first call rather than at
    import: b"0000".."9999" as uint32, the trailing zeros of each of those
    4-digit groups (12 for 0000, so that a lower nonzero group wins the
    minimum in format_g12), and the cell layouts of _cell_layouts."""
    four = np.arange(10000, dtype=np.int16)
    digits4 = np.stack([four // 1000, four // 100 % 10, four // 10 % 10, four % 10], axis=1)
    zeros4 = sum((four % d == 0).astype(np.int8) for d in (10, 100, 1000))
    zeros4[0] = 12
    tables = ((digits4.astype(np.uint8) + ord("0")).view(np.uint32).ravel(), zeros4,
              *_cell_layouts())
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _cell_layouts():
    """Constant bytes and digit masks of each cell layout, one per class
    ((e + 4) * 12 + tz) * 2 + negative, for decimal exponent e in -4..11
    and tz trailing zeros among the 12 digits. The number's end loses
    cut bytes: its trailing zeros in the fraction, and the point when no
    fraction is left.

    A cell's digits are "0000" at columns 4..7, then the 12 digits d0..d11
    at 8..19 (digits mask), or those shifted one column left (shifted mask).
    Column 0 holds the sign. For e >= 0 the number is d0..de shifted to
    7..7+e, the point at 8+e and d(e+1)..d11 at 9+e..19. For e < 0 it is
    "0." at 7+e, then the -e-1 zeros before column 8 and d0..d11.
    """
    e = np.arange(-4, 12, dtype=np.int8)[:, None, None, None]
    tz = np.arange(12, dtype=np.int8)[:, None, None]
    negative = np.arange(2, dtype=np.int8)[:, None]
    col = np.arange(G12_WIDTH, dtype=np.int8)
    frac = 11 - e  # fraction digits before stripping
    cut = np.minimum(tz, frac) + (tz >= frac)
    kept = col <= G12_WIDTH - 1 - cut
    shifted = kept & (e >= 0) & (col >= 7) & (col <= 7 + e)
    digits = kept & (col >= 9 + e)
    point = kept & (col == 8 + e)
    zero = (e < 0) & (col == 7 + e)
    sign = (negative == 1) & (col == 0)
    const = np.select([shifted | digits, point, zero, sign], [0, ord("."), ord("0"), ord("-")],
                      _PAD)
    return [np.broadcast_to(a, const.shape).reshape(-1, G12_WIDTH).astype(np.uint8)
            for a in (const, shifted, digits)]


def format_g12(values) -> np.ndarray:
    """The bytes of ``"%.12g" % v`` for each float64 v of values, as an
    array of shape values.shape + (G12_WIDTH,) padded with 0xFF.

    For |v| in [1e-4, 1e12) with decimal exponent e, the 12 significant
    digits come from the one correctly rounded product |v| * 10**(11 - e),
    whose power of ten is exact: the product is below 2**40, so it lies
    within 2**-14 (6.1e-5) of the exact product, and rounding it to an
    integer gives the digits "%.12g" gives unless it lies within _GUARD of
    a half-integer. A product that rounds up to 10**12 carries into the
    next decade. Values with a product near a half-integer, those whose
    exponent leaves -4..11, ±0, and non-finite values are formatted by
    ``"%.12g" % v`` itself.
    """
    digits4, zeros4, const, shifted_mask, digits_mask = _tables()
    v = np.asarray(values, dtype=float)
    shape, v = v.shape, v.ravel()
    a = np.abs(v)
    slow = ~((a >= 1e-4) & (a < 1e12))
    a[slow] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, -4, 11, out=e)
    p = a * _POW10.take(11 - e)
    m = np.rint(p)
    slow |= np.abs(p - m) > 0.5 - _GUARD
    carry = m >= 1e12  # also mends a log10 just below a power of ten
    e += carry
    slow |= e > 11  # its layout index is out of range: take clips it

    groups = np.zeros((v.size, 5), np.intp)  # "0000", "0000", then m in 4-digit groups
    rest = np.where(carry, 1e11, m).astype(np.intp)
    np.divmod(rest, 10**8, out=(groups[:, 2], rest))
    np.divmod(rest, 10**4, out=(groups[:, 3], groups[:, 4]))
    zeros = zeros4.take(groups)
    tz = np.minimum(np.minimum(zeros[:, 4], zeros[:, 3] + 4), zeros[:, 2] + 8)
    layout = ((e + 4) * 12 + tz) * 2 + (v < 0)

    digits = digits4.take(groups).view(np.uint8)
    shifted = np.empty_like(digits)
    shifted.ravel()[:-1] = digits.ravel()[1:]
    # take: several times faster than indexing with [layout]
    cells = const.take(layout, axis=0, mode="clip")
    part = shifted_mask.take(layout, axis=0, mode="clip")
    part *= shifted
    cells += part
    digits_mask.take(layout, axis=0, out=part, mode="clip")
    part *= digits
    cells += part
    for i in np.flatnonzero(slow):
        text = b"%.12g" % v[i]
        cells[i] = _PAD
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cells.reshape(shape + (G12_WIDTH,))


def csv_fields(rows) -> np.ndarray:
    """(rows, fields, width) bytes of string fields, each quoted as csv.writer
    quotes it, UTF-8-encoded and padded with 0xFF to the longest."""
    encoded = [[csv_field(field).encode() for field in row] for row in rows]
    count = len(encoded[0]) if encoded else 0
    width = max((len(b) for row in encoded for b in row), default=0)
    text = b"".join(b.ljust(width, b"\xff") for row in encoded for b in row)
    return np.frombuffer(text, np.uint8).reshape(len(encoded), count, width)


def csv_rows(*blocks) -> bytes:
    """CSV rows from blocks of 0xFF-padded fields shaped (..., fields, width).

    The blocks' leading axes broadcast together; they index the rows in C
    order. Each row is the fields of every block in turn, joined by commas
    and ended by CRLF, as csv.writer writes it.
    """
    lead = np.broadcast_shapes(*(block.shape[:-2] for block in blocks))
    spans = [block.shape[-2] * (block.shape[-1] + 1) for block in blocks]
    text = np.empty((math.prod(lead), sum(spans) + 1), np.uint8)
    start = 0
    for block, span in zip(blocks, spans):
        count, width = block.shape[-2:]
        # splitting axes, so this reshape is a view into text
        fields = text[:, start:start + span].reshape(lead + (count, width + 1))
        fields[..., :width] = block
        fields[..., width] = ord(",")
        start += span
    text[:, -2:] = np.frombuffer(b"\r\n", np.uint8)  # over the row's last comma
    return text.tobytes().translate(None, bytes([_PAD]))
