"""CSV text: fields quoted as csv.writer quotes them, and numbers as
``"%.12g" % v`` writes them, built as numpy byte arrays a block of rows at
a time.

Fields are padded with 0xFF, a byte UTF-8 never uses. csv_fields joins
each row of string fields once, format_g12 writes one 20-byte cell per
number, and csv_rows builds the rows of any such blocks: copies of one
template row with every field copied in as one item, in a bytearray whose
padding one bytearray.translate drops, so a block's text is never copied
out of numpy first.
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


_PAD = 0xFF
_DELETE = bytes([_PAD])
G12_WIDTH = 20  # five 4-byte words; len("%.12g" % v) is at most 19
FORMAT_CHUNK = 3072  # values per call: few calls, with buffers that malloc reuses
_GUARD = 2.0**-13  # twice the bound on a product's rounding error (format_g12)
_SCALE = 10.0 ** np.arange(15, -1, -1)  # 10**(11 - e) at index e + 4, each exact
_CELL = np.dtype([("head", "u4"), ("body", "V16")])  # a cell's word 0, then words 1..4


@functools.cache
def _tables():
    """format_g12's lookup tables, built on its first call rather than at
    import: b"0000".."9999" as uint32, the trailing zeros of each of those
    4-digit groups as int8 (12 for 0000, so that a lower nonzero group wins
    the minimum in format_g12), and of each layout of _cell_layouts its
    constant word 0, then its constant bytes, shifted mask and digits mask
    over words 1..4, as (layouts, 4) uint32."""
    four = np.arange(10000, dtype=np.int16)
    digits4 = np.stack([four // 1000, four // 100 % 10, four // 10 % 10, four % 10], axis=1)
    zeros4 = sum((four % d == 0).astype(np.int8) for d in (10, 100, 1000))
    zeros4[0] = 12
    const, shifted, digits = (layout.view(np.uint32) for layout in _cell_layouts())
    tables = ((digits4.astype(np.uint8) + ord("0")).view(np.uint32).ravel(), zeros4,
              np.ascontiguousarray(const[:, 0]),
              *(np.ascontiguousarray(words[:, 1:]) for words in (const, shifted, digits)))
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _cell_layouts():
    """Constant bytes and 0x00/0xFF digit masks of each cell layout, one
    per class ((e + 4) * 12 + tz) * 2 + negative, for decimal exponent e
    in -4..11 and tz trailing zeros among the 12 digits. The number's end
    loses cut bytes: its trailing zeros in the fraction, and the point when
    no fraction is left.

    A cell's digits are d0..d11 at columns 8..19 (digits mask), or those
    shifted one column left (shifted mask). Column 0 holds the sign. For
    e >= 0 the number is d0..de shifted to 7..7+e, the point at 8+e and
    d(e+1)..d11 at 9+e..19. For e < 0 it is "0." at 7+e, then the -e-1
    constant zeros before column 8 and d0..d11. No digit lies in columns
    0..6, so word 0 (columns 0..3) is constant.
    """
    e = np.arange(-4, 12, dtype=np.int8)[:, None, None, None]
    tz = np.arange(12, dtype=np.int8)[:, None, None]
    negative = np.arange(2, dtype=np.int8)[:, None]
    col = np.arange(G12_WIDTH, dtype=np.int8)
    frac = 11 - e  # fraction digits before stripping
    cut = np.minimum(tz, frac) + (tz >= frac)
    kept = col <= G12_WIDTH - 1 - cut
    shifted = kept & (e >= 0) & (col >= 7) & (col <= 7 + e)
    digits = kept & (col >= 8) & (col >= 9 + e)
    point = kept & (col == 8 + e)
    zero = (e < 0) & (col >= 7 + e) & (col <= 7)
    sign = (negative == 1) & (col == 0)
    const = np.select([shifted | digits, point, zero, sign], [0, ord("."), ord("0"), ord("-")],
                      _PAD)
    return [np.broadcast_to(a, const.shape).reshape(-1, G12_WIDTH).astype(np.uint8)
            for a in (const, shifted * _PAD, digits * _PAD)]


def format_g12(values) -> np.ndarray:
    """The bytes of ``"%.12g" % v`` for each float64 v of values, as an
    array of shape values.shape + (G12_WIDTH,) padded with 0xFF.

    For |v| in [1e-4, 1e12) with decimal exponent e, the 12 significant
    digits come from the one correctly rounded product |v| * 10**(11 - e),
    whose power of ten is exact. The product is below 2**40, where float64
    numbers lie 2**-13 apart or closer, so it lies within 2**-14 of the
    exact product, and rounding it to an integer gives the digits "%.12g"
    gives unless the exact product could lie on the other side of a
    half-integer: _GUARD = 2**-13 sends every product within 2**-13 of a
    half-integer to the slow path, which covers the 2**-14 with room to
    spare. A product that rounds up to 10**12 carries into the next decade.
    So ``"%.12g" % v`` itself formats: the values with a product near a
    half-integer (68 of the 535,325 gamma2 values of perfbench's seed-1
    sync_wide run), those whose exponent leaves -4..11, ±0, and non-finite
    values.

    Each cell is built from uint32 words: its constant word 0, and words
    1..4 as const | (shifted digits & shifted mask) | (digits & digits
    mask), the masks' bytes 0x00 or 0xFF.
    """
    digits4, zeros4, head, const, shifted_mask, digits_mask = _tables()
    v = np.asarray(values, dtype=float)
    shape, v = v.shape, v.ravel()
    a = np.abs(v)
    slow = a >= 1e-4
    slow &= a < 1e12
    np.logical_not(slow, out=slow)
    np.copyto(a, 1.0, where=slow)
    # k = e + 4, truncated: floor for sums >= 0, and 0 for a log10 of 1e-4
    # rounded below -4. A sum rounded up to an integer gives e one too big
    # for a value within 3e-15 of a power of ten, whose product then rounds
    # to 10**11: the digits of that power of ten, as "%.12g" rounds it.
    k = np.log10(a)
    k += 4
    k = k.astype(np.intp)
    a *= _SCALE.take(k, mode="clip")
    m = np.rint(a)
    a -= m
    np.abs(a, out=a)
    slow |= a > 0.5 - _GUARD
    carry = m >= 1e12  # also mends a log10 just below a power of ten
    k += carry
    slow |= k > 15  # its layout is out of range: take clips it
    np.copyto(m, 1e11, where=carry)

    # m in 4-digit groups, computed a group per row so that division by a
    # constant stays fast
    rest = m.astype(np.intp)
    groups = np.empty((3, v.size), np.intp)
    np.floor_divide(rest, 10**8, out=groups[0])
    rest -= groups[0] * 10**8
    np.floor_divide(rest, 10**4, out=groups[1])
    np.subtract(rest, groups[1] * 10**4, out=groups[2])
    zeros = zeros4.take(groups)
    tz = zeros[1] + 4
    np.minimum(tz, zeros[2], out=tz)
    zeros[0] += 8
    np.minimum(tz, zeros[0], out=tz)
    layout = k
    layout *= 12
    layout += tz
    layout *= 2
    layout += v < 0

    # the digits as cell words 2..4, and a copy of them one byte to the left;
    # cell word 1 is left unset, as the masks pass none of it (column 7 of
    # the copy is d0)
    digits = np.empty((v.size, 4), np.uint32)
    for word, group in enumerate(groups, 1):
        digits[:, word] = digits4.take(group)
    shifted = np.empty_like(digits)
    shifted.view(np.uint8).ravel()[:-1] = digits.view(np.uint8).ravel()[1:]
    # take: several times faster than indexing with [layout]; a 16-byte
    # table row is faster to take than a 20-byte one
    body = const.take(layout, axis=0, mode="clip")
    part = shifted_mask.take(layout, axis=0, mode="clip")
    part &= shifted
    body |= part
    digits_mask.take(layout, axis=0, out=part, mode="clip")
    part &= digits
    body |= part
    cells = np.empty(v.size, _CELL)
    cells["head"] = head.take(layout, mode="clip")
    cells["body"] = body.view(_CELL["body"])[:, 0]
    cells = cells.view(np.uint8).reshape(v.size, G12_WIDTH)
    for i in np.flatnonzero(slow):
        text = b"%.12g" % v[i]
        cells[i] = _PAD
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cells.reshape(shape + (G12_WIDTH,))


def csv_fields(rows) -> np.ndarray:
    """(rows, 1, width) bytes of rows of string fields: each row's fields
    quoted as csv.writer quotes them and joined by commas, UTF-8-encoded and
    padded with 0xFF to the longest row, at least 1 byte wide."""
    joined = [",".join(map(csv_field, row)).encode() for row in rows]
    width = max(map(len, joined), default=0) or 1
    text = b"".join(row.ljust(width, b"\xff") for row in joined)
    return np.frombuffer(text, np.uint8).reshape(len(joined), 1, width)


def csv_rows(*blocks) -> bytearray:
    """CSV rows from blocks of 0xFF-padded fields shaped (..., fields, width).

    The blocks' leading axes broadcast together; they index the rows in C
    order. Each row is the fields of every block in turn, joined by commas
    and ended by CRLF, as csv.writer writes it.
    """
    lead = np.broadcast_shapes(*(block.shape[:-2] for block in blocks))
    # every field's padding and the comma after it, CRLF over the last comma
    template = b"".join((bytes([_PAD]) * block.shape[-1] + b",") * block.shape[-2]
                        for block in blocks)
    buf = bytearray(template[:-1] + b"\r\n") * math.prod(lead)
    strides = np.frombuffer(buf, np.uint8).reshape(lead + (len(template) + 1,)).strides[:-1]
    start = 0
    for block in blocks:
        count, width = block.shape[-2:]
        # the block's fields in buf, each one V{width} item, so that each is
        # copied whole
        fields = np.ndarray(lead + (count,), f"V{width}", memoryview(buf)[start:],
                            strides=strides + (width + 1,))
        fields[...] = block.view(f"V{width}")[..., 0]
        start += count * (width + 1)
    return buf.translate(None, _DELETE)
