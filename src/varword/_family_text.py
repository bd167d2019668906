"""Digit texts of a family's members, for 2 <= k <= 10.

The codec behind ``FiniteFamily.texts`` and ``FiniteFamily.from_texts``,
which load it on first use, so a process that writes or reads no
family texts does not compile it.  Every pass runs over a whole list
or bit string at C speed; the only tables kept are the low-digit texts
of at most ``_LOW_WIDTH`` words per (k, length), whatever the horizon.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import lru_cache
from itertools import compress, product, repeat
from operator import setitem
from typing import Optional, Sequence

_DIGITS = "0123456789"
_LOW_WIDTH = 256
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _low_len(k: int) -> int:
    """The largest length whose k^length texts fit one low-digit table."""
    length = 0
    while k ** (length + 1) <= _LOW_WIDTH:
        length += 1
    return length


@lru_cache(maxsize=None)
def _low_texts(k: int, length: int) -> tuple[str, ...]:
    """The digit texts of all k^length words of one length, in lex order."""
    return tuple(map("".join, product(_DIGITS[:k], repeat=length)))


def _digit_text(k: int, length: int, v: int) -> str:
    """The text of the length-``length`` word of lex value v."""
    low = _low_len(k)
    if length <= low:
        return _low_texts(k, length)[v]
    high, v = divmod(v, k**low)
    return _digit_text(k, length - low, high) + _low_texts(k, low)[v]


def digit_texts(k: int, offs: Sequence[int], mask: int) -> list[str]:
    """Texts of the members of mask in rank order.

    ``offs`` is the family's offset table: offs[L] is the rank of the
    first word of length L.  ``sel[r]`` is bit r of mask as a byte 0 or
    1, so a length's bits, cut into runs of one low-digit table's width,
    select that table's texts under the run's high prefix.
    """
    sel = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    out = ["-"] if mask & 1 else []
    most = _low_len(k)
    for length in range(1, len(offs) - 1):
        start, end = offs[length], offs[length + 1]
        low = min(length, most)
        table = _low_texts(k, low)
        width = len(table)
        r = sel.find(1, start, end)
        while r >= 0:
            run = (r - start) // width
            lo = start + run * width
            prefix = _digit_text(k, length - low, run)
            # the run's texts, each under its prefix, by one join and one split
            out += (prefix + (" " + prefix).join(compress(table, sel[lo : lo + width]))).split(" ")
            r = sel.find(1, lo + width, end)
    return out


def digit_mask(k: int, n: int, texts) -> Optional[int]:
    """The mask of a list of canonical digit texts, or None for any other input.

    Canonical means a list of strings, each ``-`` or 1..n ASCII digits
    below k.  That is checked over the whole list first, so ``int`` later
    sees no sign, space, underscore or non-ASCII digit.  Then each length
    group's values are set as bytes of that length's ``0``/``1`` band,
    and the bands are read by one ``int(..., 2)``.
    """
    if type(texts) is not list or not set(map(type, texts)) <= {str}:
        return None
    joined = "".join(texts)
    if not joined.isascii() or joined.encode().translate(None, _DIGITS[:k].encode() + b"-"):
        return None
    dashes = texts.count("-")
    if joined.count("-") != dashes:  # a '-' only as a whole text
        return None
    lengths = list(map(len, texts))
    if lengths != sorted(lengths):
        texts = sorted(texts, key=len)
        lengths.sort()
    if lengths and (lengths[0] == 0 or lengths[-1] > n):
        return None
    bits = bytearray(b"1" if dashes else b"0")  # the empty word
    start = 0
    for length in range(1, lengths[-1] + 1 if lengths else 1):
        band = bytearray(b"0") * k**length
        end = bisect_right(lengths, length, start)
        group = texts[start:end]
        if length == 1 and dashes:
            group = filter("-".__ne__, group)
        values = map(int, group, repeat(k))
        deque(map(setitem, repeat(band), values, repeat(49)), 0)  # 49: ord("1")
        bits += band
        start = end
    bits.reverse()
    return int(bits, 2)
