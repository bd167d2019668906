"""Total colorings of (variable-)word domains.

A coloring assigns one of ``ell`` colors to every n-variable word over
an alphabet of size k with length at most N; dimension 0 is the plain
word case.  The table is explicit, which keeps every search honest:
the instance is a finite object that can be hashed into certificates
and re-read by the verifier.

Colors are held in rank order: the domain's words in (length, lex)
order, the order ``var_words`` yields them in, are ranked 0, 1, ...,
by ``words.rank`` and ``words.unrank``.  For dimension 0 this is the
rank of ``FiniteFamily``, so a 2-coloring of A^{<=N} has the bit
layout of a family's mask and of ``coloring_sweep``'s colorings.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Iterator, Optional, Sequence

from ._frozen import Frozen
from .errors import IndexOutOfRange, InputError, InvalidWord, VarwordError
from .words import (
    Word,
    check_universe,
    _line_values,
    _offsets,
    format_word,
    parse_word,
    rank,
    unrank,
    var_words,
)

__all__ = ["Coloring"]


def _domain_size(k: int, n_horizon: int, dim: int, cap: int) -> int:
    """Number of words ``var_words(k, n_horizon, dim=dim)`` yields, or cap + 1 if that is more.

    counts[i] is the number of words of the current length that have
    introduced i variables; a word grows by a letter or an introduced
    variable (k + i ways) or by the next variable.  Counts saturate at
    cap + 1, and a count that can no longer reach dim variables by
    length N is dropped, so each length costs at most min(dim, N - dim) + 1
    updates, and the walk ends once the total passes cap.
    """
    top = cap + 1
    counts = {0: 1}
    total = 0
    for length in range(n_horizon + 1):
        total = min(top, total + counts.get(dim, 0))
        if total == top:
            break
        lowest = dim - (n_horizon - length - 1)  # fewest variables a longer word can have
        grown: dict[int, int] = {}
        for i, c in counts.items():
            for j, ways in ((i, k + i), (i + 1, 1)):
                if ways and lowest <= j <= dim:
                    grown[j] = min(top, grown.get(j, 0) + c * ways)
        if not grown:
            break
        counts = grown
    return total


def _pack(colors: Sequence[int]):
    """Colors in rank order as ``bytes``, or a tuple when one is not a byte."""
    try:
        return bytes(colors)
    except (TypeError, ValueError):
        return tuple(colors)


class Coloring(Frozen):
    """A color in ``[0, ell)`` for each n-variable word of length at most N over k letters.

    ``colors[r]`` is the color of the domain's word of rank r, in a
    ``bytes`` (a tuple when a color is not a byte).  The constructor also
    takes a table of colors by ``Word``, which it ranks.  Either way every
    coloring is total: the constructor refuses colors that miss a word
    of the domain, color one outside it or leave [0, ell), and names the
    first defect.
    """

    __slots__ = ("k", "N", "n", "ell", "colors")

    def __init__(self, k: int, N: int, n: int, ell: int, colors: Mapping[Word, int] | Sequence[int]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ell", ell)
        if isinstance(colors, Mapping):
            colors = self._ranked(colors)
            size = len(colors)
        else:
            size = _domain_size(k, N, n, len(colors))
        colors = _pack(colors)
        if colors and not (min(colors) >= 0 and max(colors) < ell):
            r = next(r for r, c in enumerate(colors) if not 0 <= c < ell)
            if r < size:
                raise InvalidWord(f"color {colors[r]} out of range for {format_word(unrank(k, N, n, r))}")
        if size > len(colors):
            raise InvalidWord(f"coloring not total: missing {format_word(unrank(k, N, n, len(colors)))}")
        if size < len(colors):
            raise InvalidWord(f"{len(colors)} colors for a domain of {size} words")
        object.__setattr__(self, "colors", colors)

    def _ranked(self, table: Mapping[Word, int]) -> list:
        """The table's colors in rank order, when it colors exactly the
        domain; otherwise raises, naming its first defect.

        A table of as many words as the domain is ranked word by word.
        Any other is walked in domain order: the walk stops at the first
        word it misses, so it takes at most len(table) + 1 steps whatever
        the header says, and words outside are then found by rank, in a
        domain no larger than the table.  The domain's first word is
        x0 x1 ... x_{n-1}; a table with no word of n symbols misses it,
        and is refused before the domain is counted, which takes a step
        per length up to n whatever the table's size.
        """
        k, n_horizon, dim = self.k, self.N, self.n
        if 1 <= dim <= n_horizon and not any(len(w.symbols) == dim for w in table):
            raise InvalidWord(f"coloring not total: no word of length n={dim}")
        size = len(table)
        if _domain_size(k, n_horizon, dim, size) == size:
            colors = [0] * size
            for w, c in table.items():
                r = self.rank(w)
                if r is None:
                    break
                colors[r] = c  # distinct words have distinct ranks
            else:
                return colors
        for w in self.domain():
            c = table.get(w)
            if c is None:
                raise InvalidWord(f"coloring not total: missing {format_word(w)}")
            if not 0 <= c < self.ell:
                raise InvalidWord(f"color {c} out of range for {format_word(w)}")
        extra = min((w for w in table if self.rank(w) is None), key=Word.key)
        raise InvalidWord(f"{format_word(extra)} is outside the coloring's domain")

    @classmethod
    def from_function(
        cls, k: int, n_horizon: int, dim: int, ell: int, fn: Callable[[Word], int]
    ) -> "Coloring":
        return cls(k, n_horizon, dim, ell, [fn(w) for w in var_words(k, n_horizon, dim=dim)])

    @classmethod
    def constant(cls, k: int, n_horizon: int, dim: int, ell: int, color: int = 0):
        return cls.from_function(k, n_horizon, dim, ell, lambda w: color)

    # -- ranks -------------------------------------------------------

    def rank(self, w: Word) -> Optional[int]:
        """The rank of w in the domain, or None for a word outside it (``words.rank``)."""
        return rank(self.k, self.N, self.n, w.symbols) if w.k == self.k else None

    def get(self, w: Word) -> Optional[int]:
        """The color of w, or None for a word outside the domain."""
        r = self.rank(w)
        return None if r is None else self.colors[r]

    def __call__(self, w: Word) -> int:
        c = self.get(w)
        if c is None:
            raise KeyError(w)
        return c

    def __contains__(self, w: Word) -> bool:
        return self.get(w) is not None

    def domain(self) -> Iterator[Word]:
        return var_words(self.k, self.N, dim=self.n)

    def entries(self) -> list[tuple[str, int]]:
        """(text, color) per word of the domain, in rank order, the order of
        ``Word.key``; ``digit_texts`` writes plain words over 2..10 letters
        from their ranks."""
        colors = self.colors
        if self.n == 0 and 2 <= self.k <= 10:
            from ._family_text import digit_texts

            texts = digit_texts(self.k, _offsets(self.k, self.N), (1 << len(colors)) - 1)
        else:
            texts = map(format_word, self.domain())
        return list(zip(texts, colors))

    def line_letter(self, g: Sequence[int]) -> Optional[tuple[int, int]]:
        """The least letter a with S(0) and every S(1).a of one color, and
        that color, or None; for a coloring of plain words and the symbols
        g of a 1-variable word with |g| < N, which spans the line S.

        Read by rank: S(0) is g's letters before its variable, and
        g[b].a has the lex value (base + b * ones) * k + a, with (base,
        ones) from ``words._line_values``.
        """
        k, colors = self.k, self.colors
        if not k:  # no letter a
            return None
        offs = _offsets(k, self.N)
        length, cut = len(g), g.index(k)
        base, ones = _line_values(k, g)
        color = colors[offs[cut] + base // k ** (length - cut)]
        top = offs[length + 1]  # rank of the first word of length |g| + 1
        for a in range(k):
            if all(colors[top + (base + b * ones) * k + a] == color for b in range(k)):
                return a, color
        return None

    @classmethod
    def from_entries(
        cls, k: int, n_horizon: int, dim: int, ell, texts: list, colors: list
    ) -> Optional["Coloring"]:
        """The coloring of a table read as texts and colors, when the texts
        are the domain's own in rank order and the colors are ints in
        [0, ell); otherwise None, and the caller parses word by word.

        For any domain, after ``check_header``.  The domain's first word
        is x0 x1 ... x_{n-1}: a table whose first text has not n variables
        lacks it, and is left to the caller before the domain is counted,
        which takes a step per length up to n whatever the table's size.
        """
        if not texts or type(texts[0]) is not str or texts[0].count("x") != dim:
            return None
        if type(ell) is not int or not set(map(type, colors)) <= {int}:
            return None
        if not 0 <= min(colors) <= max(colors) < ell:
            return None
        if _domain_size(k, n_horizon, dim, len(texts)) != len(texts):
            return None
        col = cls(k, n_horizon, dim, ell, colors)
        return col if col.entries() == list(zip(texts, colors)) else None

    @staticmethod
    def check_header(k: int, n_horizon: int, dim: int) -> None:
        """Reject a header read from outside whose domain is empty (N < 0,
        n < 0 or n > N) or spans more than ``MAX_UNIVERSE`` words, before
        the domain is walked.

        The domain holds u x0 x1 ... x_{n-1} for every letter word u of
        length at most N - n, so it is at least as large as A^{<=N-n}.
        """
        what = f"coloring with k={k}, N={n_horizon}, n={dim}"
        if not 0 <= dim <= n_horizon:
            raise IndexOutOfRange(f"{what} has an empty domain: 0 <= n <= N fails")
        check_universe(k, n_horizon - dim, what)

    # -- file form: header "k N n ell", then one "word color" per line ----

    def dump(self) -> str:
        lines = [f"{self.k} {self.N} {self.n} {self.ell}"]
        lines += [f"{t} {c}" for t, c in self.entries()]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str, filename: str = "<coloring>") -> "Coloring":
        lines = text.splitlines()
        if not lines:
            raise InputError("empty coloring file", filename, 1, 1)
        head = lines[0].split()
        if len(head) != 4:
            raise InputError("expected header 'k N n ell'", filename, 1, 1)
        try:
            k, n_horizon, dim, ell = (int(x) for x in head)
        except ValueError:
            raise InputError("non-integer header field", filename, 1, 1) from None
        try:
            cls.check_header(k, n_horizon, dim)
        except VarwordError as exc:
            raise InputError(str(exc), filename, 1, 1) from None
        col = None  # lines "text color" in rank order are compared with the domain's, not parsed
        rows = [line.split(" ") for line in lines[1:]]
        try:
            texts, colors = [t for t, _ in rows], [int(c) for _, c in rows]
        except ValueError:  # a line of another form, or a color that is no integer
            pass
        else:
            col = cls.from_entries(k, n_horizon, dim, ell, texts, colors)
        if col is None:
            table = cls._parse_table(lines, k, ell, filename)
            try:
                col = cls(k, n_horizon, dim, ell, table)
            except VarwordError as exc:
                raise InputError(str(exc), filename, 1, 1) from None
        return col

    @staticmethod
    def _parse_table(lines: list[str], k: int, ell: int, filename: str) -> dict[Word, int]:
        """The table of a coloring file, word by word with ``parse_word``."""
        table = {}
        for i, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.rsplit(None, 1)
            if len(parts) != 2:
                raise InputError("expected 'word color'", filename, i, 1)
            try:
                w = parse_word(parts[0], k)
            except Exception as exc:
                raise InputError(str(exc), filename, i, 1) from None
            try:
                c = int(parts[1])
            except ValueError:
                raise InputError(f"bad color {parts[1]!r}", filename, i, len(parts[0]) + 2) from None
            if not 0 <= c < ell:
                raise InputError(f"color {c} out of range", filename, i, len(parts[0]) + 2)
            table[w] = c
        return table
