"""Total colorings of (variable-)word domains.

A coloring assigns one of ``ell`` colors to every n-variable word over
an alphabet of size k with length at most N; dimension 0 is the plain
word case.  The table is explicit, which keeps every search honest:
the instance is a finite object that can be hashed into certificates
and re-read by the verifier.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from ._frozen import Frozen
from .errors import InputError, InvalidWord, VarwordError
from .words import (
    Word,
    check_universe,
    format_word,
    is_var_word,
    parse_word,
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


class Coloring(Frozen):
    """A color in ``[0, ell)`` for each n-variable word of length at most N over k letters."""

    __slots__ = ("k", "N", "n", "ell", "table")

    def __init__(
        self, k: int, N: int, n: int, ell: int, table: Mapping[Word, int] | None = None
    ):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "table", {} if table is None else table)

    @classmethod
    def from_function(
        cls, k: int, n_horizon: int, dim: int, ell: int, fn: Callable[[Word], int]
    ) -> "Coloring":
        table = {}
        for w in var_words(k, n_horizon, dim=dim):
            c = fn(w)
            if not 0 <= c < ell:
                raise InvalidWord(f"color {c} out of range for {format_word(w)}")
            table[w] = c
        return cls(k, n_horizon, dim, ell, table)

    @classmethod
    def constant(cls, k: int, n_horizon: int, dim: int, ell: int, color: int = 0):
        return cls.from_function(k, n_horizon, dim, ell, lambda w: color)

    def __call__(self, w: Word) -> int:
        return self.table[w]

    def __contains__(self, w: Word) -> bool:
        return w in self.table

    def domain(self) -> Iterator[Word]:
        return var_words(self.k, self.N, dim=self.n)

    @staticmethod
    def check_header(k: int, n_horizon: int, dim: int) -> None:
        """Reject a header read from outside whose domain spans more than
        ``MAX_UNIVERSE`` words, before the domain is walked.

        The domain holds u x0 x1 ... x_{n-1} for every letter word u of
        length at most N - n, so it is at least as large as A^{<=N-n}.
        """
        check_universe(
            k, n_horizon - max(dim, 0), f"coloring with k={k}, N={n_horizon}, n={dim}"
        )

    def validate_total(self) -> None:
        """Every word of the domain has a color in [0, ell), and the table holds no other word.

        When every table word lies in the domain and every color is in
        range, the table is total exactly when it is as large as the
        domain, which is counted without building its words.  Otherwise
        the domain is walked to name the first defect; the walk stops at
        the first word missing from the table, so it takes at most
        len(table) + 1 steps whatever the header says.
        """
        if (
            all(0 <= c < self.ell for c in self.table.values())
            and all(
                w.k == self.k and len(w) <= self.N and is_var_word(w, self.n)
                for w in self.table
            )
            and _domain_size(self.k, self.N, self.n, len(self.table)) == len(self.table)
        ):
            return
        seen = 0
        for w in self.domain():
            c = self.table.get(w)
            if c is None:
                raise InvalidWord(f"coloring not total: missing {format_word(w)}")
            if not 0 <= c < self.ell:
                raise InvalidWord(f"color {c} out of range for {format_word(w)}")
            seen += 1
        if seen != len(self.table):
            domain = set(self.domain())
            extra = min((w for w in self.table if w not in domain), key=Word.key)
            raise InvalidWord(f"{format_word(extra)} is outside the coloring's domain")

    # -- file form: header "k N n ell", then one "word color" per line ----

    def dump(self) -> str:
        lines = [f"{self.k} {self.N} {self.n} {self.ell}"]
        for w in sorted(self.table, key=Word.key):
            lines.append(f"{format_word(w)} {self.table[w]}")
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
        col = cls(k, n_horizon, dim, ell, table)
        try:
            col.validate_total()
        except VarwordError as exc:
            raise InputError(str(exc), filename, 1, 1) from None
        return col
