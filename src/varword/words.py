"""Finite words over an indexed alphabet, with variable symbols.

A word over an alphabet of size ``k`` is a tuple of symbol codes:
letters are ``0 .. k-1`` and the variable ``x_j`` is encoded as
``k + j``.  Letters sort before variables and variables sort by index,
so plain tuple comparison gives the canonical symbol order and
``(len, symbols)`` gives the canonical length-then-lex order used by
every deterministic search in the package.

The module provides the substitution calculus:

* ``substitute(w, u)`` replaces each occurrence of ``x_j`` by the
  single symbol ``u(j)`` and cuts strictly before the first occurrence
  of ``x_{len(u)}``.  A finite prefix with no such occurrence raises
  ``CutPointMissing`` (the horizon is too short), unless the word is a
  variable word of dimension exactly ``len(u)``, in which case no cut
  is needed.  With ``omega=True`` the cut is mandatory, which is the
  faithful semantics for prefixes of infinite variable words.
* ``compose(w, v)`` substitutes the prefix ``v`` positionwise into the
  variables of ``w``, truncating where ``v`` runs out of symbols.  It
  satisfies ``compose(w, v)[u] == w[v[u]]`` whenever both sides are
  defined.
* ``decompose``/``recompose`` split an ordered variable word into its
  constant head and its left one-variable blocks, and glue them back.

Text form: letters print as decimal digits (``[i]`` for two-digit
alphabets), ``x_j`` prints as ``x{j}`` and the empty word prints as
``-``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from ._frozen import Frozen
from .errors import (
    CutPointMissing,
    DomainTooLarge,
    IndexOutOfRange,
    InvalidWord,
    NotOrdered,
)

__all__ = [
    "Word",
    "Condition",
    "ValidityReport",
    "word",
    "parse_word",
    "format_word",
    "dimension",
    "first_occurrence",
    "is_prefix_valid",
    "is_var_word",
    "is_left_var_word",
    "validate",
    "var_word",
    "omega_prefix",
    "left_var_word",
    "substitute",
    "compose",
    "decompose",
    "recompose",
    "rename_variable",
    "letter_words",
    "MAX_UNIVERSE",
    "check_universe",
    "var_words",
    "prefix_valid_words",
]


class Word(Frozen):
    """Immutable word over an alphabet of size ``k`` plus variables."""

    __slots__ = ("k", "symbols")

    def __init__(self, k: int, symbols: tuple[int, ...] = ()):
        if k < 0:
            raise IndexOutOfRange(f"alphabet size must be >= 0, got {k}")
        if symbols and min(symbols) < 0:
            i, s = next((i, s) for i, s in enumerate(symbols) if s < 0)
            raise IndexOutOfRange(f"negative symbol {s} at position {i}")
        _set_k(self, k)
        _set_symbols(self, symbols)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.k == other.k and self.symbols == other.symbols
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.k, self.symbols))

    def __repr__(self) -> str:
        return f"Word(k={self.k!r}, symbols={self.symbols!r})"

    def __reduce__(self):
        return Word, (self.k, self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __iter__(self):
        return iter(self.symbols)

    def is_letter(self, i: int) -> bool:
        return self.symbols[i] < self.k

    def var_index(self, i: int) -> int:
        """Variable index at position i, or -1 for a letter."""
        s = self.symbols[i]
        return s - self.k if s >= self.k else -1

    def has_variables(self) -> bool:
        return any(s >= self.k for s in self.symbols)

    def key(self) -> tuple[int, tuple[int, ...]]:
        """Length-then-lex sort key under the canonical symbol order."""
        return (len(self.symbols), self.symbols)

    def concat(self, other: "Word") -> "Word":
        if other.k != self.k:
            raise IndexOutOfRange("alphabet mismatch in concatenation")
        return Word(self.k, self.symbols + other.symbols)

    def __str__(self) -> str:
        return format_word(self)


# the slots' own setters: ``Word`` refuses ``setattr`` once built
_set_k = Word.k.__set__
_set_symbols = Word.symbols.__set__


def word(k: int, symbols: Iterable[int]) -> Word:
    return Word(k, tuple(symbols))


def format_word(w: Word) -> str:
    if not w.symbols:
        return "-"
    out = []
    prev_var = False
    for s in w.symbols:
        if s < w.k:
            # a digit directly after x{j} would be swallowed into the index,
            # so bracket it; the result stays a single whitespace-free token
            if s > 9 or prev_var:
                tok = f"[{s}]"
            else:
                tok = str(s)
            prev_var = False
        else:
            tok = f"x{s - w.k}"
            prev_var = True
        out.append(tok)
    return "".join(out)


def _decimal(digits: str, i: int, text: str) -> int:
    """The ASCII decimal number ``digits`` read at position i of text."""
    if not digits or not digits.isascii() or not digits.isdigit():
        raise InvalidWord(f"expected ASCII digits at position {i} in {text!r}")
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise IndexOutOfRange(f"index too long at position {i} in {text!r}") from None


def parse_word(text: str, k: int) -> Word:
    """Parse the canonical text form; ``-`` or the empty string is the empty word.

    Letters and variable indices are ASCII decimal digits only; any
    other text raises ``InvalidWord`` or ``IndexOutOfRange``.
    """
    if not isinstance(text, str):
        raise InvalidWord(f"word text must be a string, not {type(text).__name__}")
    text = text.strip()
    if text in ("", "-"):
        return Word(k, ())
    syms: list[int] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "x":
            j = i + 1
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j == i + 1:
                raise IndexOutOfRange(f"bare 'x' at position {i} in {text!r}")
            syms.append(k + _decimal(text[i + 1 : j], i + 1, text))
            i = j
        elif c == "[":
            j = text.find("]", i)
            if j < 0:
                raise IndexOutOfRange(f"unclosed '[' at position {i} in {text!r}")
            v = _decimal(text[i + 1 : j], i + 1, text)
            if v >= k:
                raise IndexOutOfRange(f"letter {v} outside alphabet of size {k}")
            syms.append(v)
            i = j + 1
        elif "0" <= c <= "9":
            v = int(c)
            if v >= k:
                raise IndexOutOfRange(f"letter {v} outside alphabet of size {k}")
            syms.append(v)
            i += 1
        else:
            raise IndexOutOfRange(f"unexpected character {c!r} at position {i}")
    return Word(k, tuple(syms))


def dimension(w: Word) -> int:
    """One plus the largest variable index occurring, 0 for a pure letter word."""
    best = -1
    for s in w.symbols:
        if s >= w.k and s - w.k > best:
            best = s - w.k
    return best + 1


def first_occurrence(w: Word, j: int) -> Optional[int]:
    """Position of the first occurrence of x_j, or None."""
    target = w.k + j
    for i, s in enumerate(w.symbols):
        if s == target:
            return i
    return None


class Condition(NamedTuple):
    name: str
    ok: bool
    position: Optional[int] = None
    detail: str = ""


class ValidityReport(NamedTuple):
    word: Word
    n: int
    ordered: bool
    conditions: tuple[Condition, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.conditions)

    def failing(self) -> tuple[Condition, ...]:
        return tuple(c for c in self.conditions if not c.ok)


def validate(w: Word, n: int, ordered: bool = False) -> ValidityReport:
    """Check the n-variable-word invariants, reporting each condition.

    Conditions: variable indices stay below n, every x_j with j < n
    occurs, first occurrences appear in index order, and (if requested)
    the last occurrence of x_j precedes the first occurrence of x_{j+1}.
    Total: failures become report entries, never exceptions.
    """
    conditions: list[Condition] = []

    pos_range = None
    for i, s in enumerate(w.symbols):
        if s >= w.k + n:
            pos_range = i
            break
    conditions.append(
        Condition(
            "index-range",
            pos_range is None,
            pos_range,
            "" if pos_range is None else f"variable x{w.symbols[pos_range] - w.k} with only {n} allowed",
        )
    )

    first = [first_occurrence(w, j) for j in range(n)]
    missing = next((j for j, p in enumerate(first) if p is None), None)
    conditions.append(
        Condition(
            "occurrence",
            missing is None,
            len(w.symbols) if missing is not None else None,
            "" if missing is None else f"x{missing} never occurs",
        )
    )

    order_pos = None
    for j in range(n - 1):
        a, b = first[j], first[j + 1]
        if a is None or b is None:
            continue
        if b < a:
            order_pos = b
            break
    conditions.append(
        Condition(
            "first-order",
            order_pos is None,
            order_pos,
            "" if order_pos is None else "first occurrences out of index order",
        )
    )

    if ordered:
        bad = None
        seen_next = [False] * (n + 1)
        for i, s in enumerate(w.symbols):
            if s < w.k:
                continue
            j = s - w.k
            if j >= n:
                continue
            if any(seen_next[j + 1 : n]):
                bad = i
                break
            seen_next[j] = True
        conditions.append(
            Condition(
                "ordered",
                bad is None,
                bad,
                "" if bad is None else f"x{w.symbols[bad] - w.k} reoccurs after a later variable",
            )
        )

    return ValidityReport(w, n, ordered, tuple(conditions))


def is_var_word(w: Word, n: Optional[int] = None, ordered: bool = False) -> bool:
    """``validate(w, n, ordered).passed`` in one pass, without the report.

    With n=None the dimension is whatever the word introduces.  Passing
    means: no symbol reaches k + n, each variable first occurs right
    after x_0 .. x_{j-1} have (so all n occur, in index order), and, if
    ordered, variable indices never decrease along the word.
    """
    k = w.k
    bound = None if n is None else k + n
    introduced = k  # symbol of the next variable to introduce
    latest = k
    for s in w.symbols:
        if bound is not None and s >= bound:
            return False
        if s < k:
            continue
        if s > introduced:
            return False
        if s == introduced:
            introduced += 1
        if ordered:
            if s < latest:
                return False
            latest = s
    return n is None or introduced - k >= n


def is_prefix_valid(w: Word) -> bool:
    """True for prefixes of valid infinite variable words.

    Every variable must be introduced in index order: the first
    occurrence of x_j precedes the first occurrence of x_{j+1}, with no
    index skipped.
    """
    introduced = 0
    for s in w.symbols:
        if s < w.k:
            continue
        j = s - w.k
        if j > introduced:
            return False
        if j == introduced:
            introduced += 1
    return True


def is_left_var_word(w: Word) -> bool:
    """One-variable word whose variable sits at position 0."""
    return (
        len(w.symbols) >= 1
        and w.symbols[0] == w.k
        and is_var_word(w, 1)
    )


def var_word(w: Word, n: Optional[int] = None, ordered: bool = False) -> Word:
    if n is None:
        n = dimension(w)
    report = validate(w, n, ordered)
    if not report.passed:
        bad = report.failing()[0]
        if bad.name == "ordered":
            raise NotOrdered(f"{format_word(w)}: {bad.name} fails at {bad.position}")
        raise InvalidWord(f"{format_word(w)}: {bad.name} fails ({bad.detail})")
    return w


def omega_prefix(w: Word) -> Word:
    if not is_prefix_valid(w):
        raise InvalidWord(f"{format_word(w)} is not a valid variable-word prefix")
    return w


def left_var_word(w: Word) -> Word:
    if not is_left_var_word(w):
        raise InvalidWord(f"{format_word(w)} is not a left one-variable word")
    return w


def _as_symbols(u, k: int) -> tuple[int, ...]:
    if isinstance(u, Word):
        if u.k != k:
            raise IndexOutOfRange(
                f"substituted word declared over alphabet {u.k}, expected {k}"
            )
        return u.symbols
    return tuple(u)


def substitute(w: Word, u, omega: bool = False) -> Word:
    """Return w[u]: x_j goes to u(j), cut before the first x_{len(u)}.

    ``u`` may contain variables itself, in which case they survive into
    the result.  ``omega=True`` treats ``w`` strictly as a prefix of an
    infinite variable word: the cut point must be visible.
    """
    us = _as_symbols(u, w.k)
    m = len(us)
    cut = first_occurrence(w, m)
    if cut is None:
        if omega or dimension(w) != m or not is_var_word(w, m):
            raise CutPointMissing(
                f"{format_word(w)} has no occurrence of x{m} and is not a {m}-variable word"
            )
        cut = len(w.symbols)
    out = []
    for s in w.symbols[:cut]:
        if s < w.k:
            out.append(s)
        else:
            j = s - w.k
            if j >= m:
                raise InvalidWord(
                    f"x{j} occurs before the first x{m} in {format_word(w)}"
                )
            out.append(us[j])
    return Word(w.k, tuple(out))


def compose(w: Word, v: Word) -> Word:
    """Substitute the prefix v positionwise into the variables of w.

    The result is truncated at the first variable of w whose index
    falls outside v; it is again a valid prefix when both inputs are.
    Total: never raises, the result may be shorter than either input.
    """
    if v.k != w.k:
        raise IndexOutOfRange("alphabet mismatch in composition")
    out = []
    for s in w.symbols:
        if s < w.k:
            out.append(s)
        else:
            j = s - w.k
            if j >= len(v.symbols):
                break
            out.append(v.symbols[j])
    return Word(w.k, tuple(out))


def rename_variable(w: Word, old: int, new: int) -> Word:
    """Rename x_old to x_new throughout (no validity re-check)."""
    return Word(
        w.k,
        tuple(w.k + new if s == w.k + old else s for s in w.symbols),
    )


def decompose(w: Word) -> tuple[Word, tuple[Word, ...]]:
    """Split an ordered n-variable word into its head and n left blocks.

    Block i runs from the first occurrence of x_i up to just before the
    first occurrence of x_{i+1} (end of word for the last block), with
    x_i renumbered to x_0.  Raises NotOrdered otherwise.
    """
    k = w.k
    # one pass: each variable is either the latest one or the next one,
    # and the next one's first occurrence is a cut
    cuts = []
    for i, s in enumerate(w.symbols):
        if s >= k:
            if s - k == len(cuts):
                cuts.append(i)
            elif s - k != len(cuts) - 1:
                raise NotOrdered(f"{format_word(w)} is not an ordered variable word")
    cuts.append(len(w.symbols))
    # block i holds no variable but x_i, which becomes x_0
    renamed = tuple(k if s > k else s for s in w.symbols)
    sigma = Word(k, w.symbols[: cuts[0]])
    return sigma, tuple(Word(k, renamed[a:b]) for a, b in zip(cuts, cuts[1:]))


def recompose(sigma: Word, blocks: Sequence[Word]) -> Word:
    """Inverse of decompose: renumber block i's variable to x_i and glue."""
    syms = list(sigma.symbols)
    for i, b in enumerate(blocks):
        if b.k != sigma.k:
            raise IndexOutOfRange(f"alphabet mismatch in recomposition: block {i} is over k={b.k}")
        if not is_left_var_word(b):
            raise InvalidWord(f"block {i} ({format_word(b)}) is not a left 1-variable word")
        syms.extend(b.k + i if s == b.k else s for s in b.symbols)
    return Word(sigma.k, tuple(syms))


# ---------------------------------------------------------------------------
# deterministic enumerations (length ascending, then lex)
#
# Each length is one depth-first walk in symbol order, pruned by the
# number of variables introduced so far: a branch that can no longer
# end with between lo and hi variables is never entered.


def _symbol_tuples(k, length, ordered, lo, hi):
    """Symbol tuples of one length in lex order, introducing lo..hi variables."""
    if lo > hi or hi < 0:
        return
    if hi == 0:
        yield from product(range(k), repeat=length)
        return
    table = {}

    def allowed(i, intro):
        # symbols allowed at position i after intro variables were introduced
        opts = table.get((i, intro))
        if opts is None:
            rest = length - 1 - i
            opts = []
            if intro + rest >= lo:  # a letter or a reused variable
                opts.extend(range(k))
                if not ordered:
                    opts.extend(range(k, k + intro))
                elif intro:
                    opts.append(k + intro - 1)
            if intro < hi and intro + 1 + rest >= lo:
                opts.append(k + intro)
            opts = table[(i, intro)] = tuple(opts)
        return opts

    last = length - 1
    syms = [0] * length
    intro = [0] * length  # variables introduced before position i
    opts = [()] * length
    nxt = [0] * length
    opts[0] = allowed(0, 0)
    i = 0
    while i >= 0:
        if i == last:
            head = tuple(syms[:last])
            for s in opts[last]:
                yield head + (s,)
            i -= 1
            continue
        j = nxt[i]
        if j == len(opts[i]):
            i -= 1
            continue
        s = syms[i] = opts[i][j]
        nxt[i] = j + 1
        new = intro[i] + (s == k + intro[i])
        i += 1
        intro[i] = new
        opts[i] = allowed(i, new)
        nxt[i] = 0


def _enumerate(k, max_len, min_len, ordered, lo, hi) -> Iterator[Word]:
    for length in range(max(min_len, 0), max_len + 1):
        top = length if hi is None else min(hi, length)
        for syms in _symbol_tuples(k, length, ordered, lo, top):
            yield Word(k, syms)


def letter_words(k: int, max_len: int, min_len: int = 0) -> Iterator[Word]:
    """All letter words of length min_len..max_len by (length, lex)."""
    return _enumerate(k, max_len, min_len, False, 0, 0)


MAX_UNIVERSE = 1 << 22  # words a family or coloring read from a file or a certificate may span


def check_universe(k: int, n: int, what: str) -> None:
    """Reject a header read from outside whose A^{<=n} over k letters spans
    more than ``MAX_UNIVERSE`` words, before anything of that size is built.

    ``what`` names the object in the ``DomainTooLarge`` message.  One
    entry per length is counted even for k < 2, since offset tables and
    walks have one; a negative k raises ``IndexOutOfRange``.
    """
    if k < 0:
        raise IndexOutOfRange(f"alphabet size must be >= 0, got {k}")
    size = n + 1
    if k >= 2:
        # at least 2**(n+1) - 1 words: lengths past the bound's bit length need no power
        size = sum(k**length for length in range(min(n, MAX_UNIVERSE.bit_length()) + 1))
    if size > MAX_UNIVERSE:
        raise DomainTooLarge(f"{what} spans more than {MAX_UNIVERSE} words")


def var_words(
    k: int,
    max_len: int,
    dim: Optional[int] = None,
    ordered: bool = False,
    min_len: int = 0,
) -> Iterator[Word]:
    """All valid variable words by (length, lex); dim=None means any dimension.

    Variables are introduced in index order, so occurrence and
    first-order invariants hold by construction; the ordered variant
    only ever reuses the most recently introduced variable.  The walk
    never enters a branch that cannot end with exactly ``dim``
    variables.  Words are built as they are yielded; nothing is kept
    between calls, so a caller that reads a list more than once should
    list it once.
    """
    if dim is None:
        return _enumerate(k, max_len, min_len, ordered, 0, None)
    return _enumerate(k, max_len, min_len, ordered, dim, dim)


def prefix_valid_words(
    k: int, max_len: int, min_vars: int = 0, min_len: int = 0
) -> Iterator[Word]:
    """All prefix-valid words by (length, lex), optionally with >= min_vars variables.

    Pruned like ``var_words``: no branch with too few variables is entered.
    """
    return _enumerate(k, max_len, min_len, False, min_vars, None)
