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

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, product
from typing import Iterator, NamedTuple, Optional, Sequence

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
    "parse_word",
    "format_word",
    "dimension",
    "first_occurrence",
    "is_prefix_valid",
    "is_var_word",
    "is_left_var_word",
    "validate",
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
    "rank",
    "unrank",
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

    # every coloring lookup hashes a Word: these run about 5x faster than Frozen's field loop
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.k == other.k and self.symbols == other.symbols
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.k, self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __iter__(self):
        return iter(self.symbols)

    def has_variables(self) -> bool:
        return any(s >= self.k for s in self.symbols)

    def key(self) -> tuple[int, tuple[int, ...]]:
        """Length-then-lex sort key under the canonical symbol order."""
        return (len(self.symbols), self.symbols)

    def concat(self, other: "Word") -> "Word":
        if other.k != self.k:
            raise IndexOutOfRange("alphabet mismatch in concatenation")
        return _trusted(self.k, self.symbols + other.symbols)

    def __str__(self) -> str:
        return format_word(self)


# the slots' own setters: ``Word`` refuses ``setattr`` once built
_set_k = Word.k.__set__
_set_symbols = Word.symbols.__set__
_new = object.__new__


def _trusted(k: int, symbols: tuple[int, ...]) -> Word:
    """``Word(k, symbols)`` without its checks.

    Only for symbols copied or renamed from ``Word``s over the same k,
    which passed those checks when they were built, or read off a rank.
    """
    w = _new(Word)
    _set_k(w, k)
    _set_symbols(w, symbols)
    return w


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
    Total: failures become report entries; only a negative n raises.
    """
    if n < 0:
        raise IndexOutOfRange(f"variable count must be >= 0, got {n}")
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

    # one pass for the variables present: a word of length L misses some
    # x_j with j <= L, so no check walks all n indices
    first: dict[int, int] = {}
    for i, s in enumerate(w.symbols):
        if s >= w.k:
            first.setdefault(s - w.k, i)
    missing = next(j for j in range(len(first) + 1) if j not in first)
    if missing >= n:
        missing = None
    conditions.append(
        Condition(
            "occurrence",
            missing is None,
            len(w.symbols) if missing is not None else None,
            "" if missing is None else f"x{missing} never occurs",
        )
    )

    order_pos = None
    for j in sorted(first):
        b = first.get(j + 1)
        if j + 1 < n and b is not None and b < first[j]:
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
        latest = -1  # largest index below n seen so far
        for i, s in enumerate(w.symbols):
            j = s - w.k
            if not 0 <= j < n:
                continue
            if latest > j:
                bad = i
                break
            latest = j
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
            raise CutPointMissing(w, m)  # most raises are caught: the text waits for str()
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
    if isinstance(u, Word):  # its symbols, like w's, were checked when it was built
        return _trusted(w.k, tuple(out))
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
    return _trusted(w.k, tuple(out))


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
    # one pass: each variable is either the latest one, renamed to x_0
    # in its block, or the next one, which opens a new block
    head = block = []
    blocks = [head]
    latest = k - 1  # symbol of the latest variable, none yet
    for s in w.symbols:
        if s < k:
            block.append(s)
        elif s == latest:
            block.append(k)
        elif s == latest + 1:
            latest = s
            block = [k]
            blocks.append(block)
        else:
            raise NotOrdered(f"{format_word(w)} is not an ordered variable word")
    return _trusted(k, tuple(head)), tuple([_trusted(k, tuple(b)) for b in blocks[1:]])


def recompose(sigma: Word, blocks: Sequence[Word]) -> Word:
    """Inverse of decompose: renumber block i's variable to x_i and glue."""
    k = sigma.k
    syms = list(sigma.symbols)
    for i, b in enumerate(blocks):
        if b.k != k:
            raise IndexOutOfRange(f"alphabet mismatch in recomposition: block {i} is over k={b.k}")
        bs = b.symbols
        # symbols are never negative, so this is is_left_var_word(b)
        if not (bs and bs[0] == k and max(bs) == k):
            raise InvalidWord(f"block {i} ({format_word(b)}) is not a left 1-variable word")
        if i:
            x = k + i
            syms.extend([x if s == k else s for s in bs])
        else:
            syms.extend(bs)
    return _trusted(k, tuple(syms))


# ---------------------------------------------------------------------------
# deterministic enumerations (length ascending, then lex)
#
# Each length is one depth-first walk in symbol order, pruned by the
# number of variables introduced so far: a branch that can no longer
# end with between lo and hi variables is never entered.  ``keep(syms, i)``
# is asked once per nonempty prefix syms[:i + 1] (syms is the walk's own
# list: read, never write), and a refused prefix loses its subtree.


def _symbol_tuples(k, length, ordered, lo, hi, keep=None):
    """Symbol tuples of one length in lex order, introducing lo..hi
    variables, without the subtrees of the prefixes ``keep`` refuses."""
    if lo > hi or hi < 0:
        return
    if length == 0 or (hi == 0 and keep is None):
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
                syms[last] = s
                if keep is None or keep(syms, last):
                    yield head + (s,)
            i -= 1
            continue
        j = nxt[i]
        if j == len(opts[i]):
            i -= 1
            continue
        s = syms[i] = opts[i][j]
        nxt[i] = j + 1
        if keep is not None and not keep(syms, i):
            continue
        new = intro[i] + (s == k + intro[i])
        i += 1
        intro[i] = new
        opts[i] = allowed(i, new)
        nxt[i] = 0


def _enumerate(k, max_len, min_len, ordered, lo, hi, keep=None) -> Iterator[Word]:
    if k < 0:
        raise IndexOutOfRange(f"alphabet size must be >= 0, got {k}")
    for length in range(max(min_len, 0), max_len + 1):
        top = length if hi is None else min(hi, length)
        for syms in _symbol_tuples(k, length, ordered, lo, top, keep):
            yield _trusted(k, syms)


def letter_words(k: int, max_len: int, min_len: int = 0) -> Iterator[Word]:
    """All letter words of length min_len..max_len by (length, lex)."""
    return _enumerate(k, max_len, min_len, False, 0, 0)


# ---------------------------------------------------------------------------
# ranks: every domain ``var_words(k, N, dim=n)``, A^{<=N} for n = 0, is
# ranked 0, 1, ... in the walk's (length, lex) order


@lru_cache(maxsize=32)
def _codec(k: int, n_horizon: int, dim: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Rank tables of the domain ``var_words(k, n_horizon, dim=dim)``, 0 <= dim <= N.

    ways[i][t] counts the ends of a word whose prefix has introduced i
    variables, with dim - i + t symbols to go (t to spare): a letter or
    an introduced variable (k + i ways) spends one spare symbol and the
    next variable raises i, the recurrence of ``colorings._domain_size``.
    Only t <= N - dim occurs, so the table holds (N - dim + 1)(dim + 1)
    counts; offs[L] counts the words shorter than L.  For dim = 0,
    ways[0][t] = k^t and offs is ``_offsets(k, N)``.  ``rank`` builds it
    only for a word of dim symbols or more, and a coloring reader ranks
    only in a domain as large as its table, which holds x0^j x1 ...
    x_{dim-1} for j = 1 .. N - dim + 1: the counts are at most (table
    size) x (word length + 1), none above the table size.
    """
    col = tuple(int(t == 0) for t in range(n_horizon - dim + 1))  # i = dim + 1: complete, no symbol to spare
    ways = []
    for i in range(dim, -1, -1):
        ways.append(col := tuple(accumulate(col, lambda prev, after: (k + i) * prev + after)))
    ways.reverse()
    return tuple(ways), (0,) * dim + tuple(accumulate(col, initial=0))


@lru_cache(maxsize=None)
def _offsets(k: int, n: int) -> tuple[int, ...]:
    """offsets[L] = rank of the first word of length L in A^{<=n}; offsets[n+1] = total."""
    return _codec(k, n, 0)[1]


def rank(k: int, n_horizon: int, dim: int, symbols: Sequence[int]) -> Optional[int]:
    """The rank of the word of these symbols in ``var_words(k, n_horizon, dim=dim)``,
    or None for a word outside it.

    A word ranks offs[len] plus, at each position, the symbol times the
    ways left after it in ``_codec``'s table, since the symbols below it
    (letters, then variables in index order) each start that many words;
    for dim = 0 that is offs[len] plus the word's lex value in base k.
    """
    rest = len(symbols)
    if not 0 <= dim <= rest <= n_horizon:  # _codec only for a word of dim symbols
        return None
    ways, offs = _codec(k, n_horizon, dim)
    r = offs[rest]
    i, t = 0, rest - dim  # variables introduced, and symbols to spare
    col, top = ways[0], k  # top = k + i, the next variable
    for s in symbols:
        t -= 1  # spare after s, if s keeps i: so for each symbol below s
        if s < top and t >= 0:  # t < 0: no room left for the variables to come
            r += s * col[t]
        elif s == top and i < dim:
            if t >= 0:
                r += s * col[t]
            i, t = i + 1, t + 1
            col, top = ways[i], top + 1
        else:
            return None
    return r


def unrank(k: int, n_horizon: int, dim: int, r: int) -> Word:
    """The word of rank r in ``var_words(k, n_horizon, dim=dim)``: ``rank`` read
    backwards, a step per symbol, for 0 <= r < the domain's size."""
    ways, offs = _codec(k, n_horizon, dim)
    length = bisect_right(offs, r) - 1
    r -= offs[length]
    syms = []
    i, t = 0, length - dim
    for _ in range(length):
        t -= 1
        below = (k + i) * ways[i][t] if t >= 0 else 0  # the words whose symbol here keeps i
        if r < below:
            s, r = divmod(r, ways[i][t])
        else:
            s, r = k + i, r - below
            i, t = i + 1, t + 1
        syms.append(s)
    return _trusted(k, tuple(syms))


def _line_values(k: int, symbols: Sequence[int]) -> tuple[int, int]:
    """(base, ones) of a 1-variable word g: g[a] has the lex value
    base + a * ones, where base reads the variable as 0 and ones has a 1
    at each of its places."""
    base = ones = 0
    for s in symbols:
        base, ones = base * k, ones * k
        if s == k:
            ones += 1
        else:
            base += s
    return base, ones


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
    keep=None,
) -> Iterator[Word]:
    """All valid variable words by (length, lex); dim=None means any dimension.

    Variables are introduced in index order, so occurrence and
    first-order invariants hold by construction; the ordered variant
    only ever reuses the most recently introduced variable.  The walk
    never enters a branch that cannot end with exactly ``dim``
    variables.  Words are built as they are yielded; nothing is kept
    between calls, so a caller that reads a list more than once should
    list it once.  ``keep`` prunes the walk further, as ``_symbol_tuples`` says.
    """
    if dim is None:
        return _enumerate(k, max_len, min_len, ordered, 0, None, keep)
    return _enumerate(k, max_len, min_len, ordered, dim, dim, keep)


def prefix_valid_words(
    k: int, max_len: int, min_vars: int = 0, min_len: int = 0
) -> Iterator[Word]:
    """All prefix-valid words by (length, lex), optionally with >= min_vars variables.

    Pruned like ``var_words``: no branch with too few variables is entered.
    """
    return _enumerate(k, max_len, min_len, False, min_vars, None)
