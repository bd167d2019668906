"""Colorings in rank space: the rank codec, and the readers' canonical-order
route against the word-by-word ``parse_word`` route."""

import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from varword import certificates as certs
from varword.colorings import Coloring, _codec, _domain_size
from varword.errors import InputError, VarwordError
from varword.words import Word, _offsets, format_word, prefix_valid_words, var_words

DOMAINS = [(0, 4, 2), (1, 5, 1), (2, 4, 0), (2, 4, 1), (3, 3, 2), (2, 5, 2), (3, 3, 0), (11, 2, 0)]


@pytest.mark.parametrize("k, n_horizon, dim", DOMAINS)
def test_rank_is_the_domain_walk_position(k, n_horizon, dim):
    c = Coloring.from_function(k, n_horizon, dim, 3, lambda w: len(w) % 3)
    domain = list(var_words(k, n_horizon, dim=dim))
    assert [c.rank(w) for w in domain] == list(range(len(domain)))
    offs = _codec(k, n_horizon, dim)[1] if dim else _offsets(k, n_horizon)
    assert offs[-1] == len(domain) == _domain_size(k, n_horizon, dim, 10**6)
    assert [c(w) for w in domain] == [len(w) % 3 for w in domain]
    assert c.entries() == [(format_word(w), len(w) % 3) for w in domain]
    # every other prefix-valid word, a longer one and one over another alphabet rank None
    inside = set(domain)
    for w in prefix_valid_words(k, n_horizon + 1):
        assert (c.rank(w) is not None) == (w in inside) == (w in c), w
    assert c.rank(Word(k + 1, ())) is None


@pytest.mark.parametrize("k, n_horizon, dim", DOMAINS)
def test_word_mapping_constructor_ranks_the_table(k, n_horizon, dim):
    rng = random.Random(k * 100 + n_horizon * 10 + dim)
    table = {w: rng.randrange(300) for w in var_words(k, n_horizon, dim=dim)}
    c = Coloring(k, n_horizon, dim, 300, dict(reversed(table.items())))
    assert dict(zip(c.domain(), c.colors)) == table and type(c.colors) in (bytes, tuple)
    assert c == Coloring(k, n_horizon, dim, 300, c.colors) == pickle.loads(pickle.dumps(c))
    assert hash(c) == hash(pickle.loads(pickle.dumps(c)))
    small = Coloring(k, n_horizon, dim, 2, {w: col % 2 for w, col in table.items()})
    assert type(small.colors) is bytes and hash(small) == hash(pickle.loads(pickle.dumps(small)))


def _outcome(read):
    try:
        col = read()
    except (VarwordError, KeyError, TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return col.k, col.N, col.n, col.ell, col.colors


def _hostile_tables(c):
    """The table of c as (text, color) rows, and hostile variants of it."""
    rows = [list(e) for e in c.entries()]
    r = random.Random(len(rows))
    i, j = sorted(r.sample(range(len(rows)), 2))
    yield "canonical", rows
    yield "swapped", rows[:i] + [rows[j]] + rows[i + 1 : j] + [rows[i]] + rows[j + 1 :]
    yield "missing", rows[:i] + rows[i + 1 :]
    yield "repeated", rows[: i + 1] + rows[i:]
    yield "extra", rows + [["0" * (c.N + 1), 0]]
    yield "outside", rows[:i] + [["x0x2", 0]] + rows[i + 1 :]
    yield "bracketed", rows[:-1] + [["[1]" + rows[-1][0][1:], rows[-1][1]]]
    yield "spaced", rows[:i] + [[" " + rows[i][0], rows[i][1]]] + rows[i + 1 :]
    for color in (2, -1, 300):
        yield f"color {color}", rows[:i] + [[rows[i][0], color]] + rows[i + 1 :]
    yield "bad letter", rows[:i] + [["9", 0]] + rows[i + 1 :]
    yield "empty", []


@pytest.mark.parametrize("dim", [0, 1, 2])
def test_json_reader_matches_word_route(monkeypatch, dim):
    c = Coloring.from_function(2, 4, dim, 2, lambda w: (len(w) + w.symbols.count(1)) % 2)
    variants = list(_hostile_tables(c))
    docs = []
    for name, rows in variants:
        doc = json.loads(certs.canonical_json(certs.coloring_to_json(c)))
        doc["table"] = rows
        docs.append((name, doc))
    for name, color in (("str color", "1"), ("float color", 1.0), ("bool color", True)):
        doc = json.loads(certs.canonical_json(certs.coloring_to_json(c)))
        doc["table"][3][1] = color
        docs.append((name, doc))
    for name, edit in (("ell text", {"ell": "2"}), ("no ell", {"ell": None}), ("row text", {"table": "01"}),
                       ("short row", {"table": [["-"]]}), ("long row", {"table": [["-", 0, 0]]})):
        doc = json.loads(certs.canonical_json(certs.coloring_to_json(c)))
        doc.update(edit)
        if edit.get("ell", 0) is None:
            del doc["ell"]
        docs.append((name, doc))
    fast = [_outcome(lambda: certs.coloring_from_json(doc)) for _, doc in docs]
    monkeypatch.setattr(Coloring, "from_entries", classmethod(lambda *a: None))
    words = [_outcome(lambda: certs.coloring_from_json(doc)) for _, doc in docs]
    for (name, _), got, want in zip(docs, fast, words):
        assert got == want, name
    assert fast[0][4] == c.colors


@pytest.mark.parametrize("dim", [0, 1, 2])
def test_file_reader_matches_word_route(monkeypatch, dim):
    c = Coloring.from_function(2, 4, dim, 2, lambda w: (len(w) + w.symbols.count(1)) % 2)
    head = c.dump().split("\n", 1)[0]
    texts = []
    for name, rows in _hostile_tables(c):
        texts.append((name, "\n".join([head] + [f"{t} {col}" for t, col in rows]) + "\n"))
    body = c.dump().split("\n")[1:-1]
    for name, line in (("tab", body[2].replace(" ", "\t")), ("trailing space", body[2] + " "),
                       ("blank", ""), ("bad color", body[2][:-1] + "x"), ("plus color", body[2][:-1] + "+1"),
                       ("underscore color", body[2][:-1] + "1_0"), ("no color", body[2].split()[0])):
        texts.append((name, "\n".join([head] + body[:2] + [line] + body[3:]) + "\n"))
    texts += [("ell 1", c.dump().replace(head, head[:-1] + "1", 1)), ("k 3", "3" + c.dump()[1:])]
    fast = [_outcome(lambda: Coloring.parse(text, "col.txt")) for _, text in texts]
    monkeypatch.setattr(Coloring, "from_entries", classmethod(lambda *a: None))
    words = [_outcome(lambda: Coloring.parse(text, "col.txt")) for _, text in texts]
    for (name, _), got, want in zip(texts, fast, words):
        assert got == want, name
    assert fast[0][4] == c.colors
    assert all(type(o[0]) is int or o[0] == "InputError" for o in fast)


def test_readers_take_the_canonical_route(monkeypatch):
    # a canonical table of any domain is compared with the domain's texts, not
    # parsed: plain words over 3 and 11 letters, n = 1 and 2, one letter, and
    # the empty alphabet of ``cdrt translate``'s domains
    import varword.certificates as certs_mod
    import varword.colorings as colorings_mod

    def refuse(text, k):
        raise AssertionError("parsed a word of a canonical table")

    monkeypatch.setattr(certs_mod, "parse_word", refuse)
    monkeypatch.setattr(colorings_mod, "parse_word", refuse)
    for k, n_horizon, dim in [(3, 4, 0), (2, 4, 1), (2, 5, 2), (1, 5, 1), (11, 2, 0), (0, 4, 2), (0, 3, 0)]:
        c = Coloring.from_function(k, n_horizon, dim, 2, lambda w: (len(w) + sum(w.symbols)) % 2)
        doc = json.loads(certs.canonical_json(certs.coloring_to_json(c)))
        assert certs.coloring_from_json(doc) == c == Coloring.parse(c.dump()), (k, n_horizon, dim)


def test_constructor_checks_ranked_colors():
    with pytest.raises(VarwordError, match="coloring not total: missing 11"):
        Coloring(2, 2, 0, 2, bytes([0, 1, 1, 0, 1, 0]))
    with pytest.raises(VarwordError, match="color 2 out of range for 0"):
        Coloring(2, 2, 0, 2, bytes([0, 2, 1, 0, 1, 0, 3]))
    with pytest.raises(VarwordError, match="8 colors for a domain of 7 words"):
        Coloring(2, 2, 0, 2, bytes(8))
    with pytest.raises(VarwordError, match="8 colors for a domain of 7 words"):
        Coloring(2, 2, 0, 2, bytes(7) + b"\x03")  # a bad color past the domain has no word to name
    full = Coloring(2, 2, 0, 2, bytes(7))
    assert full.colors == bytes(7)
    with pytest.raises(InputError, match="coloring not total: missing 11"):
        Coloring.parse("2 2 0 2\n" + "\n".join(f"{t} 0" for t, _ in full.entries()[:6]) + "\n")


def test_mapping_of_other_words_is_refused():
    # the constructor names the first defect: a word missing, then a word outside
    table = {w: len(w) % 2 for w in var_words(2, 3, dim=0)}
    first = sorted(table, key=Word.key)[4]
    del table[first]
    with pytest.raises(VarwordError, match=f"coloring not total: missing {format_word(first)}"):
        Coloring(2, 3, 0, 2, table)
    wide = dict.fromkeys(var_words(2, 2, dim=0), 0)
    wide[Word(2, (0, 0, 0))] = 1
    with pytest.raises(VarwordError, match="000 is outside the coloring's domain"):
        Coloring(2, 2, 0, 2, wide)
    wide[Word(2, (0, 0))] = 2
    with pytest.raises(VarwordError, match="color 2 out of range for 00"):
        Coloring(2, 2, 0, 2, wide)


def _read_small(read, k, n_horizon, dim, text, color):
    """The outcome of reading a one-row table, and the reader's peak traced memory."""
    import tracemalloc

    import varword.colorings as colorings_mod

    colorings_mod._codec.cache_clear()
    tracemalloc.start()
    if read == "json":
        doc = {"type": "coloring", "k": k, "N": n_horizon, "n": dim, "ell": 2, "table": [[text, color]]}
        got = _outcome(lambda: certs.coloring_from_json(doc))
    else:
        got = _outcome(lambda: Coloring.parse(f"{k} {n_horizon} {dim} 2\n{text} {color}\n"))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return got, peak


@pytest.mark.parametrize("read", ["json", "file"])
def test_long_word_domain_reads_in_small_memory(read):
    # k = 1, N = n = 2000: the domain is the one word x0 x1 ... x1999; a
    # rank table of every (length, variables) pair held (1 + D)^D-sized
    # counts, about 1.8 GB at D = 2000
    d = 2000
    got, peak = _read_small(read, 1, d, d, "".join(f"x{i}" for i in range(d)), 1)
    assert got == (1, d, d, 2, b"\x01")
    assert peak < 4 << 20, peak  # 0.16 MB measured


@pytest.mark.parametrize("read", ["json", "file"])
def test_word_shorter_than_its_dimension_builds_no_rank_table(read):
    # n far above N leaves the domain empty; the header is refused, and
    # no table sized by n is built to say so
    got, peak = _read_small(read, 2, 5, 10**6, "-", 0)
    assert got[0] == ("IndexOutOfRange" if read == "json" else "InputError")
    assert got[1].endswith("coloring with k=2, N=5, n=1000000 has an empty domain: 0 <= n <= N fails")
    assert peak < 4 << 20, peak


@pytest.mark.parametrize("read", ["json", "file"])
@pytest.mark.parametrize("d", [10**6, 10**9])
def test_table_without_its_n_symbol_word_is_refused_uncounted(monkeypatch, read, d):
    # the domain's first word is x0 x1 ... x_{n-1}; a table with no word of
    # n symbols misses it, and counting the domain would take d steps
    import varword.colorings as colorings_mod

    def refuse(*args):
        raise AssertionError("counted the domain")

    monkeypatch.setattr(colorings_mod, "_domain_size", refuse)
    got, peak = _read_small(read, 2, d, d, "-", 0)
    assert got[0] == ("InvalidWord" if read == "json" else "InputError")
    assert got[1].endswith(f"coloring not total: no word of length n={d}")
    assert peak < 4 << 20, peak


# -- fuzzing the readers: small tables drawn from word texts, colors and junk

_TEXTS = ["-", "0", "1", "2", "9", "00", "01", "10", "x0", "x1", "0x0", "x0x0", "x0x1", "x1x0", "x0[0]", "[1]0"]
_NUMBERS = ["0", "1", "2", "3", "-1", "300", "1000000", "1000000000"]
_JUNK = ["", " ", "x", "1.0", "+1", "1_0", "\u00b2", "\t", "0 0"]
_BASES = [Coloring.constant(2, 2, 0, 2), Coloring.constant(2, 2, 1, 2), Coloring.constant(1, 3, 0, 3),
          Coloring.from_function(3, 2, 0, 2, lambda w: len(w) % 2), Coloring.constant(0, 3, 2, 2)]


def _edited(data, rows, draw_row):
    """``rows`` with up to three rows replaced, inserted or deleted."""
    rows = list(rows)
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(rows)))
        op = data.draw(st.sampled_from(["set", "insert", "delete"]))
        if op == "insert" or i == len(rows):
            rows.insert(i, data.draw(draw_row))
        elif op == "set":
            rows[i] = data.draw(draw_row)
        else:
            del rows[i]
    return rows


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_file_reader_returns_or_raises_input_error(data):
    line = st.one_of(
        st.tuples(st.sampled_from(_TEXTS + _JUNK), st.sampled_from(_NUMBERS[:5] + _JUNK)).map(" ".join),
        st.sampled_from(_TEXTS + _NUMBERS + _JUNK),
    )
    header = st.lists(st.sampled_from(_NUMBERS), min_size=4, max_size=4).map(" ".join)
    if data.draw(st.booleans()):
        lines = _edited(data, data.draw(st.sampled_from(_BASES)).dump().splitlines(), line | header)
    else:
        lines = [data.draw(header | line)] + data.draw(st.lists(line, max_size=6))
    try:
        col = Coloring.parse("\n".join(lines) + "\n", "f.txt")
    except InputError as exc:
        assert exc.line >= 1
    else:
        assert Coloring.parse(col.dump()) == col


@pytest.fixture(scope="module")
def csl_blob():
    from varword.prehomog import csl_search

    c = Coloring.constant(2, 2, 0, 2)
    return certs.canonical_json(certs.csl_certificate_doc(c, csl_search(c, 1)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verifier_never_raises_on_a_fuzzed_coloring(csl_blob, data):
    value = st.sampled_from([0, 1, 2, 3, -1, 300, 10**6, 10**9, "2", None, 1.0, True, [], {}])
    row = st.one_of(
        st.tuples(st.sampled_from(_TEXTS + _JUNK + [0, None]), value).map(list),
        st.sampled_from([[], ["-"], ["-", 0, 0], "01", 0, None]),
    )
    instance = certs.coloring_to_json(data.draw(st.sampled_from(_BASES)))
    instance["table"] = _edited(data, instance["table"], row)
    for key in data.draw(st.lists(st.sampled_from(["k", "N", "n", "ell", "table"]), max_size=2)):
        instance[key] = data.draw(value)
    doc = json.loads(csl_blob)
    doc["instance"] = instance
    doc["digest"] = certs.digest(instance)
    assert isinstance(certs.verify_certificate(doc), certs.VerifyResult)
