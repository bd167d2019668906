import pytest

from varword.errors import (
    ElementNotInTree,
    LevelOutOfRange,
    NotATree,
    NotOrdered,
)
from varword.trees import (
    canonical_iso,
    generator_from_tree,
    level,
    levels,
    size,
    tree_from_generator,
)
from varword.words import (
    Word,
    dimension,
    format_word,
    letter_words,
    parse_word,
    substitute,
    var_words,
)

K = 2
GEN = parse_word("10x0 01x0 10", K)


def words(*texts, k=K):
    return [parse_word(t, k) for t in texts]


class TestBuild:
    def test_paper_example(self):
        t = tree_from_generator(GEN)
        assert [format_word(e) for e in t.elements] == ["10", "10001010", "10101110"]
        assert [format_word(e) for e in level(t, 0)] == ["10"]
        assert sorted(format_word(e) for e in level(t, 1)) == ["10001010", "10101110"]

    def test_constant_generator(self):
        t = tree_from_generator(parse_word("011", K))
        assert t.dimension == 0 and [format_word(e) for e in t.elements] == ["011"]

    def test_bare_variable(self):
        t = tree_from_generator(parse_word("x0", K))
        assert [format_word(e) for e in t.elements] == ["-", "0", "1"]

    def test_rejects_unordered(self):
        with pytest.raises(NotOrdered):
            tree_from_generator(parse_word("x0x1x0", K))

    def test_levels_and_size(self):
        t = tree_from_generator(GEN)
        assert levels(t) == (2, 8)
        assert size(t) == 8 == len(GEN)
        with pytest.raises(LevelOutOfRange):
            level(t, 2)

    def test_level_counts(self):
        for w in var_words(2, 5, ordered=True):
            t = tree_from_generator(w)
            total = 0
            for j in range(t.dimension + 1):
                lv = level(t, j)
                assert len(lv) == 2**j
                total += len(lv)
            assert total == len(t.elements)


class TestInvert:
    def test_paper_example(self):
        g = generator_from_tree(words("10", "10001010", "10101110"))
        assert g == GEN

    def test_not_a_tree(self):
        with pytest.raises(NotATree) as exc:
            generator_from_tree(words("10", "1010", "1001"))
        assert exc.value.pair is not None

    def test_singleton(self):
        assert generator_from_tree(words("110")) == parse_word("110", K)

    def test_exhaustive_roundtrip(self):
        for w in var_words(2, 7, ordered=True):
            t = tree_from_generator(w)
            assert generator_from_tree(t.elements) == w

    def test_k3_roundtrip(self):
        for w in var_words(3, 4, ordered=True):
            assert generator_from_tree(tree_from_generator(w).elements) == w

    def test_unary_alphabet_regenerates(self):
        # the generator is not unique over one letter; the lex-least one
        # must regenerate the same element set
        for w in var_words(1, 6, ordered=True):
            t = tree_from_generator(w)
            g = generator_from_tree(t.elements)
            assert tree_from_generator(g).element_set() == t.element_set()

    def test_unordered_generated_set_rejected(self):
        # an unordered 2-variable word gives an instantiation set that no
        # ordered word generates
        w = parse_word("x0x1x0", K)
        elems = set()
        for j in range(3):
            for u in letter_words(K, j, min_len=j):
                elems.add(substitute(w, u))
        with pytest.raises(NotATree):
            generator_from_tree(elems)


def _first_generators(k, max_len):
    """The lex-least ordered generator of each tree, by its element set."""
    first = {}
    for g in var_words(k, max_len, ordered=True):
        first.setdefault(tree_from_generator(g).element_set(), g)
    return first


class TestInvertAgainstBruteForce:
    @pytest.mark.parametrize("k, max_len, edit_len", [(1, 6, 6), (2, 6, 4), (3, 4, 3)])
    def test_every_tree_and_one_element_edit(self, k, max_len, edit_len):
        # the answer is the lex-least ordered generator whose tree is the set
        # (the walk yields each length in lex order, and a tree's generators
        # share its top length), and NotATree with a pair when there is none
        first = _first_generators(k, max_len)
        inputs = list(first)
        for tree, g in first.items():
            if len(g) <= edit_len:
                pool = list(letter_words(k, len(g)))
                for e in tree:
                    inputs.append(tree - {e})
                    inputs += [tree - {e} | {w} for w in pool if w not in tree]
        for elems in inputs:
            if not elems:
                continue
            want = first.get(elems)
            try:
                got = generator_from_tree(elems)
            except NotATree as exc:
                assert want is None and exc.pair is not None, sorted(map(format_word, elems))
            else:
                assert got == want, sorted(map(format_word, elems))

    @pytest.mark.parametrize("k", [1, 2])
    def test_chain_builds_no_more_words_than_it_holds(self, k, monkeypatch):
        # one letter word at each of 40 lengths: over one letter a legal
        # 39-variable tree, over two a level 1 of one word, not two
        import varword.trees as trees_mod

        built = []
        real = trees_mod.substitute
        monkeypatch.setattr(trees_mod, "substitute", lambda w, u: built.append(u) or real(w, u))
        chain = [Word(k, (0,) * n) for n in range(40)]
        try:
            got = generator_from_tree(chain)
        except NotATree as exc:
            assert k == 2 and str(exc) == "level 1 has 1 elements, expected 2" and exc.pair
            got = None
        assert len(built) <= len(chain)
        if k == 1:
            assert dimension(got) == 39 and tree_from_generator(got).element_set() == set(chain)


class TestIso:
    def test_examples(self):
        t = tree_from_generator(GEN)
        iso = canonical_iso(t)
        assert format_word(iso(parse_word("10001010", K))) == "0"
        assert format_word(iso(parse_word("10", K))) == "-"
        with pytest.raises(ElementNotInTree):
            iso(parse_word("11", K))

    def test_pullback_constant(self):
        t = tree_from_generator(GEN)
        iso = canonical_iso(t)
        pulled = iso.pullback(lambda e: 7)
        assert set(pulled.values()) == {7}
        assert set(pulled) == {Word(K, ()), Word(K, (0,)), Word(K, (1,))}

    def test_pullback_matches_definition(self):
        t = tree_from_generator(parse_word("x0 0x1", K))
        iso = canonical_iso(t)
        coloring = {e: len(e) % 2 for e in t.elements}
        pulled = iso.pullback(coloring)
        for u, c in pulled.items():
            assert coloring[substitute(t.generator, u)] == c


class TestSubtree:
    def test_root_singleton(self):
        t = tree_from_generator(GEN)
        root = tree_from_generator(level(t, 0)[0])
        assert root.element_set() <= t.element_set()

    def test_substitution_gives_subtrees(self, rng):
        # instantiating some variables of the generator yields a subtree
        for w in var_words(2, 5, ordered=True, min_len=1):
            n = dimension(w)
            if n == 0:
                continue
            t = tree_from_generator(w)
            for v in var_words(2, n, ordered=True):
                if dimension(v) > n or len(v) > n:
                    continue
                try:
                    sub_gen = substitute(w, Word(K, v.symbols))
                except Exception:
                    continue
                if len(v) != n:
                    continue
                s = tree_from_generator(sub_gen)
                assert s.element_set() <= t.element_set(), (format_word(w), format_word(v))
