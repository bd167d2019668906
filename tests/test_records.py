"""Value semantics of every record type: keyword construction, equality,
hashing where the fields allow it, no attribute assignment, copying and
pickling."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import varword
from varword._frozen import Frozen
from varword.cdrt import CdrtPullback
from varword.certificates import VerifyResult
from varword.colorings import Coloring
from varword.henson import Envelope, GraphSpec, PhiEmbedding, ProfileColoring, TriangleFreeReport
from varword.largeness import (
    BrownSelection,
    DensityProfile,
    DensitySplitReport,
    FiniteFamily,
    PwCertification,
    PwSplitResult,
    PwSyndeticDecomposition,
    SyndeticCheck,
    SyndeticityWitness,
    ThickCheck,
    ThickWitness,
)
from varword.prehomog import CslCertificate, LeqResult, OneStepCertificate, PrehomogReport
from varword.search import (
    BuilderStage,
    BuilderTrace,
    LineLetterCertificate,
    StepResult,
)
from varword.sweeps import AssocSweepResult, HensonScanReport, RoundTripResult, WordTable
from varword.trees import CanonicalIso, OVWTree
from varword import words
from varword.words import (
    Condition,
    ValidityReport,
    Word,
    compose,
    decompose,
    letter_words,
    parse_word,
    recompose,
    substitute,
    unrank,
    var_words,
)

W = Word(k=2, symbols=(0, 2))
V = Word(k=2, symbols=(1,))
BLOCK = Word(k=2, symbols=(2, 1))
FAM = FiniteFamily(k=2, N=2, mask=0b1011)
DEC = PwSyndeticDecomposition(syndetic=FAM, thick=FAM, ell=1)
TREE = OVWTree(generator=W, elements=(Word(2, (0,)), Word(2, (0, 0)), Word(2, (0, 1))))
SYN = SyndeticCheck(ok=True, ell=1, witness=SyndeticityWitness(ell=1, translators=((V, W),)))
THICK = ThickCheck(ok=True, ell_max=1, witness=ThickWitness(anchors=((1, V),)))
CERT = PwCertification(decomposition=DEC, syndetic_check=SYN, thick_check=THICK)
CSL = CslCertificate(word=W, color=0, depth=1, checked=((V, W),))
ARRAYS = [np.zeros((2, 2), np.int64), np.ones(2, np.int64), np.zeros((2, 4), np.int64)]

# (record type, keyword arguments, hashable): a field holding a dict or an
# array makes the record unhashable, as it always was
RECORDS = [
    (Word, {"k": 2, "symbols": (0, 2)}, True),
    (Condition, {"name": "occurrence", "ok": False, "position": 3, "detail": "x1 never occurs"}, True),
    (ValidityReport, {"word": W, "n": 1, "ordered": False, "conditions": (Condition("a", True),)}, True),
    (Coloring, {"k": 2, "N": 1, "n": 0, "ell": 2, "colors": b"\x00\x01\x01"}, True),
    (OVWTree, {"generator": W, "elements": TREE.elements}, True),
    (CanonicalIso, {"tree": TREE, "to_pattern": {W: V}, "from_pattern": {V: W}}, False),
    (FiniteFamily, {"k": 2, "N": 2, "mask": 0b1011}, True),
    (DensityProfile, {"densities": (Fraction(1, 2),), "epsilon": Fraction(1, 3), "witness_lengths": (0,)}, True),
    (DensitySplitReport, {"epsilon": Fraction(1, 2), "b_lengths": (1,), "c_lengths": (2,),
                          "e_witness": (1,), "f_witness": (), "side": "E"}, True),
    (SyndeticityWitness, {"ell": 1, "translators": ((V, W),)}, True),
    (SyndeticCheck, {"ok": False, "ell": 1, "witness": None, "counterexample": V}, True),
    (ThickWitness, {"anchors": ((1, V),)}, True),
    (ThickCheck, {"ok": False, "ell_max": 2, "witness": None, "failing_ell": 2}, True),
    (PwSyndeticDecomposition, {"syndetic": FAM, "thick": FAM, "ell": 1}, True),
    (PwSplitResult, {"side": "B", "chosen": FAM, "decomposition": DEC, "identity_b": True,
                     "identity_c": True, "syndetic_check": SYN, "thick_evidence": THICK}, True),
    (BrownSelection, {"index": 0, "subset": (0,), "decomposition": DEC, "syndetic_check": SYN,
                      "removal_check": SYN, "thick_evidence": THICK}, True),
    (PwCertification, {"decomposition": DEC, "syndetic_check": SYN, "thick_check": THICK}, True),
    (LineLetterCertificate, {"line": TREE, "letter": 1, "color": 0, "checked": (W, V)}, True),
    (StepResult, {"line": TREE, "block": BLOCK, "residue": CERT, "s0_in_part": True,
                  "inclusion_checked": 4}, True),
    (BuilderStage, {"tree": TREE, "block": BLOCK, "residue": CERT, "claim1_ok": True,
                    "claim1_checked": 3, "claim1_skipped": 0, "claim2_ok": True,
                    "claim2_checked": 5, "claim2_skipped": 1}, True),
    (BuilderTrace, {"part": FAM, "stages": ()}, True),
    (CslCertificate, {"word": W, "color": 0, "depth": 1, "checked": ((V, W),)}, True),
    (PrehomogReport, {"ok": False, "checked": 7, "counterexample": (V, W, W)}, True),
    (OneStepCertificate, {"w_hat": W, "color": 1, "stem": V, "z_word": W, "inner": CSL,
                          "checked": ((V, W),)}, True),
    (LeqResult, {"ok": True, "witness": W}, True),
    (CdrtPullback, {"word": W, "color": 1, "checked": ((V, W),)}, True),
    (TriangleFreeReport, {"horizon": 4, "vertices": 15, "edges": 20, "scans": 20}, True),
    (GraphSpec, {"n": 3, "edges": frozenset({(0, 1)})}, True),
    (PhiEmbedding, {"words": (W, V), "in_vertex_set": (True, False)}, True),
    (Envelope, {"word": W, "assignments": ((V, W),), "variable_count": 1, "bound": 2}, True),
    (ProfileColoring, {"dimension": 2, "slots": (), "table": {W: ()}, "slot_count": 0,
                       "distinct_profiles": 1}, False),
    (VerifyResult, {"ok": True, "kind": "tree", "detail": "3 checks"}, True),
    (WordTable, {"k": 2, "syms": ARRAYS[0], "lens": ARRAYS[1], "focc": ARRAYS[2]}, False),
    (AssocSweepResult, {"words": 4, "pairs": 16, "checked": 16, "failures": 0,
                        "first_bad": (-1, -1, -1, -1)}, True),
    (RoundTripResult, {"generators": 3, "elements": 9, "mismatches": 0, "bad_code": -1}, True),
    (HensonScanReport, {"horizon": 4, "vertices": 15, "edges": 20}, True),
]


@pytest.mark.parametrize("cls, kwargs, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, kwargs, hashable):
    a = cls(**kwargs)
    b = cls(*kwargs.values())
    assert a == b and not a != b
    for name, value in kwargs.items():
        assert getattr(a, name) is value
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(a, name, kwargs[name])
    with pytest.raises(AttributeError):
        setattr(a, "not_a_field", 0)
    assert repr(a).startswith(f"{cls.__name__}(")


def test_hand_written_records_compare_by_value():
    assert Word(2, (0, 1)) != Word(3, (0, 1)) and Word(2, (0, 1)) != (2, (0, 1))
    assert FiniteFamily(2, 2, 5) != FiniteFamily(2, 3, 5)
    assert hash(Word(2, (0, 1))) == hash((2, (0, 1)))  # the dataclass hash, so set orders hold
    assert repr(Word(2, (0, 1))) == "Word(k=2, symbols=(0, 1))"
    assert Coloring.__slots__ == ("k", "N", "n", "ell", "colors")  # one representation: rank order
    by_word = {Word(2, (1,)): 1, Word(2, ()): 0, Word(2, (0,)): 1}
    assert Coloring(2, 1, 0, 2, by_word) == Coloring(2, 1, 0, 2, b"\x00\x01\x01")
    with pytest.raises(AttributeError):
        del FAM.mask
    assert TREE.level_lengths == (1, 2)  # cached on a record that refuses setattr


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_frozen_record_is_listed():
    for module in pkgutil.walk_packages(varword.__path__, "varword."):
        importlib.import_module(module.name)
    found = {cls for cls in _subclasses(Frozen) if cls.__module__.startswith("varword.")}
    assert found <= {cls for cls, _, _ in RECORDS}


def test_frozen_record_without_fields_is_refused():
    with pytest.raises(TypeError):
        class Bare(Frozen):
            pass

    with pytest.raises(TypeError):
        class Inherits(Word):  # fields are read from the class itself, never inherited
            __slots__ = ()


@pytest.mark.parametrize("cls, kwargs, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_copy_and_pickle_keep_the_record(cls, kwargs, hashable):
    a = cls(**kwargs)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and repr(b) == repr(a)
        if hashable:
            assert b == a and hash(b) == hash(a)


# every route that builds a Word, and the symbols it builds over k = 2:
# x0 0 x0, or 1 0 for the routes that give a plain word
X0_0_X0, ONE_0 = (2, 0, 2), (1, 0)
WORD_ROUTES = {
    "Word": (lambda: Word(2, X0_0_X0), X0_0_X0),
    "_trusted": (lambda: words._trusted(2, X0_0_X0), X0_0_X0),
    "var_words": (lambda: list(var_words(2, 3, dim=1, ordered=True))[18], X0_0_X0),
    "letter_words": (lambda: list(letter_words(2, 2))[-2], ONE_0),
    "unrank": (lambda: unrank(2, 3, 1, 18), X0_0_X0),
    "parse_word": (lambda: parse_word("x0[0]x0", 2), X0_0_X0),
    "concat": (lambda: Word(2, (2,)).concat(Word(2, (0, 2))), X0_0_X0),
    "substitute": (lambda: substitute(Word(2, (2, 0, 2, 3)), Word(2, (2,))), X0_0_X0),
    "substitute-tuple": (lambda: substitute(Word(2, (2, 0, 2, 3)), (2,)), X0_0_X0),
    "compose": (lambda: compose(Word(2, (2, 0, 2, 3)), Word(2, (2,))), X0_0_X0),
    "decompose-head": (lambda: decompose(Word(2, (1, 0, 2)))[0], ONE_0),
    "decompose-block": (lambda: decompose(Word(2, (1, 2, 0, 2)))[1][0], X0_0_X0),
    "recompose": (lambda: recompose(Word(2, ()), [Word(2, X0_0_X0)]), X0_0_X0),
}


@pytest.mark.parametrize("route", list(WORD_ROUTES))
def test_every_route_builds_the_same_word_record(route):
    build, symbols = WORD_ROUTES[route]
    w = build()
    assert type(w) is Word and (w.k, w.symbols) == (2, symbols)
    fresh = Word(2, symbols)
    assert w == fresh and hash(w) == hash(fresh) == hash((2, symbols))
    assert repr(w) == f"Word(k=2, symbols={symbols!r})"
    for b in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert type(b) is Word and b == w and hash(b) == hash(w)
    with pytest.raises(AttributeError, match="^cannot assign to field 'k'$"):
        w.k = 3
    with pytest.raises(AttributeError, match="^cannot assign to field 'symbols'$"):
        w.symbols = ()
    with pytest.raises(AttributeError, match="^cannot delete field 'symbols'$"):
        del w.symbols
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        w.extra = 0
    assert (w.k, w.symbols) == (2, symbols)


HASHABLE = [r[:2] for r in RECORDS if r[2]]


@pytest.mark.parametrize("cls, kwargs", HASHABLE, ids=[r[0].__name__ for r in HASHABLE])
def test_record_hashes_like_its_field_tuple(cls, kwargs):
    # set and dict orders, and with them the output bytes, follow these hashes
    assert hash(cls(**kwargs)) == hash(tuple(kwargs.values()))
