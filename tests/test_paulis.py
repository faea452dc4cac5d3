import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutprop.paulis import (
    Observable,
    PauliError,
    PauliString,
    canonicalize,
    commutes,
    format_observable,
    group_qwc,
    multiply,
    parse_observable,
    qubitwise_commutes,
)

from oracles import word_matrix

LETTERS = "IXYZ"


def labels(n):
    return ("".join(p) for p in itertools.product(LETTERS, repeat=n))


def word_strategy(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))
    )


# --- multiply ----------------------------------------------------------------


def test_multiply_frozen_examples():
    # X*X = I (involution)
    ph, w = multiply(PauliString.from_label("X"), PauliString.from_label("X"))
    assert ph == 1 and w.is_identity
    # Z*X = i*Y, checked against the 2x2 matrices
    ph, w = multiply(PauliString.from_label("Z"), PauliString.from_label("X"))
    assert ph == 1j and w.label() == "Y"
    assert np.allclose(word_matrix("Z") @ word_matrix("X"), 1j * word_matrix("Y"))
    # disjoint supports
    ph, w = multiply(PauliString.from_label("ZI"), PauliString.from_label("IX"))
    assert ph == 1 and w.label() == "ZX"


def test_multiply_exhaustive_small():
    for n in (1, 2, 3):
        for la in labels(n):
            for lb in labels(n):
                ph, w = multiply(PauliString.from_label(la), PauliString.from_label(lb))
                assert np.allclose(
                    word_matrix(la) @ word_matrix(lb), ph * word_matrix(w.label())
                ), (la, lb)


@settings(max_examples=150, deadline=None)
@given(word_strategy(), word_strategy())
def test_multiply_matches_dense_random(a, b):
    n = max(a[0], b[0])
    p = PauliString(n, a[1] & ((1 << n) - 1), a[2] & ((1 << n) - 1))
    q = PauliString(n, b[1] & ((1 << n) - 1), b[2] & ((1 << n) - 1))
    ph, w = multiply(p, q)
    assert np.allclose(
        word_matrix(p.label()) @ word_matrix(q.label()), ph * word_matrix(w.label())
    )


def test_multiply_size_mismatch():
    with pytest.raises(PauliError):
        multiply(PauliString.from_label("X"), PauliString.from_label("XX"))


# --- commutation predicates ---------------------------------------------------


def test_commutes_examples():
    z, x = PauliString.from_label("Z"), PauliString.from_label("X")
    assert commutes(z, z)
    assert not commutes(z, x)
    xx, zz = PauliString.from_label("XX"), PauliString.from_label("ZZ")
    assert commutes(xx, zz)  # two sign flips cancel
    lhs = word_matrix("XX") @ word_matrix("ZZ") - word_matrix("ZZ") @ word_matrix("XX")
    assert np.abs(lhs).max() < 1e-12


def test_commutes_matches_dense_exhaustive():
    for n in (1, 2):
        for la in labels(n):
            for lb in labels(n):
                a, b = word_matrix(la), word_matrix(lb)
                dense = np.abs(a @ b - b @ a).max() < 1e-12
                assert commutes(PauliString.from_label(la), PauliString.from_label(lb)) == dense


def test_qubitwise_examples():
    qwc = lambda a, b: qubitwise_commutes(
        PauliString.from_label(a), PauliString.from_label(b)
    )
    assert qwc("IZI", "IIZ")
    assert not qwc("IXZ", "IZX")
    assert not qwc("XX", "ZZ")  # conflicts positionwise despite global commutation


@settings(max_examples=200, deadline=None)
@given(word_strategy(6), word_strategy(6))
def test_qwc_implies_commutes(a, b):
    n = max(a[0], b[0])
    p = PauliString(n, a[1] & ((1 << n) - 1), a[2] & ((1 << n) - 1))
    q = PauliString(n, b[1] & ((1 << n) - 1), b[2] & ((1 << n) - 1))
    if qubitwise_commutes(p, q):
        assert commutes(p, q)


# --- canonicalize ---------------------------------------------------------------


def test_canonicalize_merges_duplicates():
    obs = Observable.from_labels([(0.5, "Z"), (0.5, "Z")])
    assert len(obs.terms) == 1
    assert obs.terms[0].coeff == pytest.approx(1.0)


def test_canonicalize_cancellation():
    obs = Observable.from_labels([(1.0, "Z"), (-1.0, "Z")])
    assert len(obs.terms) == 0


def test_canonicalize_sorts():
    a = Observable.from_labels([(1.0, "IZ"), (2.0, "ZI")])
    b = Observable.from_labels([(2.0, "ZI"), (1.0, "IZ")])
    assert a.terms == b.terms
    coeffs = {t.word.label(): t.coeff for t in a.terms}
    assert coeffs == {"IZ": 1.0, "ZI": 2.0}


def test_canonicalize_drops_tiny_terms():
    obs = Observable.from_labels([(1e-15, "X"), (1.0, "Z")])
    assert [t.word.label() for t in obs.terms] == ["Z"]


# --- grouping --------------------------------------------------------------------


def first_fit_group_count(words):
    groups = []
    for w in words:
        for g in groups:
            if all(qubitwise_commutes(w, v) for v in g):
                g.append(w)
                break
        else:
            groups.append([w])
    return len(groups)


def test_grouping_five_term_example():
    obs = Observable.from_labels(
        [
            (0.3136761, "IZI"),
            (-0.04732369, "IIZ"),
            (0.33333333, "ZII"),
            (-0.11277595, "IXZ"),
            (-0.32995694, "IZX"),
        ]
    )
    grouping = group_qwc(obs)
    assert grouping.group_count == 2
    # partition: disjoint, covering, and internally qubit-wise commuting
    seen = sorted(i for g in grouping.groups for i in g)
    assert seen == list(range(len(obs.terms)))
    for g in grouping.groups:
        for i in g:
            for j in g:
                assert qubitwise_commutes(obs.terms[i].word, obs.terms[j].word)


def test_grouping_all_z_single_group():
    obs = Observable.from_labels([(1.0, "ZII"), (1.0, "IZI"), (1.0, "IIZ")])
    assert group_qwc(obs).group_count == 1


def test_grouping_pairwise_conflicting():
    obs = Observable.from_labels([(1.0, "X"), (1.0, "Y"), (1.0, "Z")])
    assert group_qwc(obs).group_count == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(word_strategy(5), min_size=1, max_size=12), st.integers(2, 5))
def test_grouping_never_beats_first_fit_and_is_valid(raw, n):
    words = [PauliString(n, x & ((1 << n) - 1), z & ((1 << n) - 1)) for _, x, z in raw]
    obs = Observable.from_terms(n, [(1.0 + 0.001 * i, w) for i, w in enumerate(words)])
    if not obs.terms:
        return
    grouping = group_qwc(obs)
    assert grouping.group_count <= first_fit_group_count([t.word for t in obs.terms])
    for g in grouping.groups:
        for i in g:
            for j in g:
                assert qubitwise_commutes(obs.terms[i].word, obs.terms[j].word)


def test_grouping_empty():
    assert group_qwc(Observable(3, ())).group_count == 0


# --- text format -------------------------------------------------------------------


def test_observable_text_roundtrip():
    obs = Observable.from_labels([(0.25, "XIZ"), (-1.5, "IYI"), (0.75, "ZZZ")])
    again = parse_observable(format_observable(obs))
    assert again.terms == obs.terms


def test_observable_text_comments_and_blanks():
    obs = parse_observable("# comment\n\n0.5 ZI  # trailing\n-0.5 IZ\n")
    assert len(obs.terms) == 2
    assert obs.n == 2


def test_observable_text_leftmost_is_qubit_zero():
    obs = parse_observable("1.0 ZI\n")
    assert obs.terms[0].word.letter(0) == "Z"
    assert obs.terms[0].word.letter(1) == "I"


@pytest.mark.parametrize(
    "text",
    [
        "", "0.5\n", "abc ZI\n", "0.5 ZQ\n", "0.5 ZI\n0.5 ZII\n",
        "1.0 ZZ\nnan XX\n", "inf ZZ\n",
    ],
)
def test_observable_text_errors(text):
    with pytest.raises(PauliError):
        parse_observable(text)


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), complex(float("nan"), 0)])
def test_from_terms_rejects_non_finite_coefficients(coeff):
    terms = [(1.0, PauliString.from_label("ZZ")), (coeff, PauliString.from_label("XX"))]
    with pytest.raises(PauliError, match="non-finite"):
        Observable.from_terms(2, terms)
