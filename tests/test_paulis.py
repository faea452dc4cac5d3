import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutprop import paulis
from cutprop.backprop import backpropagate
from cutprop.circuits import emit_qasm, lower_rotations, parse_qasm
from cutprop.generators import (
    HEISENBERG_H,
    HEISENBERG_J,
    first_k_z_observable,
    heavy_hex_19_edges,
    heisenberg_trotter,
)
from cutprop.paulis import (
    _ROW_BLOCK,
    Observable,
    PauliError,
    PauliString,
    PauliTerm,
    _conflict_matrix,
    _dsatur_colors,
    _first_fit_colors,
    canonicalize,
    commutes,
    format_observable,
    group_qwc,
    letter_masks,
    multiply,
    parse_observable,
)

from oracles import canonicalize as reference_canonicalize
from oracles import (
    conflict_adjacency,
    dsatur_colors,
    first_fit_colors,
    int_key_dsatur_colors,
    qubitwise_commutes,
    qwc_groups,
    word_matrix,
)

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
    assert ph == 1 and (w.x, w.z) == (0, 0)
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
    # |coeff| ~ 1e-14 rounds as Python's abs (kept, dropped, kept, dropped), not as np.abs.
    edge = (complex(-9.972426976221218e-15, -7.420917759518231e-16),
            complex(-3.7879920909420725e-15, 9.254788810068023e-15),
            complex(6.170707524835357e-15, 7.869076733832267e-15),
            complex(9.850454003935004e-15, 1.722949771862435e-15))
    words = [PauliString.from_label(label) for label in ("XI", "YI", "ZI", "IX")]
    obs = Observable.from_terms(2, zip(edge, words))
    assert [t.word.label() for t in obs.terms] == ["ZI", "XI"]


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
    assert len(grouping) == 2
    # partition: disjoint, covering, and internally qubit-wise commuting
    seen = sorted(i for g in grouping for i in g)
    assert seen == list(range(len(obs.terms)))
    for g in grouping:
        for i in g:
            for j in g:
                assert qubitwise_commutes(obs.terms[i].word, obs.terms[j].word)


def test_grouping_all_z_single_group():
    obs = Observable.from_labels([(1.0, "ZII"), (1.0, "IZI"), (1.0, "IIZ")])
    assert len(group_qwc(obs)) == 1


def test_grouping_pairwise_conflicting():
    obs = Observable.from_labels([(1.0, "X"), (1.0, "Y"), (1.0, "Z")])
    assert len(group_qwc(obs)) == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(word_strategy(5), min_size=1, max_size=12), st.integers(2, 5))
def test_grouping_never_beats_first_fit_and_is_valid(raw, n):
    words = [PauliString(n, x & ((1 << n) - 1), z & ((1 << n) - 1)) for _, x, z in raw]
    obs = Observable.from_terms(n, [(1.0 + 0.001 * i, w) for i, w in enumerate(words)])
    if not obs.terms:
        return
    grouping = group_qwc(obs)
    assert len(grouping) <= first_fit_group_count([t.word for t in obs.terms])
    for g in grouping:
        for i in g:
            for j in g:
                assert qubitwise_commutes(obs.terms[i].word, obs.terms[j].word)


# Register widths on both sides of the 64-qubit limb edges of the packed masks.
QWC_WIDTHS = (1, 2, 3, 4, 5, 63, 64, 65, 128, 129, 300)


@st.composite
def few_qubit_observables(draw):
    """Up to 150 words on at most six qubits of the register, limb edges likely.

    Words on few qubits give conflict graphs that are neither empty nor
    complete, and all-I letters give identity words.
    """
    n = draw(st.sampled_from(QWC_WIDTHS))
    edges = [q for q in (0, 63, 64, 127, 128, n - 1) if q < n]
    qubit = st.sampled_from(edges) | st.integers(0, n - 1)
    active = draw(st.lists(qubit, min_size=1, max_size=6, unique=True))
    size = draw(st.integers(1, 150))
    # Two bits per active qubit: x in the low bit, z in the high bit.
    codes = draw(st.lists(st.integers(0, 4 ** len(active) - 1), min_size=size, max_size=size))
    terms = []
    for i, code in enumerate(codes):
        x = sum(((code >> 2 * j) & 1) << q for j, q in enumerate(active))
        z = sum(((code >> 2 * j + 1) & 1) << q for j, q in enumerate(active))
        terms.append((1.0 + 0.001 * i, PauliString(n, x, z)))
    return Observable.from_terms(n, terms)


@settings(max_examples=120, deadline=None)
@given(few_qubit_observables())
def test_grouping_equals_the_pair_loop_colorers(obs):
    assert group_qwc(obs) == qwc_groups(obs)


def test_grouping_falls_back_to_first_fit():
    # DSATUR needs 11 colors on this conflict graph, first-fit in term order 10.
    labels = "ZZI XII YZI XZZ IYI ZXZ XXI YXI YXZ YYZ ZIX ZIY XIX IXX IYX IXY YXX YYX"
    obs = Observable.from_labels([(1.0, label) for label in labels.split()])
    words = tuple(t.word for t in obs.terms)
    adj = conflict_adjacency(words)
    assert max(dsatur_colors(words, adj)) + 1 == 11
    assert max(first_fit_colors(words, adj)) + 1 == 10
    assert group_qwc(obs) == qwc_groups(obs)
    assert len(group_qwc(obs)) == 10


def test_first_fit_is_skipped_when_dsatur_opens_a_clique_of_its_count(monkeypatch):
    def first_fit(conflict, max_colors):
        raise AssertionError("first-fit ran on a graph whose clique certifies DSATUR")

    monkeypatch.setattr(paulis, "_first_fit_colors", first_fit)
    # XI, YI and ZI conflict pairwise; IZ, ZZ and IX join their groups: 3 colors, a 3-clique.
    obs = Observable.from_labels(
        [(1.0, label) for label in ("XI", "YI", "ZI", "IZ", "ZZ", "IX")])
    assert _dsatur_colors(_conflict_matrix(obs))[1] == 3
    assert group_qwc(obs) == qwc_groups(obs) and len(group_qwc(obs)) == 3
    assert len(group_qwc(Observable.from_labels([(1.0, "ZI"), (1.0, "IZ")]))) == 1


def test_grouping_empty():
    assert len(group_qwc(Observable(3, ()))) == 0


# --- text format -------------------------------------------------------------------


def test_observable_text_roundtrip():
    obs = Observable.from_labels([(0.25, "XIZ"), (-1.5, "IYI"), (0.75, "ZZZ")])
    again = parse_observable(format_observable(obs))
    assert again.terms == obs.terms


@pytest.mark.parametrize("n", [1, 3, 64, 65, 130])
def test_format_observable_renders_each_term_label(n):
    rng = np.random.default_rng((n, 27))
    words = random_words(n, rng, 40)
    coeffs = [-0.0, 1e-300, 0.1 + 1e-13j, *rng.normal(size=37)]
    obs = Observable(n, tuple(PauliTerm(complex(c), w) for c, w in zip(coeffs, words)))
    want = "".join(f"{t.coeff.real!r} {t.word.label()}\n" for t in obs.terms)
    assert format_observable(obs) == want
    assert format_observable(Observable(n, ())) == ""


def test_format_observable_names_the_first_non_real_coefficient():
    # Rows sort by x, so ZI comes first; the message shows a Python complex.
    obs = Observable.from_labels([(1.0, "XZ"), (0.5 + 0.25j, "ZI"), (-1j, "YY")])
    message = "non-real coefficient (0.5+0.25j) cannot be formatted"
    with pytest.raises(PauliError, match=f"^{re.escape(message)}$"):
        format_observable(obs)


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


def test_letter_masks():
    # X on 4, Y on 0, Z on 2, I on 1; either case.
    assert letter_masks("XyzI", (4, 0, 2, 1)) == (0b10001, 0b00101)
    assert PauliString.from_label("xYzi") == PauliString(4, 0b0011, 0b0110)
    with pytest.raises(PauliError, match="invalid Pauli letter 'Q' in 'XQ'"):
        letter_masks("XQ", (0, 1))
    with pytest.raises(PauliError, match="invalid Pauli letter 'q' in 'zq'"):
        PauliString.from_label("zq")


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), complex(float("nan"), 0)])
def test_from_terms_rejects_non_finite_coefficients(coeff):
    terms = [(1.0, PauliString.from_label("ZZ")), (coeff, PauliString.from_label("XX"))]
    with pytest.raises(PauliError, match="non-finite"):
        Observable.from_terms(2, terms)


@pytest.mark.parametrize("labels", [
    # Merged, the two terms overflow to an infinite coefficient.
    ("ZZ", "ZZ"),
    # Each coefficient is finite, but their 1-norm, which bounds every
    # expectation of the observable, is not.
    ("ZZ", "IZ"),
])
def test_from_terms_rejects_a_non_finite_one_norm(labels):
    with pytest.raises(PauliError, match="1-norm overflows"):
        Observable.from_labels([(1e308, label) for label in labels])


def test_from_terms_accepts_a_one_norm_just_below_the_float_range():
    assert len(Observable.from_labels([(1e308, "ZZ"), (-1e308, "ZZ")])) == 0
    obs = Observable.from_labels([(1.6e308, "ZZ"), (-1e307, "XX")])
    assert obs.coeffs.real.tolist() == [1.6e308, -1e307]


# --- packed kernels against the dict and pair-loop references ----------------

KERNEL_WIDTHS = (1, 3, 19, 64, 65, 130)


def exact_terms(obs):
    """Every term's word and both coefficient parts, bit for bit (signed zeros too)."""
    return [(t.word.x, t.word.z, t.coeff.real.hex(), t.coeff.imag.hex()) for t in obs.terms]


def random_words(n, rng, m, letters_on=4):
    """m words on a few qubits of n, limb edges likely, so conflict graphs are mixed."""
    edges = [q for q in (0, 1, 63, 64, 65, 127, 128, 129, n - 1) if q < n]
    active = sorted(set(edges) | {int(q) for q in rng.integers(0, n, size=2)})
    words = []
    for _ in range(m):
        x = z = 0
        for q in rng.choice(active, size=min(letters_on, len(active)), replace=False):
            letter = int(rng.integers(0, 4))
            x |= (letter in (1, 2)) << int(q)
            z |= (letter in (2, 3)) << int(q)
        words.append(PauliString(n, x, z))
    return words


@pytest.mark.parametrize("n", KERNEL_WIDTHS)
def test_canonicalize_matches_the_dict_reference_bit_for_bit(n):
    rng = np.random.default_rng(n)
    words = random_words(n, rng, 30)
    parts = (0.0, -0.0, 1e-14, -1e-14, 9.9e-15, 5e-15, 0.3, -0.3, 1.0 / 3, 2.0, 1e-300)
    for trial in range(20):
        terms = []
        for _ in range(80):
            re, im = rng.choice(parts, size=2) * rng.choice((1.0, rng.normal()), size=2)
            terms.append(PauliTerm(complex(re, im), words[int(rng.integers(0, len(words)))]))
        obs = Observable(n, tuple(terms))
        assert exact_terms(canonicalize(obs)) == exact_terms(reference_canonicalize(obs))
    assert canonicalize(Observable(n, ())).terms == ()


def test_canonicalize_sums_duplicates_in_term_order():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit.
    word = PauliString.from_label("XZ")
    for coeffs in ((0.1, 0.2, 0.3), (0.3, 0.2, 0.1), (1.0, -1.0, 1e-15), (-0.0, 0.0)):
        obs = Observable(2, tuple(PauliTerm(complex(c), word) for c in coeffs))
        assert exact_terms(canonicalize(obs)) == exact_terms(reference_canonicalize(obs))
    negative_zero = Observable(2, (PauliTerm(complex(-0.0, 1.0), word),))
    assert canonicalize(negative_zero).terms[0].coeff.real.hex() == "0x0.0p+0"


def test_canonical_observables_pass_through_canonicalize():
    obs = Observable.from_labels([(0.5, "XZ"), (0.25, "ZZ")])
    assert canonicalize(obs) is obs
    # An equal observable made directly is packed and checked, and equal.
    raw = Observable(2, obs.terms)
    assert canonicalize(raw) is not raw and canonicalize(raw) == obs
    # Terms with duplicate words are packed raw, as given, until canonicalized.
    pairs = [(0.5, PauliString.from_label("XZ")), (0.25, PauliString.from_label("ZZ")),
             (0.125, PauliString.from_label("XZ"))]
    dup = Observable(2, [PauliTerm(c, w) for c, w in pairs])
    assert not dup.canonical and len(dup) == 3 and dup.terms[2].coeff == 0.125
    assert canonicalize(dup) == Observable.from_terms(2, pairs) != dup


def test_observable_state_is_read_only():
    obs = Observable.from_labels([(0.5, "XZ"), (0.25, "ZZ")])
    for array in (obs.x, obs.z, obs.coeffs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(AttributeError):
        obs.coeffs = obs.coeffs.copy()
    with pytest.raises(TypeError, match="unhashable"):
        hash(obs)
    assert [(t.coeff, t.word.label()) for t in obs.terms] == [(0.25, "ZZ"), (0.5, "XZ")]


def adjacency_matrix(adj):
    m = len(adj)
    matrix = np.zeros((m, m), dtype=bool)
    for i, js in enumerate(adj):
        matrix[i, list(js)] = True
    return matrix


@pytest.mark.parametrize("m", [0, 1, 2, 40, _ROW_BLOCK + 1])
@pytest.mark.parametrize("n", [3, 64, 65, 130])
def test_conflict_matrix_and_first_fit_match_the_pair_loops(n, m):
    rng = np.random.default_rng((n, m))
    words = random_words(n, rng, m, letters_on=2)
    obs = Observable(n, tuple(PauliTerm(1.0 + i, w) for i, w in enumerate(words)))
    adj = conflict_adjacency(words)
    conflict = _conflict_matrix(obs)
    assert conflict.shape == (m, m)
    assert np.array_equal(conflict, adjacency_matrix(adj))
    ff = first_fit_colors(words, adj)
    assert _first_fit_colors(conflict, m) == ff
    colors, clique = _dsatur_colors(conflict)
    assert colors == dsatur_colors(words, adj)
    if m:
        needed = max(ff) + 1
        assert _first_fit_colors(conflict, needed) == ff
        assert _first_fit_colors(conflict, needed - 1) is None
        # The opening clique bounds every coloring from below.
        assert 1 <= clique <= min(needed, max(colors) + 1)


# --- the float-keyed DSATUR against its integer-key reference -----------------


def _assert_same_as_int_key(conflict):
    assert _dsatur_colors(conflict) == int_key_dsatur_colors(conflict)


def test_dsatur_matches_the_int_key_on_every_heis19_absorption_grouping(monkeypatch):
    # backprop --qwc-max 200 on the lowered heis19 circuit with Z on the
    # first six qubits, the CI run: every conflict matrix it colors.
    sizes = []

    def checked(conflict):
        sizes.append(len(conflict))
        _assert_same_as_int_key(conflict)
        return dsatur(conflict)

    dsatur = paulis._dsatur_colors
    monkeypatch.setattr(paulis, "_dsatur_colors", checked)
    circuit = heisenberg_trotter(
        list(heavy_hex_19_edges()), HEISENBERG_J, HEISENBERG_H, t=0.2, steps=1)
    result = backpropagate(
        parse_qasm(emit_qasm(lower_rotations(circuit))), first_k_z_observable(19, 6), 200)
    assert result.fully_absorbed
    assert (len(sizes), max(sizes)) == (76, 1200)


def _circulant(m, k):
    # Each vertex is joined to the k nearest on either side: every degree is 2k.
    offsets = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    return (offsets != 0) & ((offsets <= k) | (offsets >= m - k))


def _random_graph(m, p, seed):
    upper = np.triu(np.random.default_rng(seed).random((m, m)) < p, 1)
    return upper | upper.T


def _blocks(m, size):
    # Disjoint cliques of `size` vertices, all of one degree but the last.
    block = np.arange(m) // size
    return (block[:, None] == block[None, :]) & ~np.eye(m, dtype=bool)


@pytest.mark.parametrize("conflict", [
    np.zeros((0, 0), dtype=bool),
    np.zeros((1, 1), dtype=bool),
    np.zeros((30, 30), dtype=bool),
    ~np.eye(40, dtype=bool),
    _circulant(60, 3),
    _circulant(61, 20),
    _blocks(50, 7),
    # The complete bipartite graph K(20, 20): one degree, two colors.
    np.add.outer(np.arange(40) < 20, np.arange(40) >= 20) == 1,
    *(_random_graph(m, p, (m, seed)) for m, p, seed in
      ((2, 0.5, 0), (17, 0.5, 1), (64, 0.1, 2), (100, 0.9, 3), (120, 0.02, 4))),
], ids=lambda c: f"m{len(c)}")
def test_dsatur_matches_the_int_key_on_seeded_graphs(conflict):
    _assert_same_as_int_key(conflict)


def _with_hubs(conflict, count, seed):
    # `count` vertices joined to every other: degree m - 1, the key's largest fraction.
    hubs = np.random.default_rng(seed).choice(len(conflict), count, replace=False)
    conflict = conflict.copy()
    conflict[hubs, :] = conflict[:, hubs] = True
    np.fill_diagonal(conflict, False)
    return conflict


@pytest.mark.parametrize("m", [255, 256, 257, 1023, 1024])
def test_dsatur_matches_the_int_key_where_the_key_fraction_gains_a_bit(m):
    # The degree's fraction 2**-b has b = m.bit_length(), which grows at 256 and 1024.
    _assert_same_as_int_key(_with_hubs(_random_graph(m, 0.05, m), 3, m))
    _assert_same_as_int_key(_circulant(m, 5))
