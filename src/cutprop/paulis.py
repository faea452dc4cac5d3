"""Pauli-word algebra: products, commutation tests, observables, QWC grouping.

Pauli words are stored in symplectic form: two integer bitmasks ``x`` and
``z`` where bit ``i`` describes qubit ``i``:

    (x=0, z=0) -> I    (x=1, z=0) -> X
    (x=0, z=1) -> Z    (x=1, z=1) -> Y

Text rendering puts qubit 0 leftmost, so ``IZX`` means I on qubit 0, Z on
qubit 1 and X on qubit 2.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# |coeff| below this is treated as an exact zero when canonicalizing.
COEFF_TOL = 1e-14

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_MASKS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


class PauliError(ValueError):
    pass


def letter_masks(letters: str, qubits: Iterable[int]) -> tuple[int, int]:
    """The (x, z) masks of Pauli letters (either case) placed on the given qubits."""
    x = z = 0
    for q, ch in zip(qubits, letters):
        try:
            xb, zb = _MASKS[ch.upper()]
        except KeyError:
            raise PauliError(f"invalid Pauli letter {ch!r} in {letters!r}") from None
        x |= xb << q
        z |= zb << q
    return x, z


class _PauliStringFields(NamedTuple):
    n: int
    x: int
    z: int


class PauliString(_PauliStringFields):
    """An n-qubit Pauli word in symplectic (x, z) mask form."""

    __slots__ = ()

    def __new__(cls, n: int, x: int, z: int):
        if n < 0:
            raise PauliError(f"negative qubit count {n}")
        mask = (1 << n) - 1
        if x & ~mask or z & ~mask:
            raise PauliError("mask has bits beyond the qubit count")
        return tuple.__new__(cls, (n, x, z))

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        return cls(len(label), *letter_masks(label, range(len(label))))

    def letter(self, q: int) -> str:
        return _LETTERS[((self.x >> q) & 1, (self.z >> q) & 1)]

    def label(self) -> str:
        return "".join(self.letter(q) for q in range(self.n))


def _check_sizes(p: PauliString, q: PauliString) -> None:
    if p.n != q.n:
        raise PauliError(f"size mismatch: {p.n} vs {q.n} qubits")


def multiply(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """Operator product p*q as (phase, word) with phase in {1, i, -1, -i}."""
    _check_sizes(p, q)
    mask = (1 << p.n) - 1
    nxp, nzp = mask ^ p.x, mask ^ p.z
    nxq, nzq = mask ^ q.x, mask ^ q.z
    # Positions contributing +i: XY, YZ, ZX (cyclic); -i: YX, ZY, XZ.
    cyc = (p.x & nzp & q.x & q.z) | (p.x & p.z & nxq & q.z) | (nxp & p.z & q.x & nzq)
    anti = (p.x & p.z & q.x & nzq) | (nxp & p.z & q.x & q.z) | (p.x & nzp & nxq & q.z)
    exp = (cyc.bit_count() - anti.bit_count()) % 4
    return _PHASES[exp], PauliString(p.n, p.x ^ q.x, p.z ^ q.z)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the symplectic inner product of p and q is even."""
    _check_sizes(p, q)
    return ((p.x & q.z) ^ (p.z & q.x)).bit_count() % 2 == 0


class PauliTerm(NamedTuple):
    coeff: complex
    word: PauliString


def _limbs(n: int) -> int:
    return max(1, -(-n // 64))


def _pack_masks(masks: Sequence[int], limbs: int) -> np.ndarray:
    """Bitmasks as an (m, limbs) uint64 array, qubit 64*k + b at bit b of limb k."""
    raw = b"".join(v.to_bytes(8 * limbs, "little") for v in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), limbs).astype(np.uint64, copy=False)


def _mask_ints(packed: np.ndarray) -> list[int]:
    """The inverse of ``_pack_masks``: one Python int per row."""
    values = packed[:, 0].tolist()
    for k in range(1, packed.shape[1]):
        values = [v | w << 64 * k for v, w in zip(values, packed[:, k].tolist())]
    return values


def _magnitudes(coeffs: np.ndarray) -> np.ndarray:
    """|coeff| per row, rounded as Python's ``abs(complex)`` (``np.abs`` is not)."""
    return np.hypot(coeffs.real, coeffs.imag)


class Observable:
    """A sum of weighted Pauli words over a fixed qubit count, held as arrays.

    ``x`` and ``z`` are read-only (m, limbs) uint64 masks, qubit 64*k + b at
    bit b of limb k, and ``coeffs`` the read-only (m,) complex128
    coefficients, one row per term. ``canonical`` is True when the rows are
    known to be canonical: sorted by mask, duplicate words merged, near-zero
    rows dropped, no negative-zero coefficient part. Everything in this
    package that returns observables returns canonical ones;
    ``Observable(n, terms)`` packs the given terms as they are, not
    canonical. ``terms`` builds the term objects on first use. ``==``
    compares ``n`` and the rows; observables are not hashable.
    """

    __hash__ = None

    def __init__(self, n: int, terms: Iterable[PauliTerm]):
        terms = tuple(terms)
        self._set(n, *_pack(n, [t.coeff for t in terms], [t.word for t in terms]), False)

    def _set(self, n: int, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray, canonical: bool):
        for array in (x, z, coeffs):
            array.flags.writeable = False
        self.__dict__.update(n=n, x=x, z=z, coeffs=coeffs, canonical=canonical)

    def __setattr__(self, name, value):
        raise AttributeError(f"Observable is immutable: cannot set {name!r}")

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple[complex, PauliString]]) -> "Observable":
        coeffs, words = [], []
        for c, w in terms:
            c = complex(c)
            if not cmath.isfinite(c):
                raise PauliError(f"non-finite coefficient {c} on {w.label()}")
            coeffs.append(c)
            words.append(w)
        # Merged duplicates and the 1-norm may overflow; that is an input error,
        # not a warning.
        with np.errstate(over="ignore"):
            obs = canonicalize(_from_rows(n, *_pack(n, coeffs, words), False))
            norm = _magnitudes(obs.coeffs).sum()
        if not math.isfinite(norm):
            raise PauliError("the coefficients' 1-norm overflows to a non-finite number")
        return obs

    @classmethod
    def from_labels(cls, pairs: Iterable[tuple[complex, str]]) -> "Observable":
        terms = [(c, PauliString.from_label(s)) for c, s in pairs]
        if not terms:
            raise PauliError("cannot infer qubit count from an empty label list")
        return cls.from_terms(terms[0][1].n, terms)

    @cached_property
    def terms(self) -> tuple[PauliTerm, ...]:
        n = self.n
        return tuple(PauliTerm(c, PauliString(n, x, z)) for c, x, z in
                     zip(self.coeffs.tolist(), _mask_ints(self.x), _mask_ints(self.z)))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(a, b) for a, b in
            ((self.x, other.x), (self.z, other.z), (self.coeffs, other.coeffs)))

    def __repr__(self) -> str:
        return f"Observable(n={self.n}, terms={self.terms!r})"


def _pack(n: int, coeffs: Sequence[complex], words: Sequence[PauliString]) -> tuple:
    """The (x, z, coeffs) rows of these terms, in the order given."""
    if any(w.n != n for w in words):
        raise PauliError("term width differs from observable width")
    limbs = _limbs(n)
    return (_pack_masks([w.x for w in words], limbs), _pack_masks([w.z for w in words], limbs),
            np.array(coeffs, dtype=np.complex128))


def _from_rows(n: int, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray,
               canonical: bool) -> Observable:
    """The Observable of these rows; the arrays become its read-only state."""
    obs = Observable.__new__(Observable)
    obs._set(n, x, z, coeffs, canonical)
    return obs


def merge_rows(x: np.ndarray, z: np.ndarray, coeffs: np.ndarray):
    """Canonical rows: sorted by (x, z), duplicates summed, |coeff| < 1e-14 dropped.

    Duplicates are summed in row order starting from 0j, so each sum rounds
    exactly as a left-to-right Python sum does. Returns the new (x, z,
    coeffs).
    """
    m = len(coeffs)
    # lexsort's last key is its primary one: x's top limb first, z's bottom last.
    order = np.lexsort((*z.T, *x.T))
    xs, zs = x[order], z[order]
    first = np.ones(m, dtype=bool)
    np.any((xs[1:] != xs[:-1]) | (zs[1:] != zs[:-1]), axis=1, out=first[1:])
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    sums = np.zeros(len(starts), dtype=np.complex128)
    np.add.at(sums, inverse, coeffs)
    keep = _magnitudes(sums) >= COEFF_TOL
    rows = order[starts][keep]
    return x[rows], z[rows], sums[keep]


def canonicalize(obs: Observable) -> Observable:
    """Sort terms, merge duplicate words, drop terms with |coeff| < 1e-14.

    An observable already known to be canonical is returned as it is.
    """
    if obs.canonical:
        return obs
    return _from_rows(obs.n, *merge_rows(obs.x, obs.z, obs.coeffs), True)


def _bits(masks: np.ndarray, n: int) -> np.ndarray:
    """The (m, n) uint8 bits of (m, limbs) uint64 masks, qubit q in column q."""
    raw = masks.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :n]


# Rows of the conflict matrix computed at once: the product's temporaries
# are _ROW_BLOCK x m float32.
_ROW_BLOCK = 256


def _conflict_matrix(obs: Observable) -> np.ndarray:
    """Boolean m x m matrix, True where two terms do not commute qubit-wise.

    A = [X | Y | Z] holds each term's one-hot letters per qubit and
    B = [z | x^z | x] its support minus each letter (S - X = z, S - Y =
    x^z, S - Z = x), so (A B^T)_ij counts the qubits where terms i and j
    both act with different letters: one float32 product per block of
    rows. Every entry is an integer of at most n, so float32 holds it
    exactly.
    """
    x, z = _bits(obs.x, obs.n), _bits(obs.z, obs.n)
    a = np.concatenate((x > z, x & z, z > x), axis=1, dtype=np.float32)
    b = np.concatenate((z, x ^ z, x), axis=1, dtype=np.float32)
    m = len(a)
    conflict = np.empty((m, m), dtype=bool)
    for start in range(0, m, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        np.greater(a[rows] @ b.T, 0.5, out=conflict[rows])
    return conflict


def _dsatur_colors(conflict: np.ndarray) -> tuple[list[int], int]:
    """Color vertices in DSATUR order, each with the smallest color no colored neighbor has.

    The turn order is highest saturation (distinct neighbor colors), then
    highest degree, then lowest index: one argmax over the float64 key
    ``saturation + degree * 2**-b`` with 2**b > m, as the degree is below m
    and ``np.argmax`` returns the first maximum. Every key is a multiple of
    2**-b below 2**b, so each raise by 1.0 is exact while m < 2**26, far
    beyond an m x m matrix in memory. A colored vertex's key is -inf. A turn
    that opens a new color raises every neighbor; only a turn that reuses a
    color compares the row with that color's neighbors. Returns the colors
    and the length of the opening run of turns that each open a new color:
    those vertices form a clique, so no coloring uses fewer colors than that.
    """
    m = len(conflict)
    # used[c, v]: some colored neighbor of v has color c.
    used = np.zeros((m, m), dtype=bool)
    colors = [0] * m
    key = conflict.sum(axis=1) / (1 << m.bit_length())
    raised = np.empty(m, dtype=bool)
    ncolors = clique = 0
    for turn in range(m):
        v = key.argmax()
        c = int(used[: ncolors + 1, v].argmin())
        colors[v] = c
        key[v] = -np.inf
        neighbors, row = conflict[v], used[c]
        if c == ncolors:
            # No vertex has color c yet, so every neighbor's saturation rises.
            # Turn t can take color t only if every earlier turn opened a color.
            clique += c == turn
            ncolors += 1
            key += neighbors
        else:
            # Saturation rises for the neighbors that had no neighbor of color c.
            np.greater(neighbors, row, out=raised)
            key += raised
        row |= neighbors
    return colors, clique


def _first_fit_colors(conflict: np.ndarray, max_colors: int) -> list[int] | None:
    """First-fit in index order, or None if it needs more than ``max_colors``.

    Built one color class at a time over int bitsets of the conflict rows:
    class c takes, in index order, every uncolored vertex with no neighbor
    already in class c, which is the vertex set first-fit gives color c.
    """
    m = len(conflict)
    packed = np.packbits(conflict, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    rows = [int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(m)]
    colors = [0] * m
    left = (1 << m) - 1
    c = 0
    while left:
        if c == max_colors:
            return None
        free = left
        while free:
            low = free & -free
            v = low.bit_length() - 1
            colors[v] = c
            left ^= low
            free &= ~(rows[v] | low)
        c += 1
    return colors


def group_qwc(obs: Observable) -> tuple[tuple[int, ...], ...]:
    """Group term indices into qubit-wise-commuting sets via saturation coloring.

    Builds the QWC-conflict matrix from the observable's x and z arrays
    (uint64 limbs of 64 qubits, so any width works), unpacked to one-hot
    letters and multiplied in float32, a block of rows at a time, and
    colors it with DSATUR: highest saturation, then highest degree, then
    row order. It falls back to greedy first-fit in row order on the same
    matrix if that uses fewer colors, so the result never exceeds the
    first-fit group count; first-fit stops as soon as it cannot, and is
    not run at all when DSATUR's opening turns, each a new color, form a
    clique as large as its count. DSATUR loses to first-fit on some inputs
    (see ``test_grouping_falls_back_to_first_fit``). Memory is O(m^2) bytes
    for m terms: the boolean conflict matrix, its bit-packed rows and a
    boolean used-color table, plus two m x 3n float32 letter matrices and
    a ``_ROW_BLOCK`` x m float32 product.
    """
    if not len(obs):
        return ()
    conflict = _conflict_matrix(obs)
    colors, clique = _dsatur_colors(conflict)
    ncolors = max(colors) + 1
    # A clique as large as DSATUR's count proves that no coloring is smaller.
    ff = _first_fit_colors(conflict, ncolors - 1) if clique < ncolors else None
    if ff is not None:
        colors, ncolors = ff, max(ff) + 1
    groups: list[list[int]] = [[] for _ in range(ncolors)]
    for i, c in enumerate(colors):
        groups[c].append(i)
    # Present groups in order of their smallest member for determinism.
    return tuple(sorted((tuple(g) for g in groups), key=lambda g: g[0]))


def measurement_groups(obs: Observable) -> int:
    """The QWC groups that measure obs: ``group_qwc``'s count, and one for an empty observable."""
    return len(group_qwc(obs)) if len(obs) else 1


def parse_observable(text: str) -> Observable:
    """Parse the one-term-per-line observable format.

    Each line is ``<real-coeff> <pauli-word>`` with the leftmost letter on
    qubit 0; ``#`` starts a comment and blank lines are skipped.
    """
    pairs: list[tuple[complex, str]] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise PauliError(f"line {lineno}: expected '<coeff> <word>', got {raw!r}")
        try:
            coeff = float(fields[0])
        except ValueError:
            raise PauliError(f"line {lineno}: bad coefficient {fields[0]!r}") from None
        if not math.isfinite(coeff):
            raise PauliError(f"line {lineno}: non-finite coefficient {fields[0]!r}")
        word = fields[1].upper()
        if width is None:
            width = len(word)
        elif len(word) != width:
            raise PauliError(f"line {lineno}: word length {len(word)} != {width}")
        pairs.append((coeff, word))
    if width is None:
        raise PauliError("no terms found in observable text")
    return Observable.from_labels(pairs)


def format_observable(obs: Observable) -> str:
    """Render an observable in the text format (requires real coefficients)."""
    coeffs = obs.coeffs
    bad = np.flatnonzero(np.abs(coeffs.imag) > 1e-12)
    if len(bad):
        raise PauliError(f"non-real coefficient {coeffs[bad[0]].item()} cannot be formatted")
    letters = np.frombuffer(b"IZXY", dtype=np.uint8)
    labels = letters[2 * _bits(obs.x, obs.n) + _bits(obs.z, obs.n)].tobytes().decode()
    n = obs.n
    lines = [f"{c!r} {labels[i * n : (i + 1) * n]}" for i, c in enumerate(coeffs.real.tolist())]
    return "\n".join(lines) + ("\n" if lines else "")
