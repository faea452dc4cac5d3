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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# |coeff| below this is treated as an exact zero when canonicalizing.
COEFF_TOL = 1e-14

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_MASKS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


class PauliError(ValueError):
    pass


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli word in symplectic (x, z) mask form."""

    n: int
    x: int
    z: int

    def __post_init__(self):
        if self.n < 0:
            raise PauliError(f"negative qubit count {self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise PauliError("mask has bits beyond the qubit count")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        x = z = 0
        for q, ch in enumerate(label):
            try:
                xb, zb = _MASKS[ch.upper()]
            except KeyError:
                raise PauliError(f"invalid Pauli letter {ch!r} in {label!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(label), x, z)

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


@dataclass(frozen=True)
class PauliTerm:
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
        return canonicalize(_from_rows(n, *_pack(n, coeffs, words), False))

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


@dataclass(frozen=True)
class QwcGrouping:
    """A partition of term indices into qubit-wise-commuting groups."""

    groups: tuple[tuple[int, ...], ...]

    @property
    def group_count(self) -> int:
        return len(self.groups)


# Rows of the conflict matrix computed at once: a limb's temporaries are
# _ROW_BLOCK x m uint64.
_ROW_BLOCK = 256


def _conflict_matrix(obs: Observable) -> np.ndarray:
    """Boolean m x m matrix, True where two terms do not commute qubit-wise."""
    x, z = obs.x, obs.z
    s = x | z
    m, limbs = x.shape
    conflict = np.zeros((m, m), dtype=bool)
    for start in range(0, m, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = conflict[rows]
        for k in range(limbs):
            xk, zk, sk = x[:, k], z[:, k], s[:, k]
            differ = xk[rows, None] ^ xk[None, :]
            differ |= zk[rows, None] ^ zk[None, :]
            differ &= sk[rows, None] & sk[None, :]
            block |= differ != 0
    return conflict


def _dsatur_colors(conflict: np.ndarray) -> list[int]:
    """Color vertices in DSATUR order, each with the smallest color no colored neighbor has.

    The turn order is highest saturation (distinct neighbor colors), then
    highest degree, then lowest index: one argmax over
    ``saturation * (m + 1) + degree``, as the degree is below m + 1 and
    ``np.argmax`` returns the first maximum.
    """
    m = len(conflict)
    # used[c, v]: some colored neighbor of v has color c.
    used = np.zeros((m, m), dtype=bool)
    colors = [0] * m
    key = conflict.sum(axis=1, dtype=np.int64)
    # A colored vertex's key gains at most (m - 1) * (m + 1) more, so it stays
    # below every uncolored key (>= 0).
    colored = -m * (m + 1)
    ncolors = 0
    for _ in range(m):
        v = int(key.argmax())
        c = int(used[: ncolors + 1, v].argmin())
        colors[v] = c
        ncolors = max(ncolors, c + 1)
        neighbors = conflict[v]
        key[v] = colored
        # Saturation rises for the neighbors that had no neighbor of color c.
        np.add(key, m + 1, out=key, where=neighbors > used[c])
        used[c] |= neighbors
    return colors


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


def group_qwc(obs: Observable) -> QwcGrouping:
    """Group terms into qubit-wise-commuting sets via saturation coloring.

    Builds the QWC-conflict matrix with numpy from the observable's x and z
    arrays (uint64 limbs of 64 qubits, so any width works), a block of rows
    at a time, and colors it with DSATUR: highest saturation, then highest
    degree, then row order. It falls back to greedy first-fit in row order
    on the same matrix if that uses fewer colors, so the result never
    exceeds the first-fit group count; first-fit stops as soon as it
    cannot. DSATUR loses to first-fit on some inputs (see
    ``test_grouping_falls_back_to_first_fit``). Memory is O(m^2) bytes for
    m terms: the boolean conflict matrix, its bit-packed rows and a boolean
    used-color table, plus, per limb, a few uint64 temporaries of
    ``_ROW_BLOCK`` x m.
    """
    if not len(obs):
        return QwcGrouping(())
    conflict = _conflict_matrix(obs)
    colors = _dsatur_colors(conflict)
    ncolors = max(colors) + 1
    ff = _first_fit_colors(conflict, ncolors - 1)
    if ff is not None:
        colors, ncolors = ff, max(ff) + 1
    groups: list[list[int]] = [[] for _ in range(ncolors)]
    for i, c in enumerate(colors):
        groups[c].append(i)
    # Present groups in order of their smallest member for determinism.
    ordered = sorted((tuple(g) for g in groups), key=lambda g: g[0])
    return QwcGrouping(tuple(ordered))


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
    lines = []
    for t in obs.terms:
        if abs(t.coeff.imag) > 1e-12:
            raise PauliError(f"non-real coefficient {t.coeff} cannot be formatted")
        lines.append(f"{t.coeff.real!r} {t.word.label()}")
    return "\n".join(lines) + ("\n" if lines else "")
