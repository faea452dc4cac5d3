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

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    def letter(self, q: int) -> str:
        return _LETTERS[((self.x >> q) & 1, (self.z >> q) & 1)]

    def label(self) -> str:
        return "".join(self.letter(q) for q in range(self.n))

    def __str__(self) -> str:
        return self.label()

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def support(self) -> tuple[int, ...]:
        occ = self.x | self.z
        return tuple(q for q in range(self.n) if (occ >> q) & 1)

    def sort_key(self) -> tuple[int, int]:
        return (self.x, self.z)


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


@dataclass(frozen=True)
class Observable:
    """A sum of weighted Pauli words over a fixed qubit count.

    Instances produced by :func:`canonicalize` (and everything in this
    package that returns observables) are canonical: terms sorted by mask,
    duplicate words merged, and near-zero coefficients dropped.
    """

    n: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.word.n != self.n:
                raise PauliError("term width differs from observable width")

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple[complex, PauliString]]) -> "Observable":
        terms = tuple(PauliTerm(complex(c), w) for c, w in terms)
        for t in terms:
            if not cmath.isfinite(t.coeff):
                raise PauliError(f"non-finite coefficient {t.coeff} on {t.word.label()}")
        return canonicalize(cls(n, terms))

    @classmethod
    def from_labels(cls, pairs: Iterable[tuple[complex, str]]) -> "Observable":
        terms = [(c, PauliString.from_label(s)) for c, s in pairs]
        if not terms:
            raise PauliError("cannot infer qubit count from an empty label list")
        return cls.from_terms(terms[0][1].n, terms)

    def __len__(self) -> int:
        return len(self.terms)

    def words(self) -> tuple[PauliString, ...]:
        return tuple(t.word for t in self.terms)


def canonicalize(obs: Observable) -> Observable:
    """Sort terms, merge duplicate words, drop terms with |coeff| < 1e-14."""
    acc: dict[tuple[int, int], complex] = {}
    for t in obs.terms:
        key = (t.word.x, t.word.z)
        acc[key] = acc.get(key, 0j) + complex(t.coeff)
    terms = tuple(
        PauliTerm(c, PauliString(obs.n, x, z))
        for (x, z), c in sorted(acc.items())
        if abs(c) >= COEFF_TOL
    )
    return Observable(obs.n, terms)


@dataclass(frozen=True)
class QwcGrouping:
    """A partition of term indices into qubit-wise-commuting groups."""

    groups: tuple[tuple[int, ...], ...]

    @property
    def group_count(self) -> int:
        return len(self.groups)


def _packed(masks: Sequence[int], limbs: int) -> np.ndarray:
    """Bitmasks as an (m, limbs) uint64 array, qubit 64*k + b at bit b of limb k."""
    raw = b"".join(v.to_bytes(8 * limbs, "little") for v in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), limbs)


def _conflict_matrix(obs: Observable) -> np.ndarray:
    """Boolean m x m matrix, True where two terms do not commute qubit-wise."""
    limbs = max(1, -(-obs.n // 64))
    x = _packed([t.word.x for t in obs.terms], limbs)
    z = _packed([t.word.z for t in obs.terms], limbs)
    s = x | z
    m = len(obs.terms)
    conflict = np.zeros((m, m), dtype=bool)
    for k in range(limbs):
        xk, zk, sk = x[:, k], z[:, k], s[:, k]
        differ = xk[:, None] ^ xk[None, :]
        differ |= zk[:, None] ^ zk[None, :]
        differ &= sk[:, None] & sk[None, :]
        conflict |= differ != 0
    return conflict


def _greedy_colors(conflict: np.ndarray, dsatur: bool) -> np.ndarray:
    """Give each vertex in turn the smallest color no colored neighbor has.

    The turn order is index order (first-fit) or, with ``dsatur``, highest
    saturation (distinct neighbor colors), then highest degree, then lowest
    index: one argmax over ``saturation * (m + 1) + degree``, as the degree
    is below m + 1 and ``np.argmax`` returns the first maximum.
    """
    m = len(conflict)
    # used[c, v]: some colored neighbor of v has color c.
    used = np.zeros((m, m), dtype=bool)
    colors = np.empty(m, dtype=np.intp)
    key = conflict.sum(axis=1, dtype=np.int64)
    # A colored vertex's key gains at most (m - 1) * (m + 1) more, so it stays
    # below every uncolored key (>= 0).
    colored = -m * (m + 1)
    ncolors = 0
    for step in range(m):
        v = int(key.argmax()) if dsatur else step
        c = int(used[: ncolors + 1, v].argmin())
        colors[v] = c
        ncolors = max(ncolors, c + 1)
        neighbors = conflict[v]
        if dsatur:
            key[v] = colored
            key += (neighbors & ~used[c]) * (m + 1)
        used[c] |= neighbors
    return colors


def group_qwc(obs: Observable) -> QwcGrouping:
    """Group terms into qubit-wise-commuting sets via saturation coloring.

    Builds the QWC-conflict matrix with numpy (x and z masks packed into
    uint64 limbs of 64 qubits, so any width works) and colors it with
    DSATUR: highest saturation, then highest degree, then canonical term
    order. It falls back to greedy first-fit on the same matrix if that
    uses fewer colors, so the result never exceeds the first-fit group
    count. Memory is O(m^2) bytes for m terms: the boolean conflict matrix,
    a boolean used-color table and, per limb, a few uint64 m x m temporaries.
    """
    if not obs.terms:
        return QwcGrouping(())
    conflict = _conflict_matrix(obs)
    colors = _greedy_colors(conflict, dsatur=True)
    ff = _greedy_colors(conflict, dsatur=False)
    if ff.max() < colors.max():
        colors = ff
    groups: list[list[int]] = [[] for _ in range(colors.max() + 1)]
    for i, c in enumerate(colors.tolist()):
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


def format_observable(obs: Observable, imag_tol: float = 1e-12) -> str:
    """Render an observable in the text format (requires real coefficients)."""
    lines = []
    for t in obs.terms:
        if abs(t.coeff.imag) > imag_tol:
            raise PauliError(f"non-real coefficient {t.coeff} cannot be formatted")
        lines.append(f"{t.coeff.real!r} {t.word.label()}")
    return "\n".join(lines) + ("\n" if lines else "")
