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


def qubitwise_commutes(p: PauliString, q: PauliString) -> bool:
    """True iff at every qubit the letters are equal or at least one is I."""
    _check_sizes(p, q)
    conflict = (p.x | p.z) & (q.x | q.z) & ((p.x ^ q.x) | (p.z ^ q.z))
    return conflict == 0


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

    def max_imag(self) -> float:
        return max((abs(t.coeff.imag) for t in self.terms), default=0.0)


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


def _conflict_adjacency(words: Sequence[PauliString]) -> list[set[int]]:
    m = len(words)
    adj: list[set[int]] = [set() for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if not qubitwise_commutes(words[i], words[j]):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def _first_fit_colors(words: Sequence[PauliString], adj: list[set[int]]) -> list[int]:
    colors = [-1] * len(words)
    for i in range(len(words)):
        used = {colors[j] for j in adj[i] if colors[j] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return colors


def _dsatur_colors(words: Sequence[PauliString], adj: list[set[int]]) -> list[int]:
    m = len(words)
    colors = [-1] * m
    degrees = [len(adj[i]) for i in range(m)]
    saturation: list[set[int]] = [set() for _ in range(m)]
    for _ in range(m):
        # Highest saturation, then highest degree, then canonical term order.
        best = min(
            (i for i in range(m) if colors[i] < 0),
            key=lambda i: (-len(saturation[i]), -degrees[i], i),
        )
        used = saturation[best]
        c = 0
        while c in used:
            c += 1
        colors[best] = c
        for j in adj[best]:
            saturation[j].add(c)
    return colors


def group_qwc(obs: Observable) -> QwcGrouping:
    """Group terms into qubit-wise-commuting sets via saturation coloring.

    Colors the QWC-conflict graph with DSATUR (ties broken by canonical
    term order) and falls back to greedy first-fit if that ever uses fewer
    colors, so the result never exceeds the first-fit group count.
    """
    words = obs.words()
    if not words:
        return QwcGrouping(())
    adj = _conflict_adjacency(words)
    colors = _dsatur_colors(words, adj)
    ff = _first_fit_colors(words, adj)
    if max(ff) < max(colors):
        colors = ff
    ngroups = max(colors) + 1
    groups: list[list[int]] = [[] for _ in range(ngroups)]
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


def format_observable(obs: Observable, imag_tol: float = 1e-12) -> str:
    """Render an observable in the text format (requires real coefficients)."""
    lines = []
    for t in obs.terms:
        if abs(t.coeff.imag) > imag_tol:
            raise PauliError(f"non-real coefficient {t.coeff} cannot be formatted")
        lines.append(f"{t.coeff.real!r} {t.word.label()}")
    return "\n".join(lines) + ("\n" if lines else "")
