"""Independent dense check for backprop reports.

A backprop report is correct when the evolved observable on the reduced
circuit has the same expectation on |0...0> as the original observable on
the whole circuit. This module simulates the QASM subset with its own
kernels, so the check does not rest on the simulator it would be judging.
Qubit q is bit q of the amplitude index; the leftmost letter of a Pauli word
acts on qubit 0.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)
_1Q = {
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex),
}
_GATE = re.compile(r"^(\w+)(?:\(([^)]*)\))?\s+(.*)$")
_ARG = re.compile(r"q\[(\d+)\]")


def read_qasm(text: str) -> tuple[int, list[tuple[str, float, tuple[int, ...]]]]:
    """Width and gates of the QASM that cutprop's emit_qasm writes."""
    n = 0
    gates = []
    for stmt in filter(None, (s.strip() for s in text.replace("\n", " ").split(";"))):
        if stmt.startswith(("OPENQASM", "include")):
            continue
        if stmt.startswith("qreg"):
            n = int(_ARG.search(stmt).group(1))
            continue
        m = _GATE.match(stmt)
        if m is None:
            raise ValueError(f"unexpected QASM statement {stmt!r}")
        angle = float(m.group(2)) if m.group(2) else 0.0
        gates.append((m.group(1), angle, tuple(int(q) for q in _ARG.findall(m.group(3)))))
    return n, gates


def apply(state: np.ndarray, n: int, gate: tuple[str, float, tuple[int, ...]]) -> np.ndarray:
    kind, angle, qubits = gate
    if kind in ("cx", "cz"):
        c, t = qubits
        psi = state.reshape([2] * n)  # axis n-1-q holds qubit q
        ac, at = n - 1 - c, n - 1 - t
        sel = [slice(None)] * n
        sel[ac] = 1
        if kind == "cx":
            block = psi[tuple(sel)]
            t_axis = at if at < ac else at - 1
            psi[tuple(sel)] = np.flip(block, axis=t_axis).copy()
        else:
            sel[at] = 1
            psi[tuple(sel)] *= -1
        return state
    if kind == "rz":
        u = np.array([[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]])
    else:
        u = _1Q[kind]
    (q,) = qubits
    psi = state.reshape(1 << (n - q - 1), 2, 1 << q)
    a0, a1 = psi[:, 0, :], psi[:, 1, :]  # views into state
    # Real scalars multiply complex arrays faster than complex ones.
    u00, u01, u10, u11 = (complex(v).real if v.imag == 0 else complex(v) for v in u.flat)
    if u01 == 0 and u10 == 0:
        a0 *= u00
        a1 *= u11
        return state
    new0 = u00 * a0 + u01 * a1
    a1 *= u11
    a1 += u10 * a0
    a0[...] = new0
    return state


def read_observable(text: str) -> list[tuple[float, int, int]]:
    """(coefficient, x mask, z mask) per line of the observable text format."""
    terms = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        coeff, word = line.split()
        x = z = 0
        for q, letter in enumerate(word.upper()):
            if letter in "XY":
                x |= 1 << q
            if letter in "ZY":
                z |= 1 << q
        terms.append((float(coeff), x, z))
    return terms


def expectation(state: np.ndarray, terms: list[tuple[float, int, int]]) -> float:
    """<psi|O|psi>, using P|b> = i^#Y (-1)^popcount(b & z) |b ^ x>."""
    idx = np.arange(state.size, dtype=np.int64)
    by_x: defaultdict[int, list] = defaultdict(list)
    for coeff, x, z in terms:
        by_x[x].append((coeff, z, (x & z).bit_count()))
    total = 0j
    for x, items in by_x.items():
        src = idx ^ x
        overlap = state.conj() * state[src]
        if not overlap.any():
            continue
        for coeff, z, ys in items:
            signs = 1 - 2 * (np.bitwise_count(src & z) & 1).astype(np.int8)
            total += coeff * (1j) ** ys * np.dot(overlap, signs)
    return float(total.real)


def backprop_deltas(circuit_text: str, cases: list[tuple[str, dict]]) -> list[float]:
    """|<O_evolved>_reduced - <O>_full| per (observable text, backprop report).

    All cases share one circuit, so a single sweep records the state at
    every reduced-circuit boundary.
    """
    n, gates = read_qasm(circuit_text)
    cuts = {report["results"]["reduced_gate_count"] for _, report in cases}
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    at_cut = {}
    for t, gate in enumerate(gates):
        if t in cuts:
            at_cut[t] = state.copy()
        state = apply(state, n, gate)
    at_cut[len(gates)] = state
    deltas = []
    for observable_text, report in cases:
        results = report["results"]
        exact = expectation(state, read_observable(observable_text))
        evolved = read_observable(results["evolved_observable"])
        deltas.append(abs(expectation(at_cut[results["reduced_gate_count"]], evolved) - exact))
    return deltas
