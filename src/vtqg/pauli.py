"""Pauli-string means of a state, each one signed sum over a gather of the state's x-diagonal; Pauli noise on columns.

A Pauli string with x mask x (its X and Y letters), z mask z (its Z and Y
letters) and n_Y letters Y maps a basis state to
P|c> = i^n_Y (-1)^|c & z| |c ^ x>, the x/z form of Aaronson & Gottesman
(PRA 70, 052328 (2004)).  So <P> = Re sum_c i^n_Y (-1)^|c & z| A[c, c ^ x],
where A is a density matrix, or psi psi^dag for a statevector (psi[c]
conj(psi[c ^ x])).  `means` reads every string of a call by that sum, with no
marginal: strings with one x mask share one gather of A's entries (c, c ^ x),
and each string's signed sum is one fixed-shape matrix product, so its value
is the same, bit for bit, whichever strings it is read with.

Qubit 0 is the most significant bit of a basis index, as in `sim`.  Every
table is the product of a table on the high half of the index bits and one
on the low half, so the tables of a read are about 2^(n/2) entries per string
and per mask, not 2^n.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# A string's x mask has a 1 for each X or Y letter, its z mask for each Z or Y.
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
# Re(i^m s) = (Re s, Im s) . _PARTS[m], m the number of Y letters mod 4
_PARTS = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.0, 1.0]])
# Entries a read's gather, or any array it makes, may hold: the shot sampler's block budget (2^20 amplitudes).
_READ_AMPLITUDES = 1 << 20
_READ_BLOCK = 32  # distinct strings per compiled reader, which keeps its tables under 1 MiB up to 16 qubits


class _Chunk(NamedTuple):
    """Tables of the strings one gather serves: g distinct x masks, each with up to k strings in a row each.

    A basis index c is split into its high bits h and low bits l: `rows +
    cols` is the flat index of each (mask, h, l) entry read, and the sign
    (-1)^|c & z| of a row's string is `high` (g, k, 1, 2^hb) on h times its
    sign on l.  A mask with fewer than k strings fills its other rows with
    zero signs.  `low` (g*k, 2^(lb+1)) holds each row's sign on l times
    i^n_Y, as the pair (Re, -Im) for each l, so its dot with the row's
    (Re, Im) pairs is the real part of the string's sum.  `slots` is each
    row's place in the block (one past its end for a zero row).
    """

    rows: np.ndarray
    cols: np.ndarray
    high: np.ndarray
    low: np.ndarray
    slots: np.ndarray


def _parity(v: np.ndarray) -> np.ndarray:
    """The parity of each integer's set bits (below 2^32), by XOR folding."""
    for shift in (16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


@functools.lru_cache(maxsize=64)
def _code_tables(qubits: tuple, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each code's x mask and phase at each b, and each row's bits b on `qubits` of n wires; shared, not to be written.

    Code c puts letter (c >> 2k) & 3 (I X Y Z) on qubit k, bit k of b; its phase at b is i^n_Y (-1)^|(b ^ x) & z|.
    """
    k = np.arange(len(qubits))
    letter, bit = (np.arange(4 ** len(qubits))[:, None] >> 2 * k) & 3, 1 << (n - 1 - np.array(qubits))  # [code, k]
    x, z, bits = (letter == 1) | (letter == 2), letter >= 2, (np.arange(2 ** len(qubits))[:, None] >> k) & 1
    power = (x & z).sum(1)[:, None] + 2 * ((bits ^ x[:, None]) & z[:, None]).sum(2)  # [code, b]
    return (x * bit).sum(1), np.array([1, 1j, -1, -1j])[power % 4], (np.arange(2 ** n)[:, None] & bit > 0) @ (1 << k)


def apply_codes(psi: np.ndarray, qubits, codes: np.ndarray) -> np.ndarray:
    """Column j of a block [2]*n + [columns] times the Pauli of code codes[j]: row c reads row c ^ x, times a phase."""
    x, phase, local = _code_tables(tuple(qubits), psi.ndim - 1)
    source = np.arange(len(local))[:, None] ^ x[codes]  # [row, column]
    return (np.take_along_axis(psi.reshape(len(local), -1), source, 0) * phase[codes][:, local].T).reshape(psi.shape)


@functools.lru_cache(maxsize=256)
def _reader(strings: tuple[str, ...], n: int, density: bool) -> tuple[_Chunk, ...]:
    """The chunks that read `strings` (at most _READ_BLOCK) on an n-qubit state; cached and shared, not to be written.

    Strings with one x mask share its gather.  Masks are taken in order of
    falling string count, and a chunk takes the next mask while its rows
    (masks * k) stay within _READ_AMPLITUDES >> n, so that its gather and
    every array its read makes hold at most 2^20 entries, and within twice
    its strings, so that zero rows cost at most as much as the strings.
    """
    hb = n // 2
    lb = n - hb
    high, low = np.arange(1 << hb), np.arange(1 << lb)
    x = np.array([int("0" + s.translate(_X_BITS), 2) for s in strings] + [0])  # a zero row reads as I
    z = np.array([int("0" + s.translate(_Z_BITS), 2) for s in strings] + [0])
    n_y = np.array([s.count("Y") for s in strings] + [0])
    per_mask = max(1, _READ_AMPLITUDES >> n)
    shares: dict[int, list[int]] = {}
    for i, xi in enumerate(x[:-1].tolist()):
        shares.setdefault(xi, []).append(i)
    groups = sorted((members[start:start + per_mask] for members in shares.values()
                     for start in range(0, len(members), per_mask)), key=len, reverse=True)
    chunks, start = [], 0
    while start < len(groups):
        k, stop, used = len(groups[start]), start + 1, len(groups[start])
        while stop < len(groups) and (stop + 1 - start) * k <= min(per_mask, 2 * (used + len(groups[stop]))):
            used, stop = used + len(groups[stop]), stop + 1
        slots = np.full((stop - start, k), len(strings))
        for row, members in zip(slots, groups[start:stop]):
            row[:len(members)] = members
        start = stop
        xs, zs, flat = x[slots[:, 0], None], z[slots.reshape(-1), None], slots.reshape(-1)
        rows, cols = (high ^ (xs >> lb)) << lb, low ^ (xs & ((1 << lb) - 1))
        if density:  # entry (c, c ^ x) of the 2^n x 2^n matrix
            rows, cols = rows + (high << (lb + n)), cols + (low << n)
        signs = (1.0 - 2.0 * _parity(high & (zs >> lb))) * (flat < len(strings))[:, None]
        parts = (1.0 - 2.0 * _parity(low & zs))[:, :, None] * _PARTS[n_y[flat] % 4, None, :]
        chunks.append(_Chunk(rows[:, :, None], cols[:, None, :], signs.reshape(*slots.shape, 1, -1),
                             parts.reshape(len(flat), -1), flat))
    return tuple(chunks)


def means(state: np.ndarray, n: int, strings: tuple[str, ...]) -> np.ndarray:
    """<P> of each Pauli string P on an n-qubit state, then a 0.

    `state` is a density matrix (2^n x 2^n, its raw trace kept) or a
    statevector (2^n amplitudes).  The strings are read in blocks of at
    most _READ_BLOCK, each by a cached `_reader`.
    """
    density = state.ndim == 2
    if density:
        source, psi = np.asarray(state, dtype=complex).reshape(-1), None
    else:
        psi = np.asarray(state, dtype=complex).reshape(1 << n // 2, -1)
        source = psi.conj().reshape(-1)
    out = np.empty(len(strings) + 1)
    for start in range(0, len(strings), _READ_BLOCK):
        block = strings[start:start + _READ_BLOCK]
        values = out[start:start + len(block) + 1]  # zero rows land one past the block, read later
        for chunk in _reader(block, n, density):
            values[chunk.slots] = _read_chunk(chunk, source, psi)
    out[-1] = 0.0
    return out


def _read_chunk(chunk: _Chunk, source: np.ndarray, psi: np.ndarray | None) -> np.ndarray:
    """The chunk's row values: one gather of each x mask's entries, then each row's signed sum over them.

    A function of its own, so one chunk's arrays are freed before the next chunk gathers.
    """
    gathered = source.take(chunk.rows + chunk.cols)
    if psi is not None:
        gathered *= psi
    halves = np.matmul(chunk.high, gathered.view(np.float64)[:, None])  # one fixed-shape product per row
    return np.einsum("sl,sl->s", chunk.low, halves.reshape(len(chunk.low), -1))
