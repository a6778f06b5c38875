"""Exact statevector and density-matrix simulation with measurement instruments.

State indexing: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of the flat index.  A statevector reshaped to [2]*n exposes
qubit q as axis q; a density matrix reshaped to [2]*(2n) exposes qubit q as
row axis q and column axis n+q.

Density matrices are carried with their raw trace and nothing here ever
renormalizes.  Expectation values are likewise raw traces, which keeps the
whole pipeline linear in the state.  `expectations` is the one reader of
observables, for both kinds of state: `pauli.means` reads every Pauli string
of a call as one signed sum over the state's entries (c, c XOR x), x the
string's X/Y mask, from one gather per distinct mask.

Every dense operator, in every engine, is a 2^k x 2^k matrix on k axes of a
state tensor, applied by a kernel from one builder, `_matrix_kernel`, which
picks the kernel's path and axis orders once.  A density operation is one
4^k x 4^k superoperator on its k qubits' row axes, then their column axes: a
noisy gate is D_p (U (x) U*), D_p its depolarizing map; a measurement
outcome is its projector map, then D_p; a reset is rho -> |0><0| Tr rho,
then D_p; a classically controlled gate is its inner gate's map, on the
branches whose bit reads 1.  `_compile` turns a density program into steps
that hold these kernels (a measurement's two), so a program compiled once
runs with no per-operation lookups.  One branch loop, `_evolve`, runs every
exact program; a gate-less operation (a `qpd` cut, depolarizing noise) is
anything with `qubits` and a `superop` and acts on every live branch, so
feedback after a cut reads bits measured before it.  `DensityMatrix.zero`
checks the density cap.

Shot sampling advances a block of shots together.  The block is one state
tensor with one column per distinct history as its trailing axis,
[2]*n + [columns], plus a map from each shot to its column, so one gate's
operator acts on every history at once.  All shots start in one
column; a column splits, in one routine, only where its shots diverge (a
cut's label, the Pauli a noise event drew, a measurement or reset outcome),
so a block never holds more columns than shots.  `sample_fragments` takes
a cut circuit, the positions of its cuts and the gates each fragment inserts
at each cut, and runs the shots of every fragment, each in several (seed,
basis) pairs, in one pass: they share columns through the cut circuit's
gates, split at each cut by the label of the gates their fragments insert
there, which each column keeps in a cut-label register, and split last by
basis, just before the basis rotations.  An inserted sequence acts
on the columns whose label matches, as a classically controlled gate acts on
those whose bit reads 1, and the shared gates after the cut on every column.
`sample_shots` is its one-fragment, one-basis case.  Every random
number is a counter-based uniform u(seed, shot, draw), output `draw` of a
SplitMix64 stream whose state starts at a hash of (seed, shot), and each gate
owns fixed draw slots; in a fragment, the slots of the fragment's own gate
index, which one table gives for every step and fragment.  A shot's
outcome therefore depends only on (circuit, seed, shot index): a (circuit,
seed, n_shots) triple reproduces bit-identical outcomes on any platform, a
shorter run is a prefix of a longer one, and neither the split into blocks
nor sharing a pass with other fragments changes a stream or a shot.  These
streams replaced one PCG64 SeedSequence stream per shot, so sampled bits
differ from that earlier sampler.

A block draws the uniforms it reads as a table [shots, draws] from the same
streams and slots: measurement outcomes and noise events up front, in chunks
of at most 2^n columns, then in one more call per chunk the Pauli draws of
every shot a noise event hit, and the readout draws.  Which draws are made,
and when, and which shots share a column, changes no value, so every shot is
the one a draw-by-draw, shot-by-shot sampler would give.  `_pass_plan`
compiles everything of a pass that no seed, shot count or basis changes (the
merged steps, their kernels and noise strengths) once per process for each
key.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import pauli
from .circuit import Circuit, Gate, GateKind
from .errors import ResourceLimitError, StatevectorModeError

DENSITY_QUBIT_CAP = 10
STATEVECTOR_QUBIT_CAP = 16

_SQ2 = 1.0 / math.sqrt(2.0)
_MAT_1Q = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.SX: 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    GateKind.H: _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex),
}


def _rx_matrix(a: float) -> np.ndarray:
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _rzx_matrix(a: float) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = _rx_matrix(a)
    out[2:, 2:] = _rx_matrix(-a)
    return out


_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def _gate_diagonal(g: Gate) -> np.ndarray | None:
    """Broadcastable phase array for Z-diagonal gates; None for everything else."""
    if g.kind == GateKind.RZ:
        return np.array([np.exp(-1j * g.angle / 2), np.exp(1j * g.angle / 2)])
    if g.kind == GateKind.RZZ:
        p, m = np.exp(-1j * g.angle / 2), np.exp(1j * g.angle / 2)
        return np.array([[p, m], [m, p]])
    return None


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense 2x2 or 4x4 matrix of a unitary gate."""
    if g.kind in _MAT_1Q:
        return _MAT_1Q[g.kind]
    if g.kind == GateKind.RX:
        return _rx_matrix(g.angle)
    if g.kind in (GateKind.RZ, GateKind.RZZ):
        return np.diag(_gate_diagonal(g).reshape(-1))
    if g.kind == GateKind.RZX:
        return _rzx_matrix(g.angle)
    if g.kind == GateKind.CNOT:
        return _CNOT
    if g.kind == GateKind.SWAP:
        return _SWAP
    raise ValueError(f"{g.kind.value} has no unitary matrix")


# --- tensor kernel ----------------------------------------------------------


def _matrix_kernel(mat: np.ndarray, axes, shape):
    """The function applying a 2^k x 2^k matrix on k length-2 axes of any tensor of `shape`, returning a new tensor.

    The matrix is indexed by the axes' bits in the order `axes` lists them.  Consecutive ascending
    axes with left <= right view the tensor as (left, 2^k, right) for one stacked matmul, which keeps
    it C-contiguous.  Otherwise (a stack of many tiny products, or any other axes) a transpose puts
    the axes in front, the tensor takes one matmul, and the inverse transpose puts them back.  The
    path, the view and both orders are worked out here, once.
    """
    k, first, shape = len(axes), axes[0], tuple(shape)
    left = math.prod(shape[:first])
    right = math.prod(shape) // (left * len(mat))
    if left <= right and list(axes) == list(range(first, first + k)):
        view = (left, len(mat), right)
        return lambda tensor: np.matmul(mat, tensor.reshape(view)).reshape(shape)
    order = (*axes, *(a for a in range(len(shape)) if a not in axes))
    inverse, front = tuple(order.index(a) for a in range(len(shape))), tuple(shape[a] for a in order)
    return lambda tensor: (mat @ tensor.transpose(order).reshape(len(mat), -1)).reshape(front).transpose(inverse)


def _apply_matrix(tensor: np.ndarray, mat: np.ndarray, axes) -> np.ndarray:
    """A 2^k x 2^k matrix on k length-2 axes of a tensor; see `_matrix_kernel`."""
    return _matrix_kernel(mat, axes, tensor.shape)(tensor)


# --- density kernel ---------------------------------------------------------

_PROJECT = (np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 0.0, 0.0, 1.0]))  # rho -> P_o rho P_o
_RESET = np.array([[1.0, 0.0, 0.0, 1.0], [0.0] * 4, [0.0] * 4, [0.0] * 4])  # rho -> |0><0| Tr rho


@functools.lru_cache(maxsize=256)
def _depolarizing(k: int, p: float) -> np.ndarray:
    """D_p on k qubits: rho -> (1-p) rho + p (I/2^k (x) Tr_qubits rho)."""
    vec_i = np.eye(2**k).reshape(-1)
    return (1.0 - p) * np.eye(4**k) + (p / 2**k) * np.outer(vec_i, vec_i)


def _superop(g: Gate, p: float, outcome: int = 0) -> np.ndarray:
    """D_p times g's map: a measurement's projector onto `outcome`, the reset map, or U (x) U*.

    A classically controlled gate's map is its inner gate's.
    """
    if g.kind == GateKind.MEASURE_Z:
        s = _PROJECT[outcome]
    elif g.kind == GateKind.RESET:
        s = _RESET
    else:
        u = gate_matrix(g.inner if g.kind == GateKind.CLASSICALLY_CONTROLLED else g)
        s = np.kron(u, u.conj())
    return _depolarizing(len(g.qubits), p) @ s if p else s


class _DepolarizeOp(NamedTuple):
    """Depolarizing noise of strength p on `qubits`, with no gate: a gate-less operation of the density loop."""

    qubits: tuple[int, ...]
    p: float

    @property
    def superop(self) -> np.ndarray:
        return _depolarizing(len(self.qubits), self.p)


# --- states ---------------------------------------------------------------


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amps: np.ndarray

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = 1.0
        return cls(n, amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class DensityMatrix:
    n_qubits: int
    mat: np.ndarray

    @classmethod
    def zero(cls, n: int) -> "DensityMatrix":
        if n > DENSITY_QUBIT_CAP:  # the one check of the density cap, before anything is allocated
            raise ResourceLimitError(f"{n} qubits exceeds density cap {DENSITY_QUBIT_CAP}")
        mat = np.zeros((2**n, 2**n), dtype=complex)
        mat[0, 0] = 1.0
        return cls(n, mat)

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def tensor(self) -> np.ndarray:
        return self.mat.reshape([2] * (2 * self.n_qubits))


@dataclass(frozen=True)
class PauliObservable:
    """Weighted sum of Pauli strings; string index k addresses qubit k."""

    terms: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("observable needs at least one term")
        length = len(self.terms[0][0])
        for s, w in self.terms:
            if len(s) != length or any(ch not in "IXYZ" for ch in s):
                raise ValueError(f"malformed Pauli string {s!r}")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w}")

    @property
    def n_qubits(self) -> int:
        return len(self.terms[0][0])

    @functools.cached_property
    def support(self) -> tuple[int, ...]:
        """The qubits some term acts on with X, Y or Z, in ascending order; computed once per object."""
        return tuple(sorted({q for s, _ in self.terms for q, ch in enumerate(s) if ch != "I"}))

    @classmethod
    def single(cls, n: int, qubit: int, pauli: str, weight: float = 1.0) -> "PauliObservable":
        integer = isinstance(qubit, numbers.Integral) and not isinstance(qubit, bool)
        if pauli not in ("X", "Y", "Z") or not integer or not 0 <= qubit < n:
            raise ValueError(f"need one of X, Y, Z on a qubit in [0, {n}), got {pauli!r} on {qubit!r}")
        s = "".join(pauli if q == qubit else "I" for q in range(n))
        return cls(((s, weight),))


@functools.lru_cache(maxsize=64)
def bloch_observables(n: int) -> tuple[PauliObservable, ...]:
    """X on each of n qubits, then Y, then Z: one shared tuple per width, so no caller may rebuild or write it."""
    return tuple(PauliObservable.single(n, q, p) for p in "XYZ" for q in range(n))


# --- statevector execution --------------------------------------------------


def run_statevector(circuit: Circuit) -> StateVector:
    """Exact state after a unitary-only circuit, from |0...0>."""
    if circuit.n_qubits > STATEVECTOR_QUBIT_CAP:
        raise ResourceLimitError(f"{circuit.n_qubits} qubits exceeds statevector cap {STATEVECTOR_QUBIT_CAP}")
    for g in circuit.gates:
        if not g.is_unitary:
            raise StatevectorModeError(f"{g.kind.value} is not supported in statevector mode")
    psi = StateVector.zero(circuit.n_qubits).amps.reshape([2] * circuit.n_qubits + [1])  # one shot column
    for kernel in _shot_kernels(circuit):
        psi = kernel(psi)
    return StateVector(circuit.n_qubits, psi.reshape(-1))


# --- density-matrix execution ------------------------------------------------


class _Branch:
    __slots__ = ("rho", "clbits", "sign")

    def __init__(self, rho: np.ndarray, clbits: list[int], sign: int):
        self.rho = rho
        self.clbits = clbits
        self.sign = sign


class _Step(NamedTuple):
    """One compiled density operation: its kernel, or a measurement's two outcome kernels, and its classical wiring."""

    kernels: tuple
    clbit: int | None
    signed: bool
    controlled: bool


@functools.lru_cache(maxsize=4096)
def _step(op, p: float, n: int) -> _Step:
    """op's step on n qubits, p the strength of a gate's noise; cached and shared, so no caller may write to it."""
    axes, shape = [*op.qubits, *(n + q for q in op.qubits)], (2,) * (2 * n)
    if not isinstance(op, Gate):  # a gate-less operation acts on every live branch
        return _Step((_matrix_kernel(op.superop, axes, shape),), None, False, False)
    outcomes = (0, 1) if op.kind == GateKind.MEASURE_Z else (0,)
    kernels = tuple(_matrix_kernel(_superop(op, p, outcome), axes, shape) for outcome in outcomes)
    return _Step(kernels, op.clbit, op.signed, op.kind == GateKind.CLASSICALLY_CONTROLLED)


def _compile(ops, noise, n: int) -> tuple[_Step, ...]:
    """The steps of a density program on n qubits: each op's noise strength looked up once, and its step.

    Steps already compiled are returned as they are.
    """
    ops = tuple(ops)
    if ops and isinstance(ops[0], _Step):
        return ops
    return tuple(_step(g, 0.0 if noise is None or not isinstance(g, Gate) else noise.strength_for(g), n) for g in ops)


def _evolve_branches(branches: list[_Branch], ops, noise, n: int) -> list[_Branch]:
    for kernels, clbit, signed, controlled in _compile(ops, noise, n):
        if len(kernels) == 2:  # a measurement splits every branch by outcome
            split: list[_Branch] = []
            for br in branches:
                for outcome, kernel in enumerate(kernels):
                    clbits = list(br.clbits)
                    clbits[clbit] = outcome
                    split.append(_Branch(kernel(br.rho), clbits, -br.sign if signed and outcome else br.sign))
            branches = split
            continue
        kernel = kernels[0]
        for br in branches:
            if not controlled or br.clbits[clbit] == 1:
                br.rho = kernel(br.rho)
    return branches


def _evolve(state: DensityMatrix, ops, noise) -> DensityMatrix:
    """The density engine's one loop: evolve `state` through a program of gates and gate-less operations.

    `ops` is a `_compile`d program, run as given (its noise was compiled in),
    or bare gates and operations (cuts, noise), compiled here under `noise`.
    Each measurement splits every branch by outcome; the branches are summed
    (outcome 1 of a signed measurement with sign -1) only on return, so
    classical feedback reads every bit measured earlier in `ops`.
    """
    n = state.n_qubits
    steps = _compile(ops, noise, n)
    n_clbits = 1 + max((step.clbit for step in steps if step.clbit is not None), default=-1)
    branches = [_Branch(state.tensor(), [0] * n_clbits, 1)]  # no kernel writes to its input
    branches = _evolve_branches(branches, steps, noise, n)
    total = sum(br.sign * br.rho for br in branches)
    return DensityMatrix(n, total.reshape(state.mat.shape))


def apply_gates_density(state: DensityMatrix, gates, noise=None) -> DensityMatrix:
    """Evolve a density matrix through gates under an optional noise model; feedback sees only this call's bits.

    A gate on a qubit outside [0, n) or on a negative classical bit raises
    ValueError naming it.  The m distinct bits the gates name are renumbered
    0..m-1 first, so the classical register holds m bits however large their
    indices.
    """
    gates, n = tuple(gates), state.n_qubits
    for g in gates:
        if not all(0 <= q < n for q in g.qubits):
            raise ValueError(f"{g.kind.value} on qubits {g.qubits}: qubits must be in [0, {n})")
        if g.clbit is not None and g.clbit < 0:
            raise ValueError(f"{g.kind.value} on classical bit {g.clbit}: classical bits must be non-negative")
    bits = {b: i for i, b in enumerate(dict.fromkeys(g.clbit for g in gates if g.clbit is not None))}
    gates = tuple(g if g.clbit is None else replace(g, clbit=bits[g.clbit]) for g in gates)
    return _evolve(state, gates, noise)


def run_density(circuit: Circuit, noise=None) -> DensityMatrix:
    """Exact channel evaluation from |0...0>: every gate, then the noise assigned to it."""
    return _evolve(DensityMatrix.zero(circuit.n_qubits), circuit.gates, noise)


# --- expectation values -------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _observable_terms(observables: tuple[PauliObservable, ...]) -> tuple:
    """(width, strings, index, weight) of a tuple of observables; cached and shared, so no caller may write to it.

    `width` is the observables' width (None if they differ) and `strings`
    their distinct Pauli strings.  Row i of `index` and `weight` holds
    observable i's terms in order; past its last term, `index` points one
    past the strings (a zero mean) and `weight` is 0.
    """
    widths = {obs.n_qubits for obs in observables}
    strings = tuple(dict.fromkeys(s for obs in observables for s, _ in obs.terms))
    place = {s: i for i, s in enumerate(strings)}
    index = np.full((len(observables), max(len(obs.terms) for obs in observables)), len(strings))
    weight = np.zeros(index.shape)
    for i, obs in enumerate(observables):
        for t, (s, w) in enumerate(obs.terms):
            index[i, t], weight[i, t] = place[s], w
    return widths.pop() if len(widths) == 1 else None, strings, index, weight


def expectations(state: StateVector | DensityMatrix, observables) -> list[float]:
    """<obs> of each observable: a raw trace for a density matrix (no renormalization), <psi|obs|psi> for a vector.

    Each distinct Pauli string of the call is read once by `pauli.means`: one
    signed sum over a gather of the state's x-diagonal, with one gather per
    X/Y mask, tables compiled once per (strings, width, kind), and nothing
    larger than 2^20 entries, so a 16-qubit vector reads any string.  A
    string's value is the same, bit for bit, whichever strings it is read
    with.  An observable's value is its weighted terms added in order, from
    the term tables of the observables tuple, also compiled once and cached.
    """
    observables = tuple(observables)
    if not observables:
        return []
    width, strings, index, weight = _observable_terms(observables)
    n = state.n_qubits
    if width != n:
        bad = next(obs for obs in observables if obs.n_qubits != n)
        raise ValueError(f"observable on {bad.n_qubits} qubits, state on {n}")
    means = pauli.means(state.mat if isinstance(state, DensityMatrix) else state.amps, n, strings)
    values = 0.0 + weight[:, 0] * means[index[:, 0]]  # term by term from 0, as Python's sum adds them
    for t in range(1, index.shape[1]):
        values += weight[:, t] * means[index[:, t]]
    return values.tolist()


def expectation(state: StateVector | DensityMatrix, obs: PauliObservable) -> float:
    """<obs> of one observable; see `expectations`."""
    return expectations(state, [obs])[0]


# --- shot sampling -------------------------------------------------------------

_BASIS_ROT = {
    "Z": np.eye(2, dtype=complex),
    "X": _MAT_1Q[GateKind.H],
    # Rz(-pi/2) then H: maps the Y eigenbasis onto the Z basis.
    "Y": _MAT_1Q[GateKind.H] @ np.array([[1, 0], [0, -1j]], dtype=complex),
}


@functools.lru_cache(maxsize=256)
def _basis_rotation(letters: str) -> np.ndarray:
    """The Kronecker product of each letter's basis rotation, at most four letters (16 x 16); cached, so read-only."""
    mat = functools.reduce(np.kron, [_BASIS_ROT[ch] for ch in letters], np.ones((1, 1)))
    mat.flags.writeable = False
    return mat


# Pauli I, X, Y, Z as a flip of the qubit's axis, then a phase on its rows 0 and 1.
_PAULI_FLIP = np.array([False, True, True, False])
_PAULI_PHASE = np.array([[1, 1], [1, 1], [-1j, 1j], [1, -1]], dtype=complex)

# Amplitudes the sampler holds at once (16 MiB of complex128), a draw counting
# as one amplitude (its float64 uniform plus the uint64 it is hashed from): a
# block holds at most one state column of 2^n amplitudes per shot and a
# draw-table row of at most 2^n columns per shot, so shots run in blocks of
# _BLOCK_AMPLITUDES >> (n + 1), which bounds memory at any n_shots.
_BLOCK_AMPLITUDES = 1 << 20

# Gate i of a circuit owns draws 4*i + slot; the terminal readout owns draws
# from 4*len(gates) on.  Fixed slots keep a shot's stream independent of which
# random events fired earlier in it.
_DRAWS_PER_GATE = 4
_SLOT_OUTCOME, _SLOT_EVENT, _SLOT_PAULI = 0, 1, 2  # Pauli slot + k for the gate's k-th qubit
_SLOT_INDEX, _SLOT_FLIP = 0, 1                     # terminal: basis state, then one flip per qubit

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (wrapping arithmetic, a bijection)."""
    z = z ^ (z >> np.uint64(30))  # a new array; the rest works in place
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _seed_keys(seeds: list[int]) -> np.ndarray:
    """Each seed's part of its shots' stream keys: every 64-bit word of the seed mixed in, low word first.

    The mix fixes zero, so a zero key becomes _GOLDEN before each later word: seed h * 2^64 must not share h's keys.
    """
    words = []
    for seed in seeds:
        words.append([seed & _MASK64])
        while seed >> 64:
            seed >>= 64
            words[-1].append(seed & _MASK64)
    keys = np.zeros(len(seeds), dtype=np.uint64)
    for t in range(max(map(len, words))):
        live = [i for i, w in enumerate(words) if len(w) > t]
        key = keys[live]
        if t:
            key[key == 0] = _GOLDEN
        keys[live] = _mix64(key ^ np.array([words[i][t] for i in live], dtype=np.uint64))
    return keys


def _uniforms(keys: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """u(seed, shot, draw) in [0, 1): output `draw` (integers) of a SplitMix64 stream started at the shot key."""
    z = _mix64(keys + (draws.astype(np.uint64) + np.uint64(1)) * _GOLDEN)
    z >>= np.uint64(11)
    return z * 2.0**-53


def _gate_kernel(g: Gate, n: int):
    """A function applying unitary g to every column of a block [2]*n + [columns].

    The gate's matrix or diagonal is built here, once for each key of
    `_pass_plan`, which keeps it for every block, basis and call.  A dense
    gate's kernel (its path and axis orders, see `_matrix_kernel`) is built
    again on every application, because the column count varies: a block
    applies each step's kernel at most once.
    """
    diag = _gate_diagonal(g)
    if diag is not None:
        shape = [1] * (n + 1)
        for q in g.qubits:
            shape[q] = 2
        diag = diag.reshape(shape)
        return lambda psi: psi * diag
    mat, qubits = gate_matrix(g), g.qubits
    if len(qubits) == 2 and qubits[0] == qubits[1] + 1:  # the same gate on ascending qubits, the fast path
        mat, qubits = mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4), qubits[::-1]
    return lambda psi: _apply_matrix(psi, mat, qubits)


def _shot_kernels(circuit: Circuit) -> list:
    """Each gate's kernel (a classically controlled gate's is its inner gate's); None for a measurement or reset."""
    kernels = []
    for g in circuit.gates:
        if g.kind == GateKind.CLASSICALLY_CONTROLLED:
            g = g.inner
        measured = g.kind in (GateKind.MEASURE_Z, GateKind.RESET)
        kernels.append(None if measured else _gate_kernel(g, circuit.n_qubits))
    return kernels


_PAULI_LABELS = 16  # labels of a noise split: the Pauli code of a two-qubit event


def _split(col: np.ndarray, moved: np.ndarray, label: np.ndarray, span: int, psi: np.ndarray, *per_column):
    """Move shots `moved` to one new column per distinct (column, label) pair; labels lie in [0, span).

    Every divergence of a block's shots (a cut's label, a measurement or reset outcome, a noise
    event's Pauli) splits its columns here.  Columns left with no shot are dropped, so there are
    never more columns than shots.  The kept columns come first and the new ones last.  Returns
    (col, kept, labels, psi, *per_column): each shot's new column, the number of kept columns, each
    new column's label, and the state [2]*n + [columns] and each per-column array (columns first),
    every column a copy of the one it came from.
    """
    pairs, inverse = np.unique(col[moved] * span + label, return_inverse=True)
    remaining = np.bincount(col)
    remaining -= np.bincount(col[moved], minlength=len(remaining))
    kept = np.flatnonzero(remaining)
    remap = np.zeros(len(remaining), dtype=np.intp)
    remap[kept] = np.arange(len(kept))
    col = remap[col]
    col[moved] = len(kept) + inverse
    parent = np.concatenate([kept, pairs // span])
    return (col, len(kept), pairs % span, np.take(psi, parent, axis=-1), *(a[parent] for a in per_column))


def _one_probability(psi: np.ndarray, q: int) -> np.ndarray:
    """P(qubit q reads 1) in each column of a block."""
    one = np.take(psi, 1, axis=q)
    return np.clip((one.real**2 + one.imag**2).reshape(-1, psi.shape[-1]).sum(axis=0), 0.0, 1.0)


def _collapse(psi: np.ndarray, q: int, outcome: np.ndarray, p1: np.ndarray, reset: bool) -> np.ndarray:
    """Project qubit q of each column onto its outcome and renormalize; reset re-prepares |0>.

    A column whose outcome has zero probability is left as the zero vector
    rather than divided by zero.
    """
    p = np.where(outcome, p1, 1.0 - p1)
    scale = np.divide(1.0, np.sqrt(p), out=np.zeros_like(p), where=p > 0.0)
    diag = np.stack([np.where(outcome, 0.0, scale), np.where(outcome, scale, 0.0)])  # [2, columns]
    shape = [1] * psi.ndim
    shape[q], shape[-1] = 2, psi.shape[-1]
    psi = psi * diag.reshape(shape)
    if reset:
        kept = psi.sum(axis=q)  # the other half is zero
        psi = np.stack([kept, np.zeros_like(kept)], axis=q)
    return psi


def _apply_paulis(psi: np.ndarray, qubits, codes: np.ndarray) -> np.ndarray:
    """Pauli (codes >> 2k) & 3 (I, X, Y or Z) on the k-th of `qubits`, column by column.

    Each Pauli is a flip of the qubit's axis (X, Y) followed by a phase per
    row (Y, Z), so every amplitude is moved and multiplied by 1, -1 or ±i.
    """
    shape = [1] * psi.ndim
    shape[-1] = len(codes)
    for k, q in enumerate(qubits):
        letter = (codes >> (2 * k)) & 3
        psi = np.where(_PAULI_FLIP[letter].reshape(shape), np.flip(psi, axis=q), psi)
        phase_shape = list(shape)
        phase_shape[q] = 2
        psi = psi * _PAULI_PHASE[letter].T.reshape(phase_shape)
    return psi


class FragmentRun(NamedTuple):
    """One fragment's shots in a `sample_fragments` pass, in one (seed, basis) pair per entry of `seeds` and `bases`.

    `inserted[k]` lists the gates the fragment inserts at cut k, before the cut circuit's gate `positions[k]`.
    """

    inserted: tuple[tuple[Gate, ...], ...]
    n_shots: int
    seeds: tuple[int, ...]
    bases: tuple[str, ...]


class _Plan(NamedTuple):
    """A compiled pass: the cut circuit's gates once, then at each cut each distinct inserted sequence once.

    Step i runs gate i of `circuit` through kernels[i] (None for a
    measurement or reset), and its noise event fires with probability
    strengths[i].  The draw-slot table gate_index[i, r] is that gate's index
    in run r's own fragment, whose draw slots it reads there; its last row
    holds each fragment's length, where the terminal draws start.  group[i]
    is None for a step every shot takes, or (cut, label) for one that only
    shots whose run has labels[cut, r] == label take.  splits maps a step to
    the cut whose groups it starts, where columns split by label.
    """

    circuit: Circuit
    group: tuple
    splits: dict
    labels: np.ndarray
    gate_index: np.ndarray
    kernels: tuple
    strengths: tuple
    readout_flip: float


@functools.lru_cache(maxsize=64)
def _pass_plan(circuit: Circuit, positions: tuple, inserted: tuple, noise) -> _Plan:
    """The plan of one pass over the fragments of `circuit` that insert inserted[r][k] before its gate positions[k].

    `noise` is None for a noiseless pass.  The key holds no seed, shot count
    or basis, so the plan is compiled once per process for each key and
    serves every call and repetition; it is cached and shared, and its
    arrays are read-only.  The classical register is the circuit's, widened
    to the highest bit an inserted gate names.  Each fragment must be a
    valid `Circuit` on its own: a classically controlled gate may read only
    bits its own fragment writes first.
    """
    named = [g.clbit for pieces in inserted for piece in pieces for g in piece if g.clbit is not None]
    n_clbits = max(circuit.n_clbits, 1 + max(named, default=-1))
    steps, group, splits, gate_index = [], [], {}, []
    offset = np.zeros(len(inserted), dtype=np.intp)  # the gates each run inserted at the cuts passed so far

    def add(gates, first_index, tag):
        steps.extend(gates)
        group.extend([tag] * len(gates))
        gate_index.extend(offset + j for j in range(first_index, first_index + len(gates)))

    labels = np.zeros((len(positions), len(inserted)), dtype=np.intp)
    done = 0
    for k, p in enumerate(positions):
        add(circuit.gates[done:p], done, None)
        distinct = {}
        for r, pieces in enumerate(inserted):
            labels[k, r] = distinct.setdefault(pieces[k], len(distinct))
        if len(distinct) > 1:
            splits[len(steps)] = k
        for piece, label in distinct.items():
            add(piece, p, (k, label) if len(distinct) > 1 else None)
        offset = offset + [len(pieces[k]) for pieces in inserted]
        done = p
    add(circuit.gates[done:], done, None)
    for own in labels.T.tolist():  # each fragment's own circuit, which raises if it is not valid
        gates = [g for g, tag in zip(steps, group) if tag is None or own[tag[0]] == tag[1]]
        Circuit(circuit.n_qubits, n_clbits, gates)
    merged = Circuit(circuit.n_qubits, n_clbits, steps)
    gate_index = np.array([*gate_index, offset + len(circuit.gates)])
    labels.flags.writeable = gate_index.flags.writeable = False
    strengths = tuple(0.0 if noise is None else noise.strength_for(g) for g in steps)
    return _Plan(merged, tuple(group), splits, labels, gate_index, tuple(_shot_kernels(merged)), strengths,
                 0.0 if noise is None else noise.readout_flip)


def _draw_chunk(plan: _Plan, keys: np.ndarray, run: np.ndarray, present, start: int):
    """The draws of the steps from `start` on, made before they run.

    keys [shots] are the shots' stream keys, run [shots] their runs, and
    `present` the groups with a shot in the block; a step of any other group
    draws nothing.  A measurement or reset reads its outcome slot and a step
    of strength > 0 its event slot, at the step's gate index in each shot's
    own fragment.  The table [shots, draws] takes steps until it would pass
    2^n columns, so it is never wider than the state.  Every event column is
    compared with its step's strength at once, and the Pauli slots of every
    shot an event hit are drawn in one more call, so a step that no shot's
    noise hit costs only its unitary.  Returns (table, the column of each
    step's outcome draw, for each step whose event drew a Pauli other than
    all-I on some shot those shots and their Pauli codes, and the first step
    the table does not cover).  A code holds the letter (I, X, Y, Z) on the
    step's k-th qubit in bits 2k and 2k + 1.
    """
    gates, width = plan.circuit.gates, 1 << plan.circuit.n_qubits
    slots, outcome, noisy, stop = [], {}, [], start
    while stop < len(gates):
        group = plan.group[stop]
        taken = group is None or group in present
        measured = taken and gates[stop].kind in (GateKind.MEASURE_Z, GateKind.RESET)
        has_noise = taken and plan.strengths[stop] > 0.0
        if len(slots) + measured + has_noise > width:
            break
        if measured:
            outcome[stop] = len(slots)
            slots.append((stop, _SLOT_OUTCOME))
        if has_noise:
            noisy.append((stop, len(slots)))
            slots.append((stop, _SLOT_EVENT))
        stop += 1
    step, slot = np.array(slots, dtype=np.intp).reshape(-1, 2).T
    u = _uniforms(keys[:, None], (_DRAWS_PER_GATE * plan.gate_index[step][:, run] + slot[:, None]).T)
    event, column = np.array(noisy, dtype=np.intp).reshape(-1, 2).T
    j, shot = np.nonzero((u[:, column] < np.array(plan.strengths)[event]).T)  # by step, then by shot
    k = np.arange(2)
    draws = _DRAWS_PER_GATE * plan.gate_index[event[j], run[shot], None] + _SLOT_PAULI + k
    wires = np.array([len(gates[i].qubits) for i in event])[j, None]  # a one-qubit step reads one Pauli slot
    codes = (((4.0 * _uniforms(keys[shot, None], draws)).astype(np.intp) << (2 * k)) * (k < wires)).sum(axis=1)
    j, shot, codes = j[codes != 0], shot[codes != 0], codes[codes != 0]  # an all-I draw changes nothing
    fired = {int(event[t]): (shot[j == t], codes[j == t]) for t in np.unique(j)}
    return u, outcome, fired, stop


def _sample_block(plan: _Plan, keys: np.ndarray, run: np.ndarray, which: np.ndarray, bases):
    """Advance a block of shots together; shots with the same history share one state column.

    keys [shots] are the shots' stream keys, run [shots] the index of each
    shot's run and which [shots] the index of its basis in `bases`.  The
    state is one tensor [2]*n + [columns] and col[shot] names each shot's
    column.  Each column carries its classical bits, its sign and a
    cut-label register: its shots' label at each cut they have passed.
    Every shot starts in one column holding |0...0>.  A column splits, in
    `_split`, only where its shots diverge: at a cut, by the label of the
    gates their runs insert there; by the Pauli a noise event drew (an all-I
    draw changes nothing); by the outcome of a measurement or reset; and,
    last, by basis before the basis rotations.  A step of a cut's group acts
    on the columns whose label at that cut matches, just as a classically
    controlled step acts on the columns whose bit reads 1; the two
    conditions are one column mask, read through `col` for the shots it
    covers.  A shot reads the draw slots of each step's gate index in its
    own fragment.  Returns bits, clbits and sign, one row per shot.
    """
    circuit = plan.circuit
    n, shots = circuit.n_qubits, len(keys)
    member = plan.labels[:, run]  # [cuts, shots]: each shot's label at each cut
    present = {(cut, int(label)) for cut, labels in enumerate(member) for label in np.unique(labels)}
    psi = np.zeros([2] * n + [1], dtype=complex)
    psi[(0,) * n] = 1.0
    col = np.zeros(shots, dtype=np.intp)
    clbits = np.zeros((1, circuit.n_clbits), dtype=np.uint8)
    sign = np.ones(1, dtype=np.int8)
    cut_label = np.zeros((1, len(member)), dtype=np.intp)
    stop = 0
    for i, g in enumerate(circuit.gates):
        if i == stop:
            u, outcome_at, fired, stop = _draw_chunk(plan, keys, run, present, i)
        cut = plan.splits.get(i)
        if cut is not None:  # label 0 keeps its columns; every other label moves to columns of its own
            moved = np.flatnonzero(member[cut])
            if moved.size:
                col, kept, labels, psi, clbits, sign, cut_label = _split(
                    col, moved, member[cut, moved], int(member[cut].max()) + 1, psi, clbits, sign, cut_label)
                cut_label[kept:, cut] = labels
        group = plan.group[i]
        if group is not None and group not in present:
            continue
        # the columns step i acts on, None for all: its group's cut label matches, and a controlled step's bit reads 1
        act = None if group is None else cut_label[:, group[0]] == group[1]
        if g.kind == GateKind.CLASSICALLY_CONTROLLED:
            act = (clbits[:, g.clbit] == 1) & (True if act is None else act)
        hit, codes = fired.get(i, (None, None))
        if hit is not None and act is not None:  # the shots in columns the step acts on, before a measurement splits
            on = act[col[hit]]
            hit, codes = hit[on], codes[on]
        if plan.kernels[i] is None:  # a measurement or reset
            q = g.qubits[0]
            p1 = _one_probability(psi, q)
            rows = np.arange(shots) if act is None else np.flatnonzero(act[col])
            outcome = u[rows, outcome_at[i]] < p1[col[rows]]
            col, kept, labels, psi, clbits, sign, cut_label, p1 = _split(
                col, rows, outcome, 2, psi, clbits, sign, cut_label, p1)
            psi[..., kept:] = _collapse(psi[..., kept:], q, labels == 1, p1[kept:], g.kind == GateKind.RESET)
            if g.clbit is not None:
                clbits[kept:, g.clbit] = labels
            if g.signed:
                sign[kept + np.flatnonzero(labels)] *= -1
        else:
            psi = plan.kernels[i](psi) if act is None or act.all() else np.where(act, plan.kernels[i](psi), psi)
        if hit is not None and hit.size:
            col, kept, labels, psi, clbits, sign, cut_label = _split(
                col, hit, codes, _PAULI_LABELS, psi, clbits, sign, cut_label)
            psi[..., kept:] = _apply_paulis(psi[..., kept:], g.qubits, labels)
    terminal = _DRAWS_PER_GATE * plan.gate_index[-1, run]  # a run's terminal draws follow its last gate
    u_index = _uniforms(keys, terminal + _SLOT_INDEX)
    # one column per distinct (basis, column) pair, basis by basis, each basis turning its own columns
    used, pos = np.unique(which * len(sign) + col, return_inverse=True)
    phi = np.take(psi, used % len(sign), axis=-1)
    ends = np.searchsorted(used // len(sign), np.arange(len(bases) + 1))
    for basis, first, end in zip(bases, ends, ends[1:]):
        for q in range(0, n, 4):  # each group of up to four qubits turned by one Kronecker-product matrix
            if first < end and basis[q:q + 4].strip("Z"):
                rotation, axes = _basis_rotation(basis[q:q + 4]), tuple(range(q, min(q + 4, n)))
                phi[..., first:end] = _apply_matrix(phi[..., first:end], rotation, axes)
    cum = np.cumsum((phi.real**2 + phi.imag**2).reshape(-1, len(used)), axis=0)
    target = u_index * cum[-1, pos]
    # Each column of cum is non-decreasing, so its entries <= target are counted in two
    # passes: whole blocks of `width` entries, then entries of the block that holds the end.
    width = 1 << (n // 2)
    start = np.count_nonzero(cum[width - 1::width, pos] <= target, axis=0)
    start = np.minimum(start, (2**n // width) - 1) * width
    found = start + np.count_nonzero(cum[start + np.arange(width)[:, None], pos] <= target, axis=0)
    index = np.minimum(found, 2**n - 1)
    bits = ((index[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
    if plan.readout_flip > 0.0:
        draws = terminal[:, None] + _SLOT_FLIP + np.arange(n)
        bits ^= (_uniforms(keys[:, None], draws) < plan.readout_flip).astype(np.uint8)
    return bits, clbits[col], sign[col]


@dataclass(frozen=True, eq=False)
class Shots:
    """Sampled shots as arrays, one row per shot in shot-index order.

    bits [S, n_qubits] uint8: terminal bit per qubit in the measured basis.
    clbits [S, n_clbits] uint8: the classical register after the last gate.
    sign [S] int8: the product of (-1)^outcome over signed measurements.
    """

    bits: np.ndarray
    clbits: np.ndarray
    sign: np.ndarray


def _checked_run(inserted, n_shots, seeds, bases, n: int, cuts: int) -> FragmentRun:
    """A run's fields checked, as plain Python values, for a circuit of n qubits with `cuts` cuts."""
    if isinstance(n_shots, bool) or not isinstance(n_shots, numbers.Integral):
        raise ValueError(f"n_shots must be an integer, got {n_shots!r}")
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    inserted = tuple(tuple(piece) for piece in inserted)
    if len(inserted) != cuts:
        raise ValueError(f"need one inserted gate sequence per cut, got {len(inserted)} for {cuts} cuts")
    seeds, bases = list(seeds), list(bases)
    if not bases or len(seeds) != len(bases):
        raise ValueError(f"need one seed per basis and at least one of each, got {len(seeds)} and {len(bases)}")
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError("seed must be a non-negative integer")
    bases = tuple(str(basis) for basis in bases)
    for basis in bases:
        if len(basis) != n or any(ch not in "XYZ" for ch in basis):
            raise ValueError(f"basis must be one of X/Y/Z per qubit, got {basis!r}")
    # _seed_keys needs Python's unbounded integers
    return FragmentRun(inserted, int(n_shots), tuple(int(seed) for seed in seeds), bases)


def sample_fragments(circuit: Circuit, positions, runs, noise=None):
    """Sample the fragments of one cut circuit, each in one or more (seed, basis) pairs, in one pass.

    `positions` are the ascending gate indices of the circuit's cuts, and
    `runs` holds one `FragmentRun` (or its fields) per fragment: `circuit`
    with the gates `inserted[k]` before its gate `positions[k]`.  Yields one
    list of `Shots` per run, one per pair, in run order, as soon as its
    shots are done.  Each equals bit for bit `sample_shots` of the
    fragment's own circuit with that seed and basis.  The shots of every
    (run, seed, basis) triple run as one sequence of blocks: they share
    state columns through the circuit's gates, at each cut the columns split
    by the gates their runs insert there, and each inserted sequence acts
    only on its own columns.  A shot reads its draws from its own
    fragment's gate slots.  The steps, their operators and noise strengths
    come from `_pass_plan`, compiled once per process for each (circuit,
    positions, inserted gates, noise model), and a block's shots are handed
    out as their runs finish, so memory stays bounded at any number of runs.
    """
    if circuit.n_qubits > STATEVECTOR_QUBIT_CAP:  # every column holds 2^n amplitudes
        raise ResourceLimitError(f"{circuit.n_qubits} qubits exceeds statevector cap {STATEVECTOR_QUBIT_CAP}")
    positions = [int(p) for p in positions]
    if positions != sorted(positions) or not all(0 <= p <= len(circuit.gates) for p in positions):
        raise ValueError(f"cut positions must ascend within the circuit's {len(circuit.gates)} gates: {positions}")
    runs = [_checked_run(*run, circuit.n_qubits, len(positions)) for run in runs]
    if not runs:
        raise ValueError("need at least one fragment")
    noise = None if noise is None or getattr(noise, "is_zero", False) else noise
    plan = _pass_plan(circuit, tuple(positions), tuple(run.inserted for run in runs), noise)
    bases = list(dict.fromkeys(basis for run in runs for basis in run.bases))
    pair_run = np.array([r for r, run in enumerate(runs) for _ in run.seeds])
    pair_basis = np.array([bases.index(basis) for run in runs for basis in run.bases])
    pair_shots = np.array([run.n_shots for run in runs for _ in run.seeds])
    seed_keys = _seed_keys([seed for run in runs for seed in run.seeds])
    ends = np.cumsum(pair_shots)
    # Shot s of pair p is entry ends[p] - pair_shots[p] + s; blocks are runs of entries.
    block, total = max(1, _BLOCK_AMPLITUDES >> (circuit.n_qubits + 1)), int(ends[-1])
    pending, first, r = None, 0, 0  # shots not yet handed out, the entry of the first, and its run
    for start in range(0, total, block):
        stop = min(start + block, total)
        entry = np.arange(start, stop)
        pair = np.searchsorted(ends, entry, side="right")
        shot = (entry - ends[pair] + pair_shots[pair]).astype(np.uint64)
        keys = _mix64(seed_keys[pair] ^ _mix64(shot * _GOLDEN))
        part = _sample_block(plan, keys, pair_run[pair], pair_basis[pair], bases)
        pending = part if pending is None else [np.concatenate(c) for c in zip(pending, part)]
        while r < len(runs) and first + len(runs[r].seeds) * runs[r].n_shots <= stop:
            m, count = runs[r].n_shots, len(runs[r].seeds)
            yield [Shots(*(c[j * m:(j + 1) * m] for c in pending)) for j in range(count)]
            pending = [c[count * m:] for c in pending]
            first, r = first + count * m, r + 1


def sample_shots(circuit: Circuit, n_shots: int, seed: int,
                 basis: str | None = None, noise=None) -> Shots:
    """Trajectory sampling with terminal measurement of every qubit.

    `basis` selects the measured Pauli per qubit ('X', 'Y' or 'Z', default
    all-Z) via standard pre-rotations, which are applied noise-free.  Signed
    mid-circuit measurements accumulate the per-shot sign.  A noise model, if
    given, is unraveled stochastically per trajectory: a depolarizing event
    fires with the gate's strength and applies a uniform Pauli per qubit, and
    each terminal bit flips with probability `readout_flip`.  This is the
    one-fragment, one-basis case of `sample_fragments`.
    """
    basis = "Z" * circuit.n_qubits if basis is None else basis
    return next(sample_fragments(circuit, (), [((), n_shots, [seed], [basis])], noise))[0]


def write_shots_csv(shots: Shots, path) -> None:
    """Dump shots as `shot_index, bits, sign` rows, bits as one 0/1 string per shot."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shot_index", "bits", "sign"])
        for i, (bits, sign) in enumerate(zip(shots.bits, shots.sign)):
            writer.writerow([i, "".join(map(str, bits)), int(sign)])
