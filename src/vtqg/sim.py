"""Exact statevector and density-matrix simulation with measurement instruments.

State indexing: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of the flat index.  A statevector reshaped to [2]*n exposes
qubit q as axis q; a density matrix reshaped to [2]*(2n) exposes qubit q as
row axis q and column axis n+q.

Density matrices are carried with their raw trace and nothing here ever
renormalizes.  Expectation values are likewise raw traces, which keeps the
whole pipeline linear in the state.

Shot sampling draws one pseudo-random stream per shot from
PCG64(SeedSequence(seed, spawn_key=(shot_index,))), so a (circuit, seed,
n_shots) triple reproduces bit-identical outcomes on any platform and shot
batches may be partitioned across workers without changing results.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .errors import InvalidCircuitError, ResourceLimitError, StatevectorModeError

DENSITY_QUBIT_CAP = 10
STATEVECTOR_QUBIT_CAP = 16

_SQ2 = 1.0 / math.sqrt(2.0)
_MAT_1Q = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.SX: 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    GateKind.H: _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex),
}
_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _rx_matrix(a: float) -> np.ndarray:
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _rz_matrix(a: float) -> np.ndarray:
    return np.array([[np.exp(-1j * a / 2), 0], [0, np.exp(1j * a / 2)]], dtype=complex)


def _rzz_matrix(a: float) -> np.ndarray:
    p, m = np.exp(-1j * a / 2), np.exp(1j * a / 2)
    return np.diag([p, m, m, p]).astype(complex)


def _rzx_matrix(a: float) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = _rx_matrix(a)
    out[2:, 2:] = _rx_matrix(-a)
    return out


_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense 2x2 or 4x4 matrix of a unitary gate."""
    if g.kind in _MAT_1Q:
        return _MAT_1Q[g.kind]
    if g.kind == GateKind.RX:
        return _rx_matrix(g.angle)
    if g.kind == GateKind.RZ:
        return _rz_matrix(g.angle)
    if g.kind == GateKind.RZZ:
        return _rzz_matrix(g.angle)
    if g.kind == GateKind.RZX:
        return _rzx_matrix(g.angle)
    if g.kind == GateKind.CNOT:
        return _CNOT
    if g.kind == GateKind.SWAP:
        return _SWAP
    raise ValueError(f"{g.kind.value} has no unitary matrix")


# --- tensor kernels -------------------------------------------------------


def _apply_1q(tensor: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, tensor, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def _apply_2q(tensor: np.ndarray, mat4: np.ndarray, ax_a: int, ax_b: int) -> np.ndarray:
    u = mat4.reshape(2, 2, 2, 2)
    out = np.tensordot(u, tensor, axes=([2, 3], [ax_a, ax_b]))
    return np.moveaxis(out, [0, 1], [ax_a, ax_b])


def _mul_diag(tensor: np.ndarray, diag: np.ndarray, axis: int) -> np.ndarray:
    shape = [1] * tensor.ndim
    shape[axis] = 2
    return tensor * diag.reshape(shape)


def _mul_diag2(tensor: np.ndarray, diag2: np.ndarray, ax_a: int, ax_b: int) -> np.ndarray:
    shape = [1] * tensor.ndim
    shape[ax_a] = 2
    shape[ax_b] = 2
    return tensor * diag2.reshape(shape)


def _gate_diagonal(g: Gate) -> np.ndarray | None:
    """Broadcastable phase array for Z-diagonal gates; None for everything else."""
    if g.kind == GateKind.RZ:
        return np.array([np.exp(-1j * g.angle / 2), np.exp(1j * g.angle / 2)])
    if g.kind == GateKind.RZZ:
        p, m = np.exp(-1j * g.angle / 2), np.exp(1j * g.angle / 2)
        return np.array([[p, m], [m, p]])
    return None


def _apply_unitary_rows(tensor: np.ndarray, g: Gate) -> np.ndarray:
    """Apply a unitary gate to the row (qubit) axes of a state tensor."""
    diag = _gate_diagonal(g)
    if diag is not None:
        if len(g.qubits) == 1:
            return _mul_diag(tensor, diag, g.qubits[0])
        return _mul_diag2(tensor, diag, g.qubits[0], g.qubits[1])
    mat = gate_matrix(g)
    if len(g.qubits) == 1:
        return _apply_1q(tensor, mat, g.qubits[0])
    return _apply_2q(tensor, mat, g.qubits[0], g.qubits[1])


def _apply_unitary_density(rho_t: np.ndarray, g: Gate, n: int) -> np.ndarray:
    diag = _gate_diagonal(g)
    if diag is not None:
        if len(g.qubits) == 1:
            q = g.qubits[0]
            return _mul_diag(_mul_diag(rho_t, diag, q), diag.conj(), n + q)
        a, b = g.qubits
        return _mul_diag2(_mul_diag2(rho_t, diag, a, b), diag.conj(), n + a, n + b)
    mat = gate_matrix(g)
    if len(g.qubits) == 1:
        q = g.qubits[0]
        rho_t = _apply_1q(rho_t, mat, q)
        return _apply_1q(rho_t, mat.conj(), n + q)
    a, b = g.qubits
    rho_t = _apply_2q(rho_t, mat, a, b)
    return _apply_2q(rho_t, mat.conj(), n + a, n + b)


def _project_density(rho_t: np.ndarray, q: int, outcome: int, n: int) -> np.ndarray:
    """P rho P for the Z-basis projector onto `outcome`, unnormalized."""
    out = rho_t.copy()
    idx = [slice(None)] * (2 * n)
    idx[q] = 1 - outcome
    out[tuple(idx)] = 0.0
    idx = [slice(None)] * (2 * n)
    idx[n + q] = 1 - outcome
    out[tuple(idx)] = 0.0
    return out


def _reset_density(rho_t: np.ndarray, q: int, n: int) -> np.ndarray:
    """Trace out qubit q and replace it with |0><0|."""
    traced = np.trace(rho_t, axis1=q, axis2=n + q)
    out = np.zeros_like(rho_t)
    idx = [slice(None)] * (2 * n)
    idx[q] = 0
    idx[n + q] = 0
    out[tuple(idx)] = traced
    return out


def _partial_trace(rho_t: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    remaining = list(range(n))
    out = rho_t
    for q in sorted(qubits, reverse=True):
        i = remaining.index(q)
        out = np.trace(out, axis1=i, axis2=len(remaining) + i)
        remaining.pop(i)
    return out


def depolarize_tensor(rho_t: np.ndarray, qubits: tuple[int, ...], p: float, n: int) -> np.ndarray:
    """(1-p) rho + p (I/2^k (x) Tr_qubits rho) on the participating qubits."""
    if p == 0.0:
        return rho_t
    traced = _partial_trace(rho_t, qubits, n)
    mixed = np.zeros_like(rho_t)
    k = len(qubits)
    for bits in itertools.product((0, 1), repeat=k):
        idx = [slice(None)] * (2 * n)
        for q, b in zip(qubits, bits):
            idx[q] = b
            idx[n + q] = b
        mixed[tuple(idx)] = traced / 2**k
    return (1.0 - p) * rho_t + p * mixed


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

    @classmethod
    def single(cls, n: int, qubit: int, pauli: str, weight: float = 1.0) -> "PauliObservable":
        s = "".join(pauli if q == qubit else "I" for q in range(n))
        return cls(((s, weight),))


@dataclass(frozen=True)
class ShotOutcome:
    """One sampled trajectory: terminal bit per qubit, classical register, sign."""

    bits: tuple[int, ...]
    clbits: tuple[int, ...]
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


# --- statevector execution --------------------------------------------------


def run_statevector(circuit: Circuit, max_qubits: int = STATEVECTOR_QUBIT_CAP) -> StateVector:
    """Exact state after a unitary-only circuit, from |0...0>."""
    if circuit.n_qubits > max_qubits:
        raise ResourceLimitError(f"{circuit.n_qubits} qubits exceeds statevector cap {max_qubits}")
    for g in circuit.gates:
        if not g.is_unitary:
            raise StatevectorModeError(f"{g.kind.value} is not supported in statevector mode")
    t = StateVector.zero(circuit.n_qubits).amps.reshape([2] * circuit.n_qubits)
    for g in circuit.gates:
        t = _apply_unitary_rows(t, g)
    return StateVector(circuit.n_qubits, t.reshape(-1))


def circuit_unitary(circuit: Circuit, max_qubits: int = 12) -> np.ndarray:
    """Dense unitary of a measurement-free circuit."""
    n = circuit.n_qubits
    if n > max_qubits:
        raise ResourceLimitError(f"{n} qubits exceeds unitary cap {max_qubits}")
    for g in circuit.gates:
        if not g.is_unitary:
            raise StatevectorModeError(f"{g.kind.value} has no circuit unitary")
    dim = 2**n
    t = np.eye(dim, dtype=complex).reshape([2] * n + [dim])  # trailing axis = input basis state
    for g in circuit.gates:
        t = _apply_unitary_rows(t, g)
    return t.reshape(dim, dim)


# --- density-matrix execution ------------------------------------------------


class _Branch:
    __slots__ = ("rho", "clbits", "sign")

    def __init__(self, rho: np.ndarray, clbits: list[int], sign: int):
        self.rho = rho
        self.clbits = clbits
        self.sign = sign


def _gate_strength(noise, g: Gate) -> float:
    return 0.0 if noise is None else noise.strength_for(g)


def _evolve_branches(branches: list[_Branch], gates, noise, n: int) -> list[_Branch]:
    for g in gates:
        p = _gate_strength(noise, g)
        if g.kind == GateKind.MEASURE_Z:
            q = g.qubits[0]
            split: list[_Branch] = []
            for br in branches:
                for outcome in (0, 1):
                    rho = _project_density(br.rho, q, outcome, n)
                    if p:
                        rho = depolarize_tensor(rho, g.qubits, p, n)
                    clbits = list(br.clbits)
                    clbits[g.clbit] = outcome
                    sign = br.sign * (-1 if (g.signed and outcome == 1) else 1)
                    split.append(_Branch(rho, clbits, sign))
            branches = split
        elif g.kind == GateKind.RESET:
            for br in branches:
                br.rho = _reset_density(br.rho, g.qubits[0], n)
                if p:
                    br.rho = depolarize_tensor(br.rho, g.qubits, p, n)
        elif g.kind == GateKind.CLASSICALLY_CONTROLLED:
            for br in branches:
                if br.clbits[g.clbit] == 1:
                    br.rho = _apply_unitary_density(br.rho, g.inner, n)
                    if p:
                        br.rho = depolarize_tensor(br.rho, g.qubits, p, n)
        else:
            for br in branches:
                br.rho = _apply_unitary_density(br.rho, g, n)
                if p:
                    br.rho = depolarize_tensor(br.rho, g.qubits, p, n)
    return branches


def apply_gates_density(state: DensityMatrix, gates, noise=None) -> DensityMatrix:
    """Evolve a density matrix through a gate sequence under an optional noise model.

    Measurements apply the full Z instrument: the state branches per outcome
    and the branches are summed back (outcome 1 of a signed measurement with
    sign -1) on return.  Classical feedback therefore only sees bits
    measured within this same call.
    """
    n = state.n_qubits
    gates = list(gates)
    n_clbits = 1 + max((g.clbit for g in gates if g.clbit is not None), default=-1)
    branches = [_Branch(state.tensor().copy(), [0] * n_clbits, 1)]
    branches = _evolve_branches(branches, gates, noise, n)
    total = branches[0].sign * branches[0].rho
    for br in branches[1:]:
        total = total + br.sign * br.rho
    d = 2**n
    return DensityMatrix(n, total.reshape(d, d))


def run_density(circuit: Circuit, noise=None, *, initial: DensityMatrix | None = None,
                max_qubits: int = DENSITY_QUBIT_CAP) -> DensityMatrix:
    """Exact channel evaluation: every gate, then the noise assigned to it."""
    if circuit.n_qubits > max_qubits:
        raise ResourceLimitError(f"{circuit.n_qubits} qubits exceeds density cap {max_qubits}")
    if initial is None:
        initial = DensityMatrix.zero(circuit.n_qubits)
    elif initial.n_qubits != circuit.n_qubits:
        raise InvalidCircuitError("initial state size does not match the circuit")
    return apply_gates_density(initial, circuit.gates, noise)


# --- expectation values -------------------------------------------------------


def _apply_pauli_string_rows(tensor: np.ndarray, string: str) -> np.ndarray:
    for q, ch in enumerate(string):
        if ch == "I":
            continue
        tensor = _apply_1q(tensor, _PAULI[ch], q)
    return tensor


def expectation(state: StateVector | DensityMatrix, obs: PauliObservable) -> float:
    """<obs>: raw trace for density matrices (no renormalization), <psi|P|psi> for vectors."""
    if obs.n_qubits != state.n_qubits:
        raise ValueError(f"observable on {obs.n_qubits} qubits, state on {state.n_qubits}")
    n = state.n_qubits
    total = 0.0
    if isinstance(state, StateVector):
        psi = state.amps.reshape([2] * n)
        for s, w in obs.terms:
            total += w * float(np.vdot(psi, _apply_pauli_string_rows(psi, s)).real)
        return total
    dim = 2**n
    for s, w in obs.terms:
        support = [q for q, ch in enumerate(s) if ch != "I"]
        if len(support) <= 1:
            # reduce to the 2x2 (or scalar) marginal instead of touching the full state
            others = tuple(q for q in range(n) if q not in support)
            reduced = _partial_trace(state.tensor(), others, n) if others else state.tensor()
            if support:
                total += w * float(np.trace(_PAULI[s[support[0]]] @ reduced).real)
            else:
                total += w * float(reduced.real)
            continue
        t = _apply_pauli_string_rows(state.tensor(), s)
        total += w * float(np.trace(t.reshape(dim, dim)).real)
    return total


# --- shot sampling -------------------------------------------------------------

_BASIS_ROT = {
    "Z": None,
    "X": _MAT_1Q[GateKind.H],
    # Rz(-pi/2) then H: maps the Y eigenbasis onto the Z basis.
    "Y": _MAT_1Q[GateKind.H] @ np.array([[1, 0], [0, -1j]], dtype=complex),
}


def _shot_rng(seed: int, shot: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(shot,)))


def _measure_prob_one(psi_t: np.ndarray, q: int, n: int) -> float:
    probs = np.abs(psi_t) ** 2
    p1 = float(probs.sum(axis=tuple(i for i in range(n) if i != q))[1])
    return min(max(p1, 0.0), 1.0)


def _collapse(psi_t: np.ndarray, q: int, outcome: int, p: float, n: int) -> np.ndarray:
    out = psi_t.copy()
    idx = [slice(None)] * n
    idx[q] = 1 - outcome
    out[tuple(idx)] = 0.0
    return out / math.sqrt(p) if p > 0.0 else out


class _Leaf:
    __slots__ = ("cum",)

    def __init__(self, cum: np.ndarray):
        self.cum = cum


class _Split:
    __slots__ = ("p1", "clbit", "signed", "flip_on_one", "kids")

    def __init__(self, p1, clbit, signed, flip_on_one):
        self.p1 = p1
        self.clbit = clbit
        self.signed = signed
        self.flip_on_one = flip_on_one  # RESET re-prepares |0> after an outcome of 1
        self.kids: list = [None, None]


def _apply_basis_rotations(psi_t: np.ndarray, basis: str) -> np.ndarray:
    for q, ch in enumerate(basis):
        rot = _BASIS_ROT[ch]
        if rot is not None:
            psi_t = _apply_1q(psi_t, rot, q)
    return psi_t


def _build_branch_tree(gates, idx, psi_t, clbits, n, basis):
    """Unroll measurement branching once so per-shot replay is cheap."""
    i = idx
    while i < len(gates):
        g = gates[i]
        if g.kind in (GateKind.MEASURE_Z, GateKind.RESET):
            p1 = _measure_prob_one(psi_t, g.qubits[0], n)
            node = _Split(p1, g.clbit, g.signed, g.kind == GateKind.RESET)
            for outcome in (0, 1):
                p = p1 if outcome == 1 else 1.0 - p1
                if p <= 0.0:
                    continue
                kid = _collapse(psi_t, g.qubits[0], outcome, p, n)
                if node.flip_on_one and outcome == 1:
                    kid = _apply_1q(kid, _MAT_1Q[GateKind.X], g.qubits[0])
                kid_clbits = clbits if g.clbit is None else {**clbits, g.clbit: outcome}
                node.kids[outcome] = _build_branch_tree(gates, i + 1, kid, kid_clbits, n, basis)
            return node
        if g.kind == GateKind.CLASSICALLY_CONTROLLED:
            if clbits.get(g.clbit, 0) == 1:
                psi_t = _apply_unitary_rows(psi_t, g.inner)
        else:
            psi_t = _apply_unitary_rows(psi_t, g)
        i += 1
    psi_t = _apply_basis_rotations(psi_t, basis)
    probs = np.abs(psi_t.reshape(-1)) ** 2
    cum = np.cumsum(probs)
    cum /= cum[-1]
    return _Leaf(cum)


def _bits_of_index(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> (n - 1 - q)) & 1 for q in range(n))


def _sample_fast(circuit: Circuit, n_shots: int, seed: int, basis: str) -> list[ShotOutcome]:
    n = circuit.n_qubits
    root = _build_branch_tree(circuit.gates, 0, StateVector.zero(n).amps.reshape([2] * n), {}, n, basis)
    out = []
    for shot in range(n_shots):
        rng = _shot_rng(seed, shot)
        clbits = [0] * circuit.n_clbits
        sign = 1
        node = root
        while isinstance(node, _Split):
            outcome = 1 if rng.random() < node.p1 else 0
            if node.kids[outcome] is None:  # numerically impossible branch
                outcome = 1 - outcome
            if node.clbit is not None:
                clbits[node.clbit] = outcome
            if node.signed and outcome == 1:
                sign = -sign
            node = node.kids[outcome]
        index = int(np.searchsorted(node.cum, rng.random(), side="right"))
        index = min(index, 2**n - 1)
        out.append(ShotOutcome(_bits_of_index(index, n), tuple(clbits), sign))
    return out


def _sample_one_noisy(circuit: Circuit, rng: np.random.Generator, basis: str, noise) -> ShotOutcome:
    """Single stochastic trajectory: depolarizing events unraveled as random Paulis."""
    n = circuit.n_qubits
    psi_t = StateVector.zero(n).amps.reshape([2] * n)
    clbits = [0] * circuit.n_clbits
    sign = 1

    def noise_event(g: Gate):
        nonlocal psi_t
        p = noise.strength_for(g)
        if p <= 0.0:
            return
        if rng.random() >= p:
            return
        for q in g.qubits:  # uniform Pauli per participating qubit = the same channel
            k = int(rng.integers(4))
            if k:
                psi_t = _apply_1q(psi_t, _PAULI["XYZ"[k - 1]], q)

    for g in circuit.gates:
        if g.kind in (GateKind.MEASURE_Z, GateKind.RESET):
            q = g.qubits[0]
            p1 = _measure_prob_one(psi_t, q, n)
            outcome = 1 if rng.random() < p1 else 0
            psi_t = _collapse(psi_t, q, outcome, p1 if outcome else 1.0 - p1, n)
            if g.kind == GateKind.RESET and outcome == 1:
                psi_t = _apply_1q(psi_t, _MAT_1Q[GateKind.X], q)
            if g.clbit is not None:
                clbits[g.clbit] = outcome
            if g.signed and outcome == 1:
                sign = -sign
            noise_event(g)
        elif g.kind == GateKind.CLASSICALLY_CONTROLLED:
            if clbits[g.clbit] == 1:
                psi_t = _apply_unitary_rows(psi_t, g.inner)
                noise_event(g)
        else:
            psi_t = _apply_unitary_rows(psi_t, g)
            noise_event(g)
    psi_t = _apply_basis_rotations(psi_t, basis)
    probs = np.abs(psi_t.reshape(-1)) ** 2
    cum = np.cumsum(probs)
    cum /= cum[-1]
    index = min(int(np.searchsorted(cum, rng.random(), side="right")), 2**n - 1)
    bits = list(_bits_of_index(index, n))
    if noise.readout_flip > 0.0:
        for q in range(n):
            if rng.random() < noise.readout_flip:
                bits[q] = 1 - bits[q]
    return ShotOutcome(tuple(bits), tuple(clbits), sign)


def sample_shots(circuit: Circuit, n_shots: int, seed: int,
                 basis: str | None = None, noise=None) -> list[ShotOutcome]:
    """Trajectory sampling with terminal measurement of every qubit.

    `basis` selects the measured Pauli per qubit ('X', 'Y' or 'Z', default
    all-Z) via standard pre-rotations, which are applied noise-free.  Signed
    mid-circuit measurements accumulate the per-shot sign.
    A noise model, if given, is unraveled stochastically per trajectory.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    if not isinstance(seed, int) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    n = circuit.n_qubits
    basis = "Z" * n if basis is None else str(basis)
    if len(basis) != n or any(ch not in "XYZ" for ch in basis):
        raise ValueError(f"basis must be one of X/Y/Z per qubit, got {basis!r}")
    if noise is not None and getattr(noise, "is_zero", False):
        noise = None
    if noise is None:
        return _sample_fast(circuit, n_shots, seed, basis)
    return [_sample_one_noisy(circuit, _shot_rng(seed, shot), basis, noise) for shot in range(n_shots)]


def write_shots_csv(outcomes: list[ShotOutcome], path) -> None:
    """Dump shots as `shot_index, bits, sign` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shot_index", "bits", "sign"])
        for i, o in enumerate(outcomes):
            writer.writerow([i, "".join(str(b) for b in o.bits), o.sign])
