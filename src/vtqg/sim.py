"""Exact statevector and density-matrix simulation with measurement instruments.

State indexing: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of the flat index.  A statevector reshaped to [2]*n exposes
qubit q as axis q; a density matrix reshaped to [2]*(2n) exposes qubit q as
row axis q and column axis n+q.

Density matrices are carried with their raw trace and nothing here ever
renormalizes.  Expectation values are likewise raw traces, which keeps the
whole pipeline linear in the state.

Shot sampling advances a block of shots together: the block is one state
tensor with the shot as its trailing axis, [2]*n + [shots], so the row
kernels below apply to every shot at once.  Every random number is a
counter-based uniform u(seed, shot, draw), output `draw` of a SplitMix64
stream whose state starts at a hash of (seed, shot), and each gate owns fixed
draw slots.  A shot's outcome therefore depends only on (circuit, seed, shot
index): a (circuit, seed, n_shots) triple reproduces bit-identical outcomes
on any platform, a shorter run is a prefix of a longer one, and the split
into blocks changes nothing.  These streams replaced one PCG64 SeedSequence
stream per shot, so sampled bits differ from that earlier sampler.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
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
_PAULI_STACK = np.stack([np.eye(2, dtype=complex), _PAULI["X"], _PAULI["Y"], _PAULI["Z"]])

# Amplitudes the sampler holds at once (16 MiB of complex128): shots run in
# blocks of _BLOCK_AMPLITUDES >> n_qubits, which bounds memory at any n_shots.
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
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _shot_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Stream key of each shot in [start, stop): every 64-bit word of the seed, then the index."""
    key = np.zeros(1, dtype=np.uint64)
    while True:
        key = _mix64(key ^ np.uint64(seed & _MASK64))
        seed >>= 64
        if not seed:
            break
    return _mix64(key ^ _mix64(np.arange(start, stop, dtype=np.uint64) * _GOLDEN))


def _uniforms(keys: np.ndarray, draws) -> np.ndarray:
    """u(seed, shot, draw) in [0, 1): output `draw` of a SplitMix64 stream started at the shot key."""
    steps = (np.asarray(draws, dtype=np.uint64).reshape(-1) + np.uint64(1)) * _GOLDEN
    return (_mix64(keys + steps) >> np.uint64(11)) * 2.0**-53


def _apply_basis_rotations(psi_t: np.ndarray, basis: str) -> np.ndarray:
    for q, ch in enumerate(basis):
        rot = _BASIS_ROT[ch]
        if rot is not None:
            psi_t = _apply_1q(psi_t, rot, q)
    return psi_t


def _measure_shots(psi: np.ndarray, q: int, u: np.ndarray, reset: bool):
    """Z-measure qubit q of every shot: draw, collapse, renormalize; reset re-prepares |0>.

    Returns (state, outcomes).  A shot whose drawn outcome has zero probability
    is left as the zero vector rather than divided by zero.
    """
    shots = psi.shape[-1]
    one = np.take(psi, 1, axis=q)
    p1 = np.clip((one.real**2 + one.imag**2).reshape(-1, shots).sum(axis=0), 0.0, 1.0)
    outcome = u < p1
    p = np.where(outcome, p1, 1.0 - p1)
    scale = np.divide(1.0, np.sqrt(p), out=np.zeros_like(p), where=p > 0.0)
    diag = np.stack([np.where(outcome, 0.0, scale), np.where(outcome, scale, 0.0)])  # [2, shots]
    shape = [1] * psi.ndim
    shape[q], shape[-1] = 2, shots
    psi = psi * diag.reshape(shape)
    if reset:
        kept = psi.sum(axis=q)  # the other half is zero
        psi = np.stack([kept, np.zeros_like(kept)], axis=q)
    return psi, outcome


def _depolarize_shots(psi: np.ndarray, qubits, p: float, keys: np.ndarray, draw: int,
                      active: np.ndarray | None) -> np.ndarray:
    """Unravel depolarizing noise: where u < p, a uniform Pauli (I, X, Y or Z) on each qubit."""
    if p <= 0.0:
        return psi
    hit = _uniforms(keys, draw + _SLOT_EVENT) < p
    if active is not None:
        hit &= active
    if not hit.any():
        return psi
    sub, sub_keys = psi[..., hit], keys[hit]
    for k, q in enumerate(qubits):
        mats = _PAULI_STACK[(4.0 * _uniforms(sub_keys, draw + _SLOT_PAULI + k)).astype(np.intp)]
        sub = np.moveaxis(np.einsum("sij,j...s->i...s", mats, np.moveaxis(sub, q, 0)), 0, q)
    psi[..., hit] = sub
    return psi


def _sample_block(circuit: Circuit, keys: np.ndarray, basis: str, noise):
    """Advance every shot of a block together; the state is one tensor [2]*n + [shots]."""
    n, shots = circuit.n_qubits, len(keys)
    psi = np.zeros([2] * n + [shots], dtype=complex)
    psi[(0,) * n] = 1.0
    clbits = np.zeros((shots, circuit.n_clbits), dtype=np.uint8)
    sign = np.ones(shots, dtype=np.int8)
    for i, g in enumerate(circuit.gates):
        draw = _DRAWS_PER_GATE * i
        active = None
        if g.kind in (GateKind.MEASURE_Z, GateKind.RESET):
            psi, outcome = _measure_shots(psi, g.qubits[0], _uniforms(keys, draw + _SLOT_OUTCOME),
                                          g.kind == GateKind.RESET)
            if g.clbit is not None:
                clbits[:, g.clbit] = outcome
            if g.signed:
                sign[outcome] *= -1
        elif g.kind == GateKind.CLASSICALLY_CONTROLLED:
            active = clbits[:, g.clbit] == 1
            psi = np.where(active, _apply_unitary_rows(psi, g.inner), psi)
        else:
            psi = _apply_unitary_rows(psi, g)
        if noise is not None:
            psi = _depolarize_shots(psi, g.qubits, noise.strength_for(g), keys, draw, active)
    psi = _apply_basis_rotations(psi, basis)
    cum = np.cumsum((psi.real**2 + psi.imag**2).reshape(-1, shots), axis=0)
    terminal = _DRAWS_PER_GATE * len(circuit.gates)
    target = _uniforms(keys, terminal + _SLOT_INDEX) * cum[-1]
    index = np.minimum(np.count_nonzero(cum <= target, axis=0), 2**n - 1)
    bits = ((index[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
    if noise is not None and noise.readout_flip > 0.0:
        draws = terminal + _SLOT_FLIP + np.arange(n)
        bits ^= (_uniforms(keys[:, None], draws) < noise.readout_flip).astype(np.uint8)
    return bits, clbits, sign


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


def sample_shots(circuit: Circuit, n_shots: int, seed: int,
                 basis: str | None = None, noise=None) -> Shots:
    """Trajectory sampling with terminal measurement of every qubit.

    `basis` selects the measured Pauli per qubit ('X', 'Y' or 'Z', default
    all-Z) via standard pre-rotations, which are applied noise-free.  Signed
    mid-circuit measurements accumulate the per-shot sign.  A noise model, if
    given, is unraveled stochastically per trajectory: a depolarizing event
    fires with the gate's strength and applies a uniform Pauli per qubit, and
    each terminal bit flips with probability `readout_flip`.
    """
    if isinstance(n_shots, bool) or not isinstance(n_shots, numbers.Integral):
        raise ValueError(f"n_shots must be an integer, got {n_shots!r}")
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
    block = max(1, _BLOCK_AMPLITUDES >> n)
    parts = [_sample_block(circuit, _shot_keys(seed, start, min(start + block, n_shots)), basis, noise)
             for start in range(0, n_shots, block)]
    return Shots(*(np.concatenate(column) for column in zip(*parts)))


def write_shots_csv(shots: Shots, path) -> None:
    """Dump shots as `shot_index, bits, sign` rows, bits as one 0/1 string per shot."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shot_index", "bits", "sign"])
        for i, (bits, sign) in enumerate(zip(shots.bits, shots.sign)):
            writer.writerow([i, "".join(map(str, bits)), int(sign)])
