"""Independent dense-matrix references used to pin expected values.

Everything here is built from raw kron products, 2x2 letter matrices applied
one tensor axis at a time, and scipy matrix exponentials, deliberately sharing
no code with the package's tensor kernels, so the two paths can check each
other.
"""

import itertools

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = (X + Z) / np.sqrt(2)
SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

# Values frozen from this module's own reference computations.
REF_MAG_SINGLE_STEP = 0.8832662171771258   # tfim_reference(n, 0.786, 0.787, 0.5, 1) for any n
REF_COMPONENTS_SINGLE_STEP = (-0.4999970719162995, -0.1753966217996874, 0.706681090409793)
REF_MAG_N4_TWO_STEPS = 0.533668654896841
GAMMA_AT_0787 = 2.41647708610125           # 1 + 2 sin(0.787), grouped-weight 1-norm
EQ_PROB_BETA_0393 = 0.8533405452048967     # cos^2(0.393)


def rzz_unitary(theta):
    """exp(-i theta/2 Z(x)Z) via scipy expm."""
    return expm(-1j * theta / 2 * np.kron(Z, Z))


def rzz_conjugation(theta, rho):
    """exp(+i theta/2 ZZ) rho exp(-i theta/2 ZZ): the decomposed channel."""
    u = expm(+1j * theta / 2 * np.kron(Z, Z))
    return u @ rho @ u.conj().T


def rx_unitary(theta):
    return expm(-1j * theta / 2 * X)


def rz_unitary(theta):
    return expm(-1j * theta / 2 * Z)


def rzx_unitary(theta):
    return expm(-1j * theta / 2 * np.kron(Z, X))


def kron_at(op, q, n):
    mats = [I2] * n
    mats[q] = op
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def kron_two(op4, qa, qb, n):
    """Embed a two-qubit operator acting on (qa, qb); qubit 0 is the MSB."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        c2 = 2 * bits[qa] + bits[qb]
        for r2 in range(4):
            amp = op4[r2, c2]
            if amp == 0:
                continue
            nb = list(bits)
            nb[qa], nb[qb] = r2 >> 1, r2 & 1
            row = 0
            for q in range(n):
                row = (row << 1) | nb[q]
            out[row, col] += amp
    return out


_FIXED = {"X": X, "SX": SX, "H": H, "CNOT": CNOT, "SWAP": SWAP}
_PARAM = {"RX": rx_unitary, "RZ": rz_unitary, "RZZ": rzz_unitary, "RZX": rzx_unitary}


def gate_unitary(g, n):
    """A package Gate's unitary on n qubits, by plain kron embedding."""
    kind = g.kind.value
    mat = _FIXED[kind] if kind in _FIXED else _PARAM[kind](g.angle)
    if len(g.qubits) == 1:
        return kron_at(mat, g.qubits[0], n)
    return kron_two(mat, g.qubits[0], g.qubits[1], n)


def dense_unitary(circuit):
    """Full unitary of a package Circuit, built by plain kron embedding."""
    n = circuit.n_qubits
    u = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        u = gate_unitary(g, n) @ u
    return u


def pauli_twirl(rho, qubits, p, n):
    """(1-p) rho + p times the uniform average of P rho P^dag over Pauli strings P on `qubits`."""
    out = np.zeros_like(rho)
    for letters in itertools.product((I2, X, Y, Z), repeat=len(qubits)):
        op = np.eye(2**n, dtype=complex)
        for q, mat in zip(qubits, letters):
            op = op @ kron_at(mat, q, n)
        out += op @ rho @ op.conj().T
    return (1 - p) * rho + p * out / 4 ** len(qubits)


_KET_BRA = [[np.outer(I2[i], I2[j]) for j in (0, 1)] for i in (0, 1)]  # |i><j|


def noisy_density(circuit, strength):
    """Density matrix of a package Circuit from |0...0>, each gate followed by its depolarizing twirl.

    `strength(gate)` gives the twirl's p.  A measurement splits every branch
    (rho, clbits, sign) into its two projector branches, outcome 1 of a
    signed one with its sign flipped; a reset is the channel with Kraus
    operators |0><0| and |0><1|; a classically controlled gate, and its
    noise, act only on branches whose bit reads 1.  Returns the signed sum
    of the branches.
    """
    n = circuit.n_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    branches = [(rho, [0] * circuit.n_clbits, 1)]
    for g in circuit.gates:
        kind, p = g.kind.value, strength(g)
        out = []
        for rho, bits, sign in branches:
            if kind == "MEASURE_Z":
                for outcome in (0, 1):
                    proj = kron_at(_KET_BRA[outcome][outcome], g.qubits[0], n)
                    flipped = list(bits)
                    flipped[g.clbit] = outcome
                    signed = -sign if g.signed and outcome else sign
                    out.append((pauli_twirl(proj @ rho @ proj, g.qubits, p, n), flipped, signed))
                continue
            if kind == "RESET":
                kraus = [kron_at(_KET_BRA[0][j], g.qubits[0], n) for j in (0, 1)]
                rho = pauli_twirl(sum(k @ rho @ k.conj().T for k in kraus), g.qubits, p, n)
            elif kind != "CLASSICALLY_CONTROLLED" or bits[g.clbit] == 1:
                u = gate_unitary(g.inner if kind == "CLASSICALLY_CONTROLLED" else g, n)
                rho = pauli_twirl(u @ rho @ u.conj().T, g.qubits, p, n)
            out.append((rho, bits, sign))
        branches = out
    return sum(sign * rho for rho, _, sign in branches)


def layout_permutation(layout, n):
    """Unitary moving logical wire l onto physical wire layout.physical(l)."""
    p = np.eye(2**n).reshape([2] * n + [2**n])
    p = np.moveaxis(p, list(range(n)), [layout.physical(l) for l in range(n)])
    return p.reshape(2**n, 2**n).astype(complex)


def phase_overlap(u, v):
    """|Tr(U^dag V)| / dim: 1 iff equal up to global phase."""
    return abs(np.trace(u.conj().T @ v)) / u.shape[0]


def random_density(n, rng):
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def pauli_expectation(state, string):
    """Tr(P rho) for a density matrix, <psi|P|psi> for a vector, with P the string's letters, each on its own axis.

    Each letter's 2x2 matrix acts on its qubit's axis of the state tensor (a
    density matrix's row axis), so the full 2^n x 2^n matrix of P is never built.
    """
    n = len(string)
    out = state.reshape([2] * (n if state.ndim == 1 else 2 * n))
    for q, ch in enumerate(string):
        if ch != "I":
            out = np.moveaxis(np.tensordot({"X": X, "Y": Y, "Z": Z}[ch], out, axes=([1], [q])), 0, q)
    if state.ndim == 1:
        return float(np.vdot(state, out.reshape(-1)).real)
    return float(np.trace(out.reshape(state.shape)).real)


def random_hermitian(n, rng):
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def tfim_reference(n, h, J, dt, steps):
    """Trotterized ring magnetization from dense per-term exponentials."""
    dim = 2**n
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    ux = np.eye(dim, dtype=complex)
    for q in range(n):
        ux = kron_at(expm(-1j * h * dt * X), q, n) @ ux
    uzz = np.eye(dim, dtype=complex)
    for a, b in [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]:
        uzz = kron_two(expm(+1j * J * dt * np.kron(Z, Z)), a, b, n) @ uzz
    for _ in range(steps):
        psi = uzz @ (ux @ psi)
    comps = []
    for pauli in (X, Y, Z):
        vals = [np.real(np.vdot(psi, kron_at(pauli, q, n) @ psi)) for q in range(n)]
        comps.append(float(np.mean(vals)))
    return comps, float(np.sqrt(sum(c * c for c in comps)))
