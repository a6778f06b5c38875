"""Transverse-field Ising ring: Trotter circuits, magnetization, exact reference.

The Hamiltonian is h * sum_i X_i - J * sum_i Z_i Z_{i+1} on a periodic ring.
One first-order Trotter step applies the X layer then the ZZ layer:

    RX(2 h dt) on every qubit          (= exp(-i h dt X) each)
    RZZ(-2 J dt) on every ring edge    (= exp(+i J dt Z(x)Z) each)

The ring-closing edge (0, n-1) is the expensive one on a linear device.  The
builder offers four treatments of it:

    ideal           keep it as a plain gate (statevector-legal baseline)
    routed_original meet-in-the-middle SWAP chain on a path coupling map
    vtqg            virtualize it: a quasi-probability cut site per step
    vtqg_pet        vtqg, plus pulse-efficient RZX compilation of every
                    physical RZZ

For the cut variants the virtual edge is placed first within each ZZ layer
(all ZZ terms commute, so this is free) so the projected-fragment
simplification's product-state precondition holds on the first step.

The initial state is fixed to |0...0>, which pins magnetization to 1 at t=0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CouplingMap, Layout, decompose_rzz_rzx, route_ring_closure, rx, rzz
from .errors import ResourceLimitError
from .qpd import CutSite, decomposition_angle, run_enumerated_exact
from .sim import (
    STATEVECTOR_QUBIT_CAP,
    DensityMatrix,
    PauliObservable,
    StateVector,
    expectations,
    run_statevector,
)

VARIANTS = ("ideal", "routed_original", "vtqg", "vtqg_pet")


@dataclass(frozen=True)
class TfimParams:
    """Ring size, couplings and Trotterization; boundary is always periodic."""

    n_qubits: int
    h: float
    J: float
    dt: float
    n_steps: int = 1

    def __post_init__(self):
        for name in ("n_qubits", "n_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_qubits < 2:
            raise ValueError("the ring needs at least two qubits")
        for name in ("h", "J", "dt"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("at least one Trotter step is required")

    @property
    def theta_rx(self) -> float:
        return 2.0 * self.h * self.dt

    @property
    def theta_zz(self) -> float:
        """Gate angle realizing exp(+i J dt Z(x)Z) per edge."""
        return -2.0 * self.J * self.dt


@dataclass(frozen=True)
class TrotterBuild:
    """A built circuit plus its routing layout and virtual-gate cut sites."""

    variant: str
    circuit: Circuit
    layout: Layout
    cuts: tuple[CutSite, ...] = ()


def build_trotter_circuit(params: TfimParams, variant: str,
                          coupling: CouplingMap | None = None) -> TrotterBuild:
    """Assemble one of the four circuit variants for the given parameters."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    n = params.n_qubits
    if variant == "routed_original" and params.n_steps != 1:
        raise ValueError("routed_original supports a single Trotter step; "
                         "the post-routing layout breaks later ring edges")

    gates = []
    cuts = []
    layout = Layout.identity(n)
    for _ in range(params.n_steps):
        gates += [rx(params.theta_rx, q) for q in range(n)]
        if variant in ("vtqg", "vtqg_pet"):
            cuts.append(CutSite(len(gates), 0, n - 1, decomposition_angle(params.theta_zz)))
        elif variant == "ideal":
            gates.append(rzz(params.theta_zz, 0, n - 1))
        for i in range(n - 1):
            if variant == "vtqg_pet":
                gates += decompose_rzz_rzx(params.theta_zz, (i, i + 1))
            else:
                gates.append(rzz(params.theta_zz, i, i + 1))
    if variant == "routed_original":
        closure, layout = route_ring_closure(n, coupling or CouplingMap.path(n), params.theta_zz)
        gates += list(closure.gates)
    return TrotterBuild(variant, Circuit(n, 0, tuple(gates)), layout, tuple(cuts))


def magnetization(sx, sy, sz) -> float:
    """Euclidean norm of the qubit-averaged Bloch components."""
    sx, sy, sz = list(sx), list(sy), list(sz)
    if not (len(sx) == len(sy) == len(sz)) or not sx:
        raise ValueError("component arrays must be non-empty and equally long")
    means = [float(np.mean(c)) for c in (sx, sy, sz)]
    return math.sqrt(sum(m * m for m in means))


def pauli_components(state: StateVector | DensityMatrix,
                     layout: Layout | None = None) -> tuple[list[float], list[float], list[float]]:
    """Per-qubit <X>, <Y>, <Z> in logical order (read through `layout` if routed).

    A wire's three values come from its one 2x2 marginal (see `sim.expectations`).
    """
    n = state.n_qubits
    values = expectations(state, [PauliObservable.single(n, q, p) for p in "XYZ" for q in range(n)])
    out = [values[j * n:(j + 1) * n] for j in range(3)]
    if layout is not None:
        out = [layout.logical_values(c) for c in out]
    return out[0], out[1], out[2]


def exact_reference(params: TfimParams, max_qubits: int | None = None) -> float:
    """Noiseless magnetization of the ideal circuit from |0...0>; the in-package oracle.

    Up to STATEVECTOR_QUBIT_CAP qubits it is a statevector run; past that, the
    noiseless light-cone evaluation of `run_enumerated_exact`.  A ring larger
    than `max_qubits`, if given, is refused.
    """
    n = params.n_qubits
    if max_qubits is not None and n > max_qubits:
        raise ResourceLimitError(f"{n} qubits exceeds reference cap {max_qubits}")
    build = build_trotter_circuit(params, "ideal")
    if n <= STATEVECTOR_QUBIT_CAP:
        return magnetization(*pauli_components(run_statevector(build.circuit)))
    obs = [PauliObservable.single(n, q, p) for p in "XYZ" for q in range(n)]
    values, _ = run_enumerated_exact(build.circuit, (), obs)
    return magnetization(values[:n], values[n:2 * n], values[2 * n:])
