"""Depolarizing noise model keyed to reported average device gate errors.

Defaults follow the device figures the experiments are calibrated against:
0.03% per single-qubit gate and 0.87% per CNOT, used directly as depolarizing
strengths.  Two-qubit gates that compile to several CNOTs pay the composed
channel: RZZ costs two CNOT applications, SWAP three.  A pulse-efficient RZX
instead pays p2 scaled by its pulse area |theta|/pi (floored at p1, capped at
p2), modeling the shorter native cross-resonance schedule.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

from .circuit import Gate, GateKind
from .sim import DensityMatrix, depolarize_tensor

PET_OFF = "off"
PET_LINEAR = "linear_in_angle"


@dataclass(frozen=True)
class NoiseModel:
    p1: float = 0.0003
    p2: float = 0.0087
    pet_scaling: str = PET_LINEAR
    reset_error: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "reset_error", "readout_flip"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, numbers.Real) and math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a probability in [0, 1], got {v}")
            object.__setattr__(self, name, float(v))  # a numpy scalar would not serialize to JSON
        if self.pet_scaling not in (PET_OFF, PET_LINEAR):
            raise ValueError(f"unknown pet_scaling {self.pet_scaling!r}")

    @property
    def is_zero(self) -> bool:
        return self.p1 == self.p2 == self.reset_error == self.readout_flip == 0.0

    def strength_for(self, gate: Gate) -> float:
        """Depolarizing strength applied right after the gate."""
        if gate.kind == GateKind.CLASSICALLY_CONTROLLED:
            return self.strength_for(gate.inner)
        if gate.kind in (GateKind.MEASURE_Z, GateKind.RESET):
            return self.reset_error
        if gate.kind == GateKind.CNOT:
            return self.p2
        if gate.kind == GateKind.SWAP:
            return 1.0 - (1.0 - self.p2) ** 3  # three CNOTs back to back
        if gate.kind == GateKind.RZZ:
            return 1.0 - (1.0 - self.p2) ** 2  # standard two-CNOT compilation
        if gate.kind == GateKind.RZX:
            if gate.pet and self.pet_scaling == PET_LINEAR:
                return min(max(self.p2 * abs(gate.angle) / math.pi, self.p1), self.p2)
            return self.p2
        return self.p1

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "NoiseModel":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, obj: dict) -> "NoiseModel":
        known = {"p1", "p2", "pet_scaling", "reset_error", "readout_flip"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown noise model fields: {sorted(unknown)}")
        return cls(**obj)


def depolarize(state: DensityMatrix, qubits: tuple[int, ...] | list[int], p: float) -> DensityMatrix:
    """rho -> (1-p) rho + p (maximally mixed on `qubits` (x) marginal on the rest)."""
    if isinstance(p, bool) or not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"depolarizing strength must be in [0, 1], got {p}")
    qubits = tuple(qubits)
    if not 1 <= len(qubits) <= 2 or len(set(qubits)) != len(qubits):
        raise ValueError(f"depolarize acts on one or two distinct qubits, got {qubits}")
    n = state.n_qubits
    if any(not 0 <= q < n for q in qubits):
        raise ValueError(f"qubit out of range in {qubits}")
    t = depolarize_tensor(state.tensor(), qubits, float(p), n)
    d = 2**n
    return DensityMatrix(n, t.reshape(d, d))
