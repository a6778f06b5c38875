"""Gate-level circuit IR, RZZ compilations, and ring-closure SWAP routing.

Angle conventions, fixed across the package:

    RX(a)  = exp(-i a X/2)          RZ(a)  = exp(-i a Z/2)
    RZZ(a) = exp(-i a Z(x)Z/2)      RZX(a) = exp(-i a Z(x)X/2)

Global phase is never tracked; unitary equality always means "up to global
phase".

Circuits, coupling maps and layouts are immutable after construction and may
be shared freely across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidCircuitError, UnsupportedTopologyError


class GateKind(str, Enum):
    X = "X"
    SX = "SX"
    H = "H"
    RX = "RX"
    RZ = "RZ"
    RZZ = "RZZ"
    RZX = "RZX"
    CNOT = "CNOT"
    SWAP = "SWAP"
    MEASURE_Z = "MEASURE_Z"
    RESET = "RESET"
    CLASSICALLY_CONTROLLED = "CLASSICALLY_CONTROLLED"


ONE_QUBIT_KINDS = frozenset(
    {GateKind.X, GateKind.SX, GateKind.H, GateKind.RX, GateKind.RZ,
     GateKind.MEASURE_Z, GateKind.RESET}
)
TWO_QUBIT_KINDS = frozenset({GateKind.RZZ, GateKind.RZX, GateKind.CNOT, GateKind.SWAP})
PARAMETRIC_KINDS = frozenset({GateKind.RX, GateKind.RZ, GateKind.RZZ, GateKind.RZX})
UNITARY_KINDS = frozenset(
    {GateKind.X, GateKind.SX, GateKind.H, GateKind.RX, GateKind.RZ,
     GateKind.RZZ, GateKind.RZX, GateKind.CNOT, GateKind.SWAP}
)


@dataclass(frozen=True)
class Gate:
    """One circuit element.

    `angle` is set for parametric kinds, `clbit` for MEASURE_Z, `inner` for
    CLASSICALLY_CONTROLLED (the wrapped gate fires when the classical bit
    reads 1).  `signed` marks a measurement whose outcome multiplies the
    shot's quasi-probability sign (+1 for outcome 0, -1 for outcome 1).
    `pet` marks an RZX emitted by the pulse-efficient compilation so the
    noise model can apply its duration-scaled error rule.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None
    clbit: int | None = None
    inner: "Gate | None" = None
    signed: bool = False
    pet: bool = False

    def __post_init__(self):
        if self.kind == GateKind.CLASSICALLY_CONTROLLED:
            if self.inner is None or self.clbit is None:
                raise ValueError("classically controlled gate needs an inner gate and a classical bit")
            if self.inner.kind not in UNITARY_KINDS:
                raise ValueError(f"cannot classically control {self.inner.kind.value}")
            if self.qubits != self.inner.qubits:
                raise ValueError("wrapper qubits must match the inner gate")
            return
        arity = 1 if self.kind in ONE_QUBIT_KINDS else 2
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind.value} acts on {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit operands in {self.kind.value}{self.qubits}")
        if self.kind in PARAMETRIC_KINDS:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind.value} requires a finite angle, got {self.angle}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind.value} takes no angle")
        if self.kind == GateKind.MEASURE_Z:
            if self.clbit is None:
                raise ValueError("MEASURE_Z requires a classical bit id")
        elif self.clbit is not None:
            raise ValueError(f"{self.kind.value} takes no classical bit")
        if self.signed and self.kind != GateKind.MEASURE_Z:
            raise ValueError("only measurements carry a quasi-probability sign")
        if self.pet and self.kind != GateKind.RZX:
            raise ValueError("only RZX gates carry the pulse-efficient tag")

    @property
    def is_unitary(self) -> bool:
        return self.kind in UNITARY_KINDS


def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def sx(q: int) -> Gate:
    return Gate(GateKind.SX, (q,))


def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def rx(angle: float, q: int) -> Gate:
    return Gate(GateKind.RX, (q,), angle=angle)


def rz(angle: float, q: int) -> Gate:
    return Gate(GateKind.RZ, (q,), angle=angle)


def rzz(angle: float, a: int, b: int) -> Gate:
    return Gate(GateKind.RZZ, (a, b), angle=angle)


def rzx(angle: float, a: int, b: int, pet: bool = False) -> Gate:
    return Gate(GateKind.RZX, (a, b), angle=angle, pet=pet)


def cnot(a: int, b: int) -> Gate:
    return Gate(GateKind.CNOT, (a, b))


def swap(a: int, b: int) -> Gate:
    return Gate(GateKind.SWAP, (a, b))


def measure_z(q: int, clbit: int, signed: bool = False) -> Gate:
    return Gate(GateKind.MEASURE_Z, (q,), clbit=clbit, signed=signed)


def reset(q: int) -> Gate:
    return Gate(GateKind.RESET, (q,))


def classically_controlled(inner: Gate, clbit: int) -> Gate:
    return Gate(GateKind.CLASSICALLY_CONTROLLED, inner.qubits, clbit=clbit, inner=inner)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over `n_qubits` wires and `n_clbits` classical bits."""

    n_qubits: int
    n_clbits: int = 0
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1 or self.n_clbits < 0:
            raise InvalidCircuitError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        written: set[int] = set()
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise InvalidCircuitError(f"qubit {q} out of range for {self.n_qubits}-qubit circuit")
            if g.kind == GateKind.MEASURE_Z:
                if not 0 <= g.clbit < self.n_clbits:
                    raise InvalidCircuitError(f"classical bit {g.clbit} out of range")
                written.add(g.clbit)
            if g.kind == GateKind.CLASSICALLY_CONTROLLED:
                if not 0 <= g.clbit < self.n_clbits:
                    raise InvalidCircuitError(f"classical bit {g.clbit} out of range")
                if g.clbit not in written:
                    raise InvalidCircuitError(
                        f"classical control on bit {g.clbit} with no earlier measurement writing it"
                    )

    def with_inserted(self, position: int, gates: list[Gate], n_clbits: int | None = None) -> "Circuit":
        """New circuit with `gates` spliced in before index `position`."""
        if not 0 <= position <= len(self.gates):
            raise ValueError(f"insert position {position} out of range")
        nc = self.n_clbits if n_clbits is None else n_clbits
        return Circuit(self.n_qubits, nc, self.gates[:position] + tuple(gates) + self.gates[position:])


@dataclass(frozen=True)
class CouplingMap:
    """Undirected graph of physical qubit pairs that support two-qubit gates."""

    n_physical: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n_physical < 1:
            raise ValueError(f"coupling map 'n' must be at least 1, got {self.n_physical}")
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on physical qubit {a}")
            if not (0 <= a < self.n_physical and 0 <= b < self.n_physical):
                raise ValueError(f"edge ({a},{b}) references an invalid physical qubit")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def path(cls, n: int) -> "CouplingMap":
        """Linear chain 0-1-...-(n-1)."""
        return cls(n, frozenset((i, i + 1) for i in range(n - 1)))

    def path_order(self) -> tuple[int, ...]:
        """Vertex sequence if this map is a simple path over all qubits, else raise."""
        n = self.n_physical
        if n == 1 and not self.edges:
            return (0,)
        adj: dict[int, list[int]] = {v: [] for v in range(n)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        ends = [v for v, nb in adj.items() if len(nb) == 1]
        if len(self.edges) != n - 1 or len(ends) != 2 or any(len(nb) > 2 for nb in adj.values()):
            raise UnsupportedTopologyError("coupling map is not a simple path")
        order = [min(ends)]
        prev = -1
        while len(order) < n:
            cur = order[-1]
            nxt = [v for v in adj[cur] if v != prev]
            if not nxt:
                raise UnsupportedTopologyError("coupling map is not a simple path")
            prev = cur
            order.append(nxt[0])
        return tuple(order)

    def to_json(self) -> str:
        return json.dumps({"n": self.n_physical, "edges": sorted(list(e) for e in self.edges)})

    @classmethod
    def from_json(cls, text: str) -> "CouplingMap":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"coupling map must be a JSON object with 'n' and 'edges', got a {type(obj).__name__}")
        missing = [k for k in ("n", "edges") if k not in obj]
        if missing:
            raise ValueError(f"coupling map is missing fields {missing}")
        n, edges = obj["n"], obj["edges"]
        if type(n) is not int:  # JSON numbers parse as int or float; a bool is an int subclass
            raise ValueError(f"coupling map 'n' must be an integer, got {n!r}")
        if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 and
                                                  all(type(q) is int for q in e) for e in edges):
            raise ValueError(f"coupling map 'edges' must be a list of [a, b] integer pairs, got {edges!r}")
        return cls(n, frozenset(map(tuple, edges)))


@dataclass(frozen=True)
class Layout:
    """Logical-to-physical qubit permutation."""

    log_to_phys: tuple[int, ...]

    def __post_init__(self):
        n = len(self.log_to_phys)
        if sorted(self.log_to_phys) != list(range(n)):
            raise ValueError("layout must be a permutation")

    @classmethod
    def identity(cls, n: int) -> "Layout":
        return cls(tuple(range(n)))

    def physical(self, logical: int) -> int:
        return self.log_to_phys[logical]

    def logical(self, phys: int) -> int:
        return self.log_to_phys.index(phys)

    def logical_values(self, per_physical: list) -> list:
        """Reorder per-physical-wire values into logical qubit order."""
        return [per_physical[p] for p in self.log_to_phys]

    @property
    def is_identity(self) -> bool:
        return self.log_to_phys == tuple(range(len(self.log_to_phys)))


def decompose_rzz_cnot(theta: float, qubits: tuple[int, int] = (0, 1)) -> list[Gate]:
    """RZZ(theta) as CNOT - RZ(theta) on the target - CNOT."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    a, b = qubits
    return [cnot(a, b), rz(theta, b), cnot(a, b)]


def decompose_rzz_rzx(theta: float, qubits: tuple[int, int] = (0, 1)) -> list[Gate]:
    """RZZ(theta) as a single RZX(theta) conjugated by H on the target.

    H maps X to Z on the target wire, so H.RZX(theta).H = RZZ(theta) exactly.
    The RZX carries the pulse-efficient tag: one native two-qubit interaction
    whose error scales with the pulse area instead of a fixed two-CNOT cost.
    """
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    a, b = qubits
    return [h(b), rzx(theta, a, b, pet=True), h(b)]


def route_ring_closure(n_qubits: int, coupling: CouplingMap, theta: float) -> tuple[Circuit, Layout]:
    """Route RZZ(theta) between logical qubits 0 and n-1 on a path coupling map.

    Emits a meet-in-the-middle SWAP chain that walks both endpoints toward the
    center, then the RZZ on the meeting edge.  Nothing is swapped back: the
    returned Layout records where each logical qubit ended up, and downstream
    measurement must read through it.  SWAP count is max(n-2, 0).

    Logical qubit i starts at the i-th vertex along the path.
    """
    if n_qubits < 2:
        raise ValueError("ring closure needs at least two qubits")
    if coupling.n_physical != n_qubits:
        raise UnsupportedTopologyError(
            f"coupling map has {coupling.n_physical} qubits, circuit has {n_qubits}"
        )
    order = coupling.path_order()
    left = (n_qubits - 2) // 2
    right = (n_qubits - 2) - left
    gates: list[Gate] = []
    occupant = list(range(n_qubits))  # occupant[path position] = logical qubit
    for j in range(left):
        gates.append(swap(order[j], order[j + 1]))
        occupant[j], occupant[j + 1] = occupant[j + 1], occupant[j]
    for k in range(right):
        p = n_qubits - 1 - k
        gates.append(swap(order[p], order[p - 1]))
        occupant[p], occupant[p - 1] = occupant[p - 1], occupant[p]
    meet = left  # logical 0 sits here, logical n-1 one step to the right
    gates.append(rzz(theta, order[meet], order[meet + 1]))
    log_to_phys = [0] * n_qubits
    for pos, logical in enumerate(occupant):
        log_to_phys[logical] = order[pos]
    return Circuit(n_qubits, 0, tuple(gates)), Layout(tuple(log_to_phys))


@dataclass(frozen=True)
class GateCounts:
    """Per-kind gate tally plus derived two-qubit cost figures.

    `swap_cnot_equivalents` counts each SWAP as three CNOTs.  The overall
    `two_qubit_cnot_equivalents` figure additionally prices an RZZ at two
    CNOTs (its standard compilation) and any RZX at one native interaction.
    """

    counts: dict[str, int] = field(default_factory=dict)
    swap_cnot_equivalents: int = 0
    two_qubit_raw: int = 0
    two_qubit_cnot_equivalents: int = 0

    def __getitem__(self, kind: str) -> int:
        return self.counts.get(kind, 0)


_CNOT_EQUIV = {GateKind.CNOT: 1, GateKind.SWAP: 3, GateKind.RZZ: 2, GateKind.RZX: 1}


def count_gates(circuit: Circuit) -> GateCounts:
    """Exact tally of circuit gates by kind (wrappers counted as their own kind)."""
    counts: dict[str, int] = {}
    raw2 = 0
    equiv = 0
    for g in circuit.gates:
        counts[g.kind.value] = counts.get(g.kind.value, 0) + 1
        inner = g.inner if g.kind == GateKind.CLASSICALLY_CONTROLLED else g
        if inner.kind in TWO_QUBIT_KINDS:
            raw2 += 1
            equiv += _CNOT_EQUIV[inner.kind]
    return GateCounts(
        counts=counts,
        swap_cnot_equivalents=3 * counts.get(GateKind.SWAP.value, 0),
        two_qubit_raw=raw2,
        two_qubit_cnot_equivalents=equiv,
    )


# --- line-oriented text format ------------------------------------------------
#
#   qubits N clbits M              (header)
#   KIND q0[,q1] [angle]           (unitary gate; trailing "pet" for tagged RZX)
#   MEASURE_Z q -> c [signed]
#   RESET q
#   IF c KIND q0[,q1] [angle]      (classically controlled gate)


def gate_to_line(g: Gate) -> str:
    if g.kind == GateKind.CLASSICALLY_CONTROLLED:
        return f"IF {g.clbit} {gate_to_line(g.inner)}"
    qs = ",".join(str(q) for q in g.qubits)
    parts = [g.kind.value, qs]
    if g.angle is not None:
        parts.append(repr(g.angle))
    if g.kind == GateKind.MEASURE_Z:
        parts += ["->", str(g.clbit)]
        if g.signed:
            parts.append("signed")
    if g.pet:
        parts.append("pet")
    return " ".join(parts)


def _parsed(convert, token: str, line: str):
    """convert(token), or a ValueError that quotes the line the token came from."""
    try:
        return convert(token)
    except ValueError:
        raise ValueError(f"cannot read {token!r} in line {line!r}") from None


def gate_from_line(line: str) -> Gate:
    tokens = line.split()
    if len(tokens) < 2 or (tokens[0] == "IF" and len(tokens) < 3):
        raise ValueError(f"malformed gate line: {line!r}")
    if tokens[0] == "IF":
        inner = gate_from_line(" ".join(tokens[2:]))
        return classically_controlled(inner, _parsed(int, tokens[1], line))
    kind = _parsed(GateKind, tokens[0], line)
    qubits = tuple(_parsed(int, t, line) for t in tokens[1].split(","))
    rest = tokens[2:]
    if kind == GateKind.MEASURE_Z:
        if len(rest) < 2 or rest[0] != "->" or rest[2:] not in ([], ["signed"]):
            raise ValueError(f"malformed measurement line: {line!r}")
        return measure_z(qubits[0], _parsed(int, rest[1], line), signed=bool(rest[2:]))
    pet = rest[-1:] == ["pet"]
    if pet:
        rest = rest[:-1]
    if len(rest) > 1:
        raise ValueError(f"malformed gate line: {line!r}; expected at most one angle, then 'pet'")
    return Gate(kind, qubits, angle=_parsed(float, rest[0], line) if rest else None, pet=pet)


def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits} clbits {circuit.n_clbits}"]
    lines += [gate_to_line(g) for g in circuit.gates]
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValueError("empty circuit text")
    n_qubits = n_clbits = None
    start = 0
    head = lines[0].split()
    if head[0] == "qubits":
        if len(head) != 4 or head[2] != "clbits":
            raise ValueError(f"malformed header line: {lines[0]!r}; expected 'qubits N clbits M'")
        n_qubits, n_clbits = _parsed(int, head[1], lines[0]), _parsed(int, head[3], lines[0])
        start = 1
    gates = [gate_from_line(ln) for ln in lines[start:]]
    if n_qubits is None:  # headerless: infer sizes from the gates
        n_qubits = 1 + max((q for g in gates for q in g.qubits), default=0)
        n_clbits = 1 + max((g.clbit for g in gates if g.clbit is not None), default=-1)
    return Circuit(n_qubits, n_clbits, tuple(gates))
