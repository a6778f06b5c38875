"""Quasi-probability decomposition of a virtual RZZ interaction.

The decomposed object is the conjugation channel of U(theta) = exp(+i theta/2
Z(x)Z).  Our circuit-level RZZ(a) equals exp(-i a Z(x)Z / 2), so a gate of
angle a is cut at decomposition angle theta = -a; `decomposition_angle` is the
single place where that sign boundary is crossed.

The identity splits the channel into ten local terms:

    cos^2(t/2) II  +  sin^2(t/2) ZZ
      + (1/8) cos(t/2) sin(t/2) * sum over signs a0, a1 of a0*a1 *
            [ (I+a0 Z)(x)(I+i a1 Z)  +  (I+i a0 Z)(x)(I+a1 Z) ]

each applied as A rho A^dag.  The projector side is realizable as a Z-basis
measurement, the rotation side as Rz(-a pi/2) (times sqrt(2)).  Collapsing
each sign quadruple into a signed measurement instrument leaves six executable
fragments per cut, with quasi-probability 1-norm gamma = 1 + 2|sin(theta)|.

One term table (`_SIDES`) gives each local operator as the gates the sampler
inserts and a trace scale.  Exact evaluation composes those gates' noiseless
maps and uses linearity: the weighted sum over all 10^m term combinations of m
cuts is one channel per cut.  An enumerated fragment picks one of the ten terms
per cut and realizes each projector as a measurement with a keep rule; a
grouped fragment picks one of the six terms whose projector sign is +1 and
realizes its projector pair as one signed measurement.  A fragment is the
gates it inserts at each cut; its whole circuit is spliced only on request,
and each fragment list is built once per (circuit, cuts).  A circuit with no
cuts is the one fragment of weight 1 and evaluates as a plain density run.
Exact evaluation is one list of density runs read by one loop: the distinct
backward light cones of the observables' wires, when those are estimated
cheaper or the register is past the density cap (see the light-cone
section), or else the whole register, the one-run case.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .circuit import Circuit, Gate, GateKind, circuit_to_text, measure_z, reset, rz, x
from .errors import PreconditionError, ResourceLimitError
from .sim import (DENSITY_QUBIT_CAP, DensityMatrix, PauliObservable, _compile, _DepolarizeOp, _evolve, _superop,
                  expectations, run_density)

FAMILY_II = "II"
FAMILY_ZZ = "ZZ"
FAMILY_PROJ_ROT = "PROJ_ROT"
FAMILY_ROT_PROJ = "ROT_PROJ"

# Trace blow-up of one cross term's operators: (I+aZ) squares to 4x a projector,
# (I+iaZ) to 2x a rotation.
CROSS_TERM_SCALE = 8.0


class _Side(NamedTuple):
    """A local operator A, applied as rho -> A rho A^dag."""

    scale: float  # A rho A^dag is `scale` times the channel of the gates below
    realize: Callable  # (qubit, alpha, clbit, signed) -> (gates, keep rule or None)


# A = I, Z, I + aZ, I + iaZ.  RZ(pi) conjugates like Pauli Z (its phases cancel
# in A rho A^dag).  A projector is a Z measurement kept when its outcome reads
# alpha; signed, one measurement realizes the projector pair a = +1 minus a = -1.
_SIDES = {
    "IDENTITY": _Side(1.0, lambda q, a, k, signed: ([], None)),
    "PAULI_Z": _Side(1.0, lambda q, a, k, signed: ([rz(math.pi, q)], None)),
    "PROJ_PLUS": _Side(4.0, lambda q, a, k, signed: ([measure_z(q, k, signed=signed)],
                                                     None if signed else (k, 0 if a == 1 else 1))),
    "ROT_I_PLUS_IZ": _Side(2.0, lambda q, a, k, signed: ([rz(-a * math.pi / 2, q)], None)),
}
_FAMILY_SIDES = {
    FAMILY_II: ("IDENTITY", "IDENTITY"),
    FAMILY_ZZ: ("PAULI_Z", "PAULI_Z"),
    FAMILY_PROJ_ROT: ("PROJ_PLUS", "ROT_I_PLUS_IZ"),
    FAMILY_ROT_PROJ: ("ROT_I_PLUS_IZ", "PROJ_PLUS"),
}
_CROSS_FAMILIES = (FAMILY_PROJ_ROT, FAMILY_ROT_PROJ)


def decomposition_angle(gate_angle: float) -> float:
    """Map a circuit RZZ gate angle onto the decomposed conjugation angle."""
    return -gate_angle


@dataclass(frozen=True)
class QpdTerm:
    """One of the ten decomposition terms: coefficient, family, and the cross terms' signs."""

    coefficient: float
    family: str
    alpha_a: int | None = None
    alpha_b: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILY_SIDES:
            raise ValueError(f"unknown term family {self.family!r}")
        for alpha in (self.alpha_a, self.alpha_b):
            if self.family in _CROSS_FAMILIES and alpha not in (1, -1):
                raise ValueError(f"{self.family} needs alpha in {{+1,-1}}, got {alpha!r}")
            if self.family not in _CROSS_FAMILIES and alpha is not None:
                raise ValueError(f"{self.family} takes no alpha")

    def sides(self) -> tuple[tuple[str, int | None], tuple[str, int | None]]:
        """(side name, alpha) of the operator on qubit a, then on qubit b."""
        side_a, side_b = _FAMILY_SIDES[self.family]
        return (side_a, self.alpha_a), (side_b, self.alpha_b)


def decompose_vrzz(theta: float) -> list[QpdTerm]:
    """The ten-term decomposition of conjugation by exp(+i theta/2 Z(x)Z).

    Term order is fixed (II, ZZ, then the eight cross terms by sign pair) so
    weighted reductions are bit-stable.
    """
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    # 1 - c*c rather than s*s keeps the two diagonal coefficients summing to
    # 1.0 exactly in floating point (difference from s*s is at most one ulp)
    terms = [QpdTerm(c * c, FAMILY_II), QpdTerm(1.0 - c * c, FAMILY_ZZ)]
    for aa, ab in itertools.product((1, -1), repeat=2):
        k = 0.125 * c * s * aa * ab
        terms.append(QpdTerm(k, FAMILY_PROJ_ROT, aa, ab))
        terms.append(QpdTerm(k, FAMILY_ROT_PROJ, aa, ab))
    return terms


@functools.lru_cache(maxsize=256)
def _cut_superop(weighted_terms) -> np.ndarray:
    """The 16 x 16 superoperator of rho -> sum_k w_k A_k rho A_k^dag over a tuple of (w_k, term_k) pairs.

    Each side of A_k is its scale times the noiseless maps `sim._superop` of the gates the sampler
    inserts for it, composed in order; unsigned, so a projector is the map of its keep rule's outcome.
    The two sides' maps, each with row (i, j) and column (i', j'), join with row (i_a, i_b, j_a, j_b)
    and column likewise.  The result is cached and shared, so no caller may write to it.
    """
    total = np.zeros((16, 16), dtype=complex)
    for weight, term in weighted_terms:
        maps = []
        for side, alpha in term.sides():
            gates, keep = _SIDES[side].realize(0, alpha, 0, False)
            maps.append(functools.reduce(np.matmul, [_superop(g, 0.0, keep[1] if keep else 0) for g in gates[::-1]],
                                         _SIDES[side].scale * np.eye(4)).reshape(2, 2, 2, 2))
        total += weight * np.multiply.outer(*maps).transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(16, 16)
    return total


def reconstruct_channel(terms: list[QpdTerm], rho: DensityMatrix) -> DensityMatrix:
    """Weighted sum of all terms applied to a two-qubit state."""
    if rho.n_qubits != 2:
        raise ValueError(f"reconstruction is defined on 2-qubit states, got {rho.n_qubits}")
    return _evolve(rho, [_CutOp((0, 1), tuple((t.coefficient, t) for t in terms))], None)


def gamma(theta: float) -> float:
    """Sampling overhead: 1-norm of the grouped quasi-probability weights, 1 + 2|sin theta|."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    return 1.0 + 2.0 * abs(math.sin(theta))


KIND_MEAS_ROT = "MEAS_ROT"  # signed Z measurement on qubit a, Rz on qubit b
KIND_ROT_MEAS = "ROT_MEAS"  # Rz on qubit a, signed Z measurement on qubit b
_SIGNED_KINDS = {FAMILY_PROJ_ROT: KIND_MEAS_ROT, FAMILY_ROT_PROJ: KIND_ROT_MEAS}


@dataclass(frozen=True)
class CutOption:
    """One way to fill a cut in a sampling fragment: a term realized by gates.

    With `signed`, each projector side is a signed Z measurement whose outcome
    multiplies the shot's quasi-probability sign; otherwise it is a plain
    measurement with a keep rule.
    """

    term: QpdTerm
    signed: bool = False

    @property
    def weight(self) -> float:
        """The term's coefficient times the trace scale of its gates."""
        return self.term.coefficient * math.prod(_SIDES[side].scale for side, _ in self.term.sides())

    def realize(self, qubit_a: int, qubit_b: int, clbit: int) -> tuple[list[Gate], list[tuple[int, int]]]:
        """Gates on (qubit_a, qubit_b), and the (clbit, value) keep rules they need."""
        gates, keeps = [], []
        for qubit, (side, alpha) in zip((qubit_a, qubit_b), self.term.sides()):
            side_gates, keep = _SIDES[side].realize(qubit, alpha, clbit, self.signed)
            gates += side_gates
            if keep is not None:
                keeps.append(keep)
        return gates, keeps

    @property
    def kind(self) -> str:
        """The term family; a signed cross term is named for its sides (MEAS_ROT or ROT_MEAS)."""
        return _SIGNED_KINDS.get(self.term.family, self.term.family) if self.signed else self.term.family

    @property
    def rz_angle(self) -> float | None:
        """Angle of a cross term's rotation side; None for II and ZZ."""
        if self.term.family not in _CROSS_FAMILIES:
            return None
        gates, _ = self.realize(0, 1, 0)
        return next(g.angle for g in gates if g.kind == GateKind.RZ)


def group_for_sampling(theta: float) -> list[CutOption]:
    """Collapse each sign quadruple of `decompose_vrzz(theta)` into signed instruments: six options per cut.

    A cross term and its partner with the opposite projector sign have
    opposite coefficients, so the term whose projector sign is +1 stands for
    both, its projector pair measured by one signed instrument.  That keeps
    II, ZZ, then two PROJ_ROT and two ROT_PROJ terms whose rotation side
    turns by -pi/2 or +pi/2 with weights +-cos(t/2)sin(t/2).  Absolute
    weights sum to gamma.
    """
    kept = [t for t in decompose_vrzz(theta) if all(alpha == 1 for side, alpha in t.sides() if side == "PROJ_PLUS")]
    families = list(_FAMILY_SIDES)
    return [CutOption(t, signed=True) for t in sorted(kept, key=lambda t: families.index(t.family))]


# --- projected-fragment simplification ---------------------------------------


@dataclass(frozen=True)
class SimplifiedTerm:
    """Projected cross term on a known product state, absorbed classically.

    When the projected qubit enters the cut in RX(2 beta)|0>, the projector
    collapses it to a basis state with probability cos^2(beta) (alpha=+1) or
    sin^2(beta) (alpha=-1).  That probability is taken out of the circuit as
    `classical_factor`; the surviving fragment is a CPTP circuit: re-prepare
    the projected qubit in its basis state and rotate the partner by
    `partner_rz`.  Any later RZZ on the projected wire folds onto its other
    qubit as RZ(+angle) when the projected qubit is |0>, RZ(-angle) when |1>.
    Raw fragment value = scale * classical_factor * (CPTP circuit value).
    """

    classical_factor: float
    projected_side: str  # "a" or "b"
    projected_bit: int
    partner_rz: float
    fold_sign: float
    scale: float = CROSS_TERM_SCALE


def simplify_projected(term: QpdTerm, beta: float, *, product_form_asserted: bool = False) -> SimplifiedTerm:
    """Absorb a cross term's projector into a classical probability.

    Only valid when the projected qubit's state just before the cut is the
    single-qubit product RX(2 beta)|0>; the caller must assert that, we have
    no way to check it from here.
    """
    if term.family not in _CROSS_FAMILIES:
        raise ValueError(f"only projective cross terms simplify, got {term.family}")
    if not product_form_asserted:
        raise PreconditionError(
            "simplify_projected requires the caller to assert the projected qubit "
            "is in the product state RX(2*beta)|0> at the cut"
        )
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if term.family == FAMILY_PROJ_ROT:
        side, alpha_proj, alpha_rot = "a", term.alpha_a, term.alpha_b
    else:
        side, alpha_proj, alpha_rot = "b", term.alpha_b, term.alpha_a
    factor = math.cos(beta) ** 2 if alpha_proj == 1 else math.sin(beta) ** 2
    bit = 0 if alpha_proj == 1 else 1
    return SimplifiedTerm(
        classical_factor=factor,
        projected_side=side,
        projected_bit=bit,
        partner_rz=-alpha_rot * math.pi / 2,
        fold_sign=1.0 if bit == 0 else -1.0,
    )


# --- cut sites and fragment programs ------------------------------------------


@dataclass(frozen=True)
class CutSite:
    """A virtual RZZ location: decomposition operators act on (qubit_a, qubit_b)
    just before gate index `position`; `theta` is the decomposition angle (the
    RZZ gate being virtualized had angle -theta)."""

    position: int
    qubit_a: int
    qubit_b: int
    theta: float


def _check_cuts(circuit: Circuit, cuts) -> list[CutSite]:
    cuts = sorted(cuts, key=lambda c: c.position)
    seen_pos = set()
    for c in cuts:
        if not 0 <= c.position <= len(circuit.gates):
            raise ValueError(f"cut position {c.position} out of range")
        if c.position in seen_pos:
            raise ValueError("one cut per circuit position")
        seen_pos.add(c.position)
        if c.qubit_a == c.qubit_b or not all(0 <= q < circuit.n_qubits for q in (c.qubit_a, c.qubit_b)):
            raise ValueError(f"bad cut qubits ({c.qubit_a}, {c.qubit_b})")
    return cuts


class _CutOp(NamedTuple):
    """The (weight, term) pairs of one cut, applied on qubits (a, b)."""

    qubits: tuple[int, int]
    weighted_terms: tuple

    @property
    def superop(self) -> np.ndarray:
        return _cut_superop(self.weighted_terms)


def _program(circuit: Circuit, cuts: list[CutSite], weighted_terms) -> list:
    """The circuit's gates with the op of cut i, carrying weighted_terms[i], before gate cuts[i].position."""
    program = list(circuit.gates)
    for cut, pairs in reversed(list(zip(cuts, weighted_terms))):  # back to front keeps positions valid
        program.insert(cut.position, _CutOp((cut.qubit_a, cut.qubit_b), tuple(pairs)))
    return program


# --- light cones ---------------------------------------------------------------
#
# An observable on a few wires depends only on the gates of its backward light
# cone.  The walk below goes from the end of the circuit to its start, keeping
# for each needed wire the class of the Heisenberg operator on it: "Z" (only I
# and Z), "X" (only I and X) or "G" (general).  A rotation exp(-i a P/2) whose
# Pauli letter matches the class of every needed wire it touches commutes with
# the observable: it is dropped and only its depolarizing noise stays, on the
# needed wires (two-qubit depolarizing on one needed wire acts as one-qubit
# depolarizing of the same strength).  A rotation that does not commute is
# kept; its mismatched wires become general and its new wires join with the
# class of their letter.  H swaps the Z and X classes, a SWAP moves a needed
# wire to its partner, and any other gate makes all its wires general.  A cut
# op is the noiseless ZZ rotation its term sum equals.  Gates that touch no
# needed wire leave the observable alone: every channel here is unital.  The
# cone's ops are emitted on its own slots, so equal cones are equal (width,
# ops) pairs and share one density run.

# Fixed cost of one density-engine operation, in state entries.  Measured on
# a shared 2-core machine, a compiled noisy gate costs 4-20 us up to 5
# qubits, 30-45 us at 6, 0.12-0.18 ms at 7 and 0.5-0.7 ms at 8 qubits (4^8
# entries at 7-11 ns each), so the fixed part is about 4^4.5 to 4^5 entries.
# It stays 4^6, which keeps near-ties on the full run: a smaller constant
# would move rings from the full run to the cones, which agree with it only
# to about 1e-15, and so change the pinned CSVs.
_OP_FIXED_COST = 4**6

_LETTERS = {GateKind.RZ: "Z", GateKind.RX: "X", GateKind.RZZ: "ZZ", GateKind.RZX: "ZX"}
_H_CLASS = {"Z": "X", "X": "Z", "G": "G"}
_CONE_BLOCKERS = frozenset({GateKind.MEASURE_Z, GateKind.RESET, GateKind.CLASSICALLY_CONTROLLED})


def _backward_steps(program: list) -> list[tuple]:
    """The program back to front as (op, qubits, kind, rotation letters); a cut op has kind None."""
    return [(op, op.qubits, None, "ZZ") if isinstance(op, _CutOp) else (op, op.qubits, op.kind, _LETTERS.get(op.kind))
            for op in reversed(program)]


def _light_cone(steps: list[tuple], wires: tuple[int, ...], noise) -> tuple[int, tuple]:
    """(width, ops) of the backward light cone of `wires`, which start general.

    `steps` is the program from `_backward_steps`.  The ops act on the cone's
    `width` slots, wires[i] being slot i at the end, so two cones with equal
    (width, ops) are one computation.
    """
    slot = {w: i for i, w in enumerate(wires)}
    cls = dict.fromkeys(wires, "G")
    ops = []
    for op, qubits, kind, letters in steps:
        if slot.keys().isdisjoint(qubits):
            continue
        if kind is GateKind.SWAP or (letters and all(cls[q] == c for q, c in zip(qubits, letters) if q in slot)):
            needed = [q for q in qubits if q in slot]
            slots = tuple(slot[q] for q in needed)
            p = 0.0 if kind is None or noise is None else noise.strength_for(op)
            if p > 0.0 and ops and isinstance(ops[-1], _DepolarizeOp) and ops[-1].qubits == slots:
                p = 1.0 - (1.0 - p) * (1.0 - ops.pop().p)  # one channel, composed
            if p > 0.0:
                ops.append(_DepolarizeOp(slots, p))
            if kind is GateKind.SWAP:
                a, b = qubits
                moved = [(b if q == a else a, slot.pop(q), cls.pop(q)) for q in needed]
                for q, s, c in moved:
                    slot[q], cls[q] = s, c
            continue
        for q, letter in zip(qubits, letters or (None, None)):
            if kind is GateKind.H:
                cls[q] = _H_CLASS[cls[q]]
            elif q not in slot:
                slot[q], cls[q] = len(slot), letter or "G"
            elif cls[q] != letter:
                cls[q] = "G"
        slots = tuple(slot[q] for q in qubits)
        ops.append(op._replace(qubits=slots) if kind is None else replace(op, qubits=slots))
    return len(slot), tuple(ops[::-1])


def _cost(width: int, program) -> int:
    return len(program) * (4**width + _OP_FIXED_COST)


def _cone_runs(circuit: Circuit, program: list, observables, noise, budget, cap: int) -> list[tuple] | None:
    """The runs of `_exact_plan`, one per distinct light-cone program of the observables' supports.

    None when the circuit measures, resets or branches, when an observable
    has no support, or when the cones would cost `budget` or more (None for
    no budget): those take the full run.  A cone wider than the density cap
    `cap` raises ResourceLimitError.  Cones with equal ops share one run: on a
    translation-symmetric ring most of them are the same computation.
    """
    if any(g.kind in _CONE_BLOCKERS for g in circuit.gates):
        return None
    n = circuit.n_qubits
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, obs in enumerate(observables):
        if obs.n_qubits != n:
            raise ValueError(f"observable on {obs.n_qubits} qubits, state on {n}")
        if not obs.support:
            return None
        groups.setdefault(obs.support, []).append(i)
    steps, same_ops, spent = _backward_steps(program), {}, 0
    for support, indices in groups.items():
        width, ops = cone = _light_cone(steps, support, noise)
        spent += _cost(width, ops)
        if budget is not None and spent >= budget:
            return None
        if width > cap:
            raise ResourceLimitError(f"the light cone of qubits {list(support)} spans {width} qubits, "
                                     f"which exceeds density cap {cap}")
        same_ops.setdefault(cone, []).extend(indices)
    return [(width, _compile(ops, noise, width), indices,
             tuple(PauliObservable(tuple(("".join(s[q] for q in observables[i].support).ljust(width, "I"), w)
                                         for s, w in observables[i].terms)) for i in indices))
            for (width, ops), indices in same_ops.items()]


@functools.lru_cache(maxsize=128)
def _exact_plan(circuit: Circuit, cuts: tuple, observables: tuple, noise, cap: int) -> tuple[int, list]:
    """(10^m, runs) of one exact evaluation: each run (width, compiled steps, observable indices, their observables).

    The runs are `_cone_runs`, or when that is None the one full run (n,
    program, every index, the observables).  Pure in its arguments, `cap`
    being the density cap the runs were chosen and checked under, so it is
    compiled once per process for each key, each program into
    `sim._compile`'s kernel steps; it holds no state and no value.  The
    result is cached and shared, so no caller may write to it.
    """
    cuts = _check_cuts(circuit, cuts)
    term_lists = [decompose_vrzz(c.theta) for c in cuts]
    program = _program(circuit, cuts, [[(t.coefficient, t) for t in ts] for ts in term_lists])
    n = circuit.n_qubits
    runs = _cone_runs(circuit, program, observables, noise, _cost(n, program) if n <= cap else None, cap)
    if runs is None:
        runs = [(n, _compile(program, noise, n), range(len(observables)), observables)]
    return math.prod(len(ts) for ts in term_lists), runs


def _evaluate(runs: list[tuple], observables) -> list[float]:
    """Each observable read from the density run that holds it; every call evolves every run again."""
    values = [0.0] * len(observables)
    for width, steps, indices, local in runs:
        for i, value in zip(indices, expectations(_evolve(DensityMatrix.zero(width), steps, None), local)):
            values[i] = value
    return values


def run_enumerated_exact(circuit: Circuit, cuts, observables: list[PauliObservable],
                         noise=None) -> tuple[list[float], int]:
    """Exact coefficient-weighted sum of the observables over all 10^m term combinations.

    By linearity the sum is one channel per cut, so the circuit with those
    channels in place is one program.  `_exact_plan` turns it into a list of
    density runs, compiled once per process for each (circuit, cuts,
    observables, noise, density cap), and one loop evolves each run afresh on
    every call.  The full run is the one-run case; the observables on each
    distinct support run on that support's light cone instead, one run per
    distinct cone program, when the cones are estimated cheaper or the
    circuit is past the density cap, which then applies to each cone.  Either
    way each run's observables are read in one `sim.expectations` call.
    Returns the values and the number of term combinations the sum covers,
    10^m.
    """
    observables = tuple(observables)
    count, runs = _exact_plan(circuit, tuple(cuts), observables, noise, DENSITY_QUBIT_CAP)
    return _evaluate(runs, observables), count


# The most cuts a fragment builder takes: m cuts make 6^m grouped or 10^m
# enumerated fragments.  Exact mode builds none of them.
MAX_FRAGMENT_CUTS = 4


@dataclass(frozen=True)
class SampledFragment:
    """One executable sampling fragment: `cut_circuit` with the gates `inserted[k]` before its gate `positions[k]`.

    `weight` multiplies the (sign-accumulated) shot average.  `keep_rules`
    lists (clbit, required value) pairs: shots whose mid-circuit outcomes
    disagree contribute zero (that realizes a one-sided projector).
    `options` holds the option chosen at each cut, in cut order, and
    `inserted` the gates it inserts there, the form `sim.FragmentRun` takes.
    """

    weight: float
    cut_circuit: Circuit
    keep_rules: tuple[tuple[int, int], ...] = ()
    options: tuple[CutOption, ...] = ()
    inserted: tuple[tuple[Gate, ...], ...] = ()
    positions: tuple[int, ...] = ()

    @property
    def circuit(self) -> Circuit:
        """The fragment as one validated `Circuit`, spliced on each request; with no cuts, the cut circuit itself."""
        out, n_clbits = self.cut_circuit, max(self.cut_circuit.n_clbits, len(self.inserted))
        for position, gates in reversed(list(zip(self.positions, self.inserted))):  # back to front keeps positions
            out = out.with_inserted(position, gates, n_clbits=n_clbits)
        return out


@functools.lru_cache(maxsize=16)
def _build_fragments(circuit: Circuit, cuts: tuple, grouped: bool) -> tuple[SampledFragment, ...]:
    """One fragment per combination of per-cut options (classical bit k serves cut k).

    Every combination is built, so more than MAX_FRAGMENT_CUTS cuts raise
    ResourceLimitError.  Built once per process for each key; the fragments
    are frozen and shared.
    """
    cuts = _check_cuts(circuit, cuts)
    options = [group_for_sampling(c.theta) if grouped else [CutOption(t) for t in decompose_vrzz(c.theta)]
               for c in cuts]
    if len(cuts) > MAX_FRAGMENT_CUTS:
        raise ResourceLimitError(f"{len(cuts)} cuts would build {len(options[0])}^{len(cuts)} fragment "
                                 f"circuits (cap is {MAX_FRAGMENT_CUTS} cuts)")
    positions, fragments = tuple(c.position for c in cuts), []
    for combo in itertools.product(*options):
        weight, keeps, per_cut = 1.0, [], []
        for k, (cut, option) in enumerate(zip(cuts, combo)):
            gates, cut_keeps = option.realize(cut.qubit_a, cut.qubit_b, k)
            weight *= option.weight
            keeps += cut_keeps
            per_cut.append(tuple(gates))
        fragments.append(SampledFragment(weight, circuit, tuple(keeps), combo, tuple(per_cut), positions))
    return tuple(fragments)


def _fragments(circuit: Circuit, cuts, grouped: bool) -> list[SampledFragment]:
    """A new list of the cached fragments; with no cuts, the one fragment of weight 1 on the caller's own circuit."""
    cuts = tuple(cuts)
    return list(_build_fragments(circuit, cuts, grouped)) if cuts else [SampledFragment(1.0, circuit)]


def build_grouped_fragments(circuit: Circuit, cuts) -> list[SampledFragment]:
    """All 6^m signed-instrument fragments of a cut circuit; no cuts gives the circuit itself."""
    return _fragments(circuit, cuts, True)


def build_enumerated_fragments(circuit: Circuit, cuts) -> list[SampledFragment]:
    """All 10^m per-term sampling fragments; no cuts gives the circuit itself.

    Projector sides become plain mid-circuit measurements plus a keep rule;
    rotation and Pauli sides become RZ gates.  Each cross term carries the
    operator-norm scale 8 folded into its weight.
    """
    return _fragments(circuit, cuts, False)


def op_pair_label(term: QpdTerm) -> str:
    """Operator names of a term's two sides, e.g. `PROJ_PLUS(+1),ROT_I_PLUS_IZ(-1)`."""
    return ",".join(side if alpha is None else f"{side}({alpha:+d})" for side, alpha in term.sides())


def _enumerated_entry(frag: SampledFragment) -> dict:
    terms = [o.term for o in frag.options]
    return {"families": [t.family for t in terms], "alphas": [[t.alpha_a, t.alpha_b] for t in terms],
            "coefficient": math.prod(t.coefficient for t in terms), "weight": frag.weight,
            "keep_rules": [list(r) for r in frag.keep_rules]}


def _grouped_entry(frag: SampledFragment) -> dict:
    return {"families": [o.kind if o.rz_angle is None else f"{o.kind}({o.rz_angle:+.6f})" for o in frag.options],
            "weight": frag.weight}


def fragment_manifest(circuit: Circuit, cuts, mode: str = "enumerated") -> dict:
    """JSON-ready description of every fragment circuit for external runners."""
    cuts = _check_cuts(circuit, cuts)
    if mode == "enumerated":
        fragments, describe = build_enumerated_fragments(circuit, cuts), _enumerated_entry
    elif mode == "grouped":
        fragments, describe = build_grouped_fragments(circuit, cuts), _grouped_entry
    else:
        raise ValueError(f"unknown manifest mode {mode!r}")
    entries = [{"index": i, **describe(frag), "circuit": circuit_to_text(frag.circuit)}
               for i, frag in enumerate(fragments)]
    return {
        "mode": mode,
        "n_qubits": circuit.n_qubits,
        "cuts": [{"position": c.position, "qubit_a": c.qubit_a, "qubit_b": c.qubit_b,
                  "theta": c.theta} for c in cuts],
        "fragment_count": len(entries),
        "fragments": entries,
    }


def write_fragment_manifest(path, circuit: Circuit, cuts, mode: str = "enumerated") -> None:
    with open(path, "w") as fh:
        json.dump(fragment_manifest(circuit, cuts, mode), fh, indent=2)


# --- exact evaluation of single terms (full vs simplified) ---------------------


def evaluate_term_exact(circuit: Circuit, cut: CutSite, term: QpdTerm,
                        observables: list[PauliObservable], noise=None) -> list[float]:
    """Raw (pre-coefficient) values of one term's fragment, exactly."""
    program = _program(circuit, _check_cuts(circuit, [cut]), [[(1.0, term)]])
    return expectations(_evolve(DensityMatrix.zero(circuit.n_qubits), program, noise), observables)


def realize_simplified(circuit: Circuit, cut: CutSite, simplified: SimplifiedTerm) -> Circuit:
    """CPTP circuit of a simplified projected fragment.

    The projected wire is re-prepared in its basis state at the cut (reset,
    plus X for |1>), the partner wire gets the surviving Rz, and every later
    RZZ touching the projected wire is folded onto its other qubit as
    RZ(fold_sign * angle).
    """
    proj_q = cut.qubit_a if simplified.projected_side == "a" else cut.qubit_b
    partner_q = cut.qubit_b if simplified.projected_side == "a" else cut.qubit_a
    inserted = [reset(proj_q)]
    if simplified.projected_bit == 1:
        inserted.append(x(proj_q))
    inserted.append(rz(simplified.partner_rz, partner_q))
    gates = list(circuit.gates[: cut.position]) + inserted
    for g in circuit.gates[cut.position:]:
        if proj_q in g.qubits:
            if g.kind == GateKind.RZZ:
                other = g.qubits[0] if g.qubits[1] == proj_q else g.qubits[1]
                gates.append(rz(simplified.fold_sign * g.angle, other))
                continue
            if g.kind != GateKind.RZ:
                raise ValueError(
                    f"cannot fold {g.kind.value} on the projected wire; only diagonal gates survive"
                )
            continue  # phase on a basis state: drop
        gates.append(g)
    return Circuit(circuit.n_qubits, circuit.n_clbits, tuple(gates))


def evaluate_simplified_exact(circuit: Circuit, cut: CutSite, simplified: SimplifiedTerm,
                              observables: list[PauliObservable], noise=None) -> list[float]:
    """Raw values of a simplified fragment: scale * classical factor * CPTP run."""
    realized = realize_simplified(circuit, cut, simplified)
    rho = run_density(realized, noise)
    k = simplified.scale * simplified.classical_factor
    return [k * v for v in expectations(rho, observables)]
