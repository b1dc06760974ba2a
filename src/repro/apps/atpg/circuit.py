"""Combinational circuits: gates, netlists, levelization and 5-valued simulation.

Signals use the classic D-calculus values:

* ``0`` / ``1`` — known logic values,
* ``X`` — unassigned,
* ``D`` — 1 in the good circuit, 0 in the faulty circuit,
* ``DB`` — 0 in the good circuit, 1 in the faulty circuit.

The same evaluator supports plain binary simulation (no X/D present), which
the fault simulator uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import ApplicationError

# Signal values.
ZERO, ONE, X, D, DB = "0", "1", "X", "D", "DB"

#: Gate types and their controlling / inversion properties.
GATE_TYPES = ("AND", "OR", "NAND", "NOR", "NOT", "BUF", "XOR")

CONTROLLING_VALUE = {"AND": ZERO, "NAND": ZERO, "OR": ONE, "NOR": ONE}
INVERTING = {"NAND": True, "NOR": True, "NOT": True, "AND": False, "OR": False,
             "BUF": False, "XOR": False}


def _to_good_bad(value: str) -> Tuple[Optional[int], Optional[int]]:
    """Split a 5-valued signal into (good-circuit bit, faulty-circuit bit)."""
    return {
        ZERO: (0, 0), ONE: (1, 1), D: (1, 0), DB: (0, 1), X: (None, None),
    }[value]


def _from_good_bad(good: Optional[int], bad: Optional[int]) -> str:
    if good is None or bad is None:
        return X
    return {(0, 0): ZERO, (1, 1): ONE, (1, 0): D, (0, 1): DB}[(good, bad)]


def _eval_binary(gate_type: str, bits: Sequence[Optional[int]]) -> Optional[int]:
    """Evaluate one gate over plain bits (None = unknown)."""
    if gate_type in ("AND", "NAND"):
        if any(b == 0 for b in bits):
            out = 0
        elif any(b is None for b in bits):
            return None
        else:
            out = 1
    elif gate_type in ("OR", "NOR"):
        if any(b == 1 for b in bits):
            out = 1
        elif any(b is None for b in bits):
            return None
        else:
            out = 0
    elif gate_type in ("NOT", "BUF"):
        if bits[0] is None:
            return None
        out = bits[0]
    elif gate_type == "XOR":
        if any(b is None for b in bits):
            return None
        out = 0
        for b in bits:
            out ^= b
    else:  # pragma: no cover - guarded by construction
        raise ApplicationError(f"unknown gate type {gate_type}")
    if gate_type in ("NAND", "NOR", "NOT"):
        out = 1 - out
    return out


def evaluate_gate(gate_type: str, inputs: Sequence[str]) -> str:
    """Evaluate one gate over 5-valued inputs."""
    goods = []
    bads = []
    for value in inputs:
        good, bad = _to_good_bad(value)
        goods.append(good)
        bads.append(bad)
    return _from_good_bad(_eval_binary(gate_type, goods), _eval_binary(gate_type, bads))


@dataclass(frozen=True)
class Gate:
    """One gate: its output line name, type, and input line names."""

    name: str
    gate_type: str
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.gate_type not in GATE_TYPES:
            raise ApplicationError(f"unknown gate type {self.gate_type!r}")
        if self.gate_type in ("NOT", "BUF") and len(self.inputs) != 1:
            raise ApplicationError(f"{self.gate_type} takes exactly one input")
        if self.gate_type not in ("NOT", "BUF") and len(self.inputs) < 2:
            raise ApplicationError(f"{self.gate_type} needs at least two inputs")


@dataclass
class Circuit:
    """A combinational circuit: primary inputs, gates (a DAG), primary outputs."""

    primary_inputs: List[str]
    gates: List[Gate]
    primary_outputs: List[str]
    _order: Optional[List[Gate]] = field(default=None, repr=False)
    _fanout: Optional[Dict[str, List[str]]] = field(default=None, repr=False)
    _gate_by_name: Optional[Dict[str, Gate]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        names = set(self.primary_inputs)
        for gate in self.gates:
            if gate.name in names:
                raise ApplicationError(f"duplicate line name {gate.name!r}")
            names.add(gate.name)
        for gate in self.gates:
            for source in gate.inputs:
                if source not in names:
                    raise ApplicationError(
                        f"gate {gate.name!r} reads undefined line {source!r}"
                    )
        for output in self.primary_outputs:
            if output not in names:
                raise ApplicationError(f"undefined primary output {output!r}")

    # -- structure --------------------------------------------------------- #

    @property
    def lines(self) -> List[str]:
        """Every signal line: primary inputs plus every gate output."""
        return list(self.primary_inputs) + [gate.name for gate in self.gates]

    def gate_for(self, name: str) -> Optional[Gate]:
        if self._gate_by_name is None:
            self._gate_by_name = {gate.name: gate for gate in self.gates}
        return self._gate_by_name.get(name)

    def topological_gates(self) -> List[Gate]:
        """Gates in dependency order (inputs before the gates reading them)."""
        if self._order is not None:
            return self._order
        resolved = set(self.primary_inputs)
        remaining = list(self.gates)
        order: List[Gate] = []
        while remaining:
            progressed = False
            still: List[Gate] = []
            for gate in remaining:
                if all(source in resolved for source in gate.inputs):
                    order.append(gate)
                    resolved.add(gate.name)
                    progressed = True
                else:
                    still.append(gate)
            if not progressed:
                raise ApplicationError("the circuit contains a combinational cycle")
            remaining = still
        self._order = order
        return order

    def fanout(self) -> Dict[str, List[str]]:
        """Map from each line to the gates that read it."""
        if self._fanout is None:
            fanout: Dict[str, List[str]] = {line: [] for line in self.lines}
            for gate in self.gates:
                for source in gate.inputs:
                    fanout[source].append(gate.name)
            self._fanout = fanout
        return self._fanout

    # -- simulation --------------------------------------------------------- #

    def simulate(self, assignment: Dict[str, str],
                 fault: Optional[Tuple[str, str]] = None) -> Tuple[Dict[str, str], int]:
        """5-valued forward simulation.

        ``assignment`` maps primary inputs to values (missing inputs are X).
        ``fault`` is an optional ``(line, stuck_value)`` pair; the fault site
        takes value D (stuck-at-0 activated by a good 1) or DB (stuck-at-1
        activated by a good 0) when the good value differs from the stuck
        value.  Returns the value of every line and the number of gate
        evaluations performed (the work-unit count).
        """
        values: Dict[str, str] = {}
        evaluations = 0
        for pi in self.primary_inputs:
            values[pi] = assignment.get(pi, X)
        if fault is not None and fault[0] in values:
            values[fault[0]] = self._faulty_value(values[fault[0]], fault[1])
        for gate in self.topological_gates():
            evaluations += 1
            value = evaluate_gate(gate.gate_type, [values[s] for s in gate.inputs])
            if fault is not None and gate.name == fault[0]:
                value = self._faulty_value(value, fault[1])
            values[gate.name] = value
        return values, evaluations

    @staticmethod
    def _faulty_value(good_value: str, stuck_at: str) -> str:
        """Value of the fault site given its good value and the stuck-at value."""
        if good_value == X:
            return X
        good_bit, _ = _to_good_bad(good_value)
        stuck_bit = 0 if stuck_at == ZERO else 1
        if good_bit == stuck_bit:
            return good_value
        return D if good_bit == 1 else DB


def random_circuit(num_inputs: int = 8, num_gates: int = 40, num_outputs: int = 4,
                   seed: int = 0, max_fanin: int = 3) -> Circuit:
    """Generate a random levelized combinational circuit.

    Gates draw their inputs from recently created lines (guaranteeing a DAG
    and keeping every line in some output cone).  Every gate whose output is
    not read by another gate becomes a primary output, so no line dangles;
    ``num_outputs`` is a lower bound on how many such sinks the construction
    leaves.
    """
    if num_inputs < 2 or num_gates < num_outputs:
        raise ApplicationError("circuit parameters too small")
    rng = random.Random(seed)
    inputs = [f"i{k}" for k in range(num_inputs)]
    available = list(inputs)
    gates: List[Gate] = []
    binary_types = ["AND", "OR", "NAND", "NOR", "XOR"]
    for index in range(num_gates):
        name = f"g{index}"
        # Bias input selection toward recent lines so earlier gates get fanout.
        window = available[-(num_inputs + 6):]
        if rng.random() < 0.15:
            gate_type = "NOT"
            sources = (rng.choice(window),)
        else:
            gate_type = rng.choice(binary_types)
            fanin = rng.randint(2, max_fanin)
            sources = tuple(rng.sample(window, min(fanin, len(window))))
            if len(sources) < 2:
                sources = tuple(list(sources) + [rng.choice(available)])
        gates.append(Gate(name=name, gate_type=gate_type, inputs=sources))
        available.append(name)
    read_lines = {source for gate in gates for source in gate.inputs}
    outputs = [gate.name for gate in gates if gate.name not in read_lines]
    if not outputs:
        outputs = [gates[-1].name]
    return Circuit(primary_inputs=inputs, gates=gates, primary_outputs=outputs)
