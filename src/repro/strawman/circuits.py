"""Boolean circuits: the computation substrate for the SMC strawman.

Section 3.1 dismisses generic secure multiparty computation as
"prohibitively expensive" for per-update route verification.  To measure
that claim rather than assert it, we need the actual circuit a generic
SMC would evaluate for the paper's running example: *the minimum of k
AS-path lengths* (and the arg-min selection).  This module provides a
small circuit IR — XOR / AND / NOT over single bits — plus builders for
adders, comparators, multiplexers and the k-way minimum, with gate and
depth accounting (AND gates dominate SMC cost; XOR is free in GMW).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

XOR = "xor"
AND = "and"
NOT = "not"
INPUT = "input"
CONST = "const"


@dataclass(frozen=True)
class Gate:
    """One gate: ``kind`` plus the indices of its argument wires."""

    kind: str
    args: Tuple[int, ...] = ()
    value: int = 0       # for CONST
    owner: str = ""      # for INPUT: which party supplies the bit
    label: str = ""      # for INPUT: diagnostic name


class Circuit:
    """A DAG of gates identified by wire index (creation order)."""

    def __init__(self) -> None:
        self.gates: List[Gate] = []
        self.outputs: List[int] = []

    # -- construction ---------------------------------------------------------

    def _add(self, gate: Gate) -> int:
        self.gates.append(gate)
        return len(self.gates) - 1

    def input(self, owner: str, label: str = "") -> int:
        return self._add(Gate(kind=INPUT, owner=owner, label=label))

    def const(self, value: int) -> int:
        if value not in (0, 1):
            raise ValueError("const must be a bit")
        return self._add(Gate(kind=CONST, value=value))

    def xor(self, a: int, b: int) -> int:
        return self._add(Gate(kind=XOR, args=(a, b)))

    def and_(self, a: int, b: int) -> int:
        return self._add(Gate(kind=AND, args=(a, b)))

    def not_(self, a: int) -> int:
        return self._add(Gate(kind=NOT, args=(a,)))

    def or_(self, a: int, b: int) -> int:
        """a OR b = (a XOR b) XOR (a AND b)."""
        return self.xor(self.xor(a, b), self.and_(a, b))

    def mux(self, select: int, when_true: int, when_false: int) -> int:
        """when_false XOR (select AND (when_true XOR when_false))."""
        diff = self.xor(when_true, when_false)
        return self.xor(when_false, self.and_(select, diff))

    def mark_output(self, wire: int) -> None:
        self.outputs.append(wire)

    # -- multi-bit helpers (little-endian wire vectors) -------------------------

    def input_word(self, owner: str, bits: int, label: str = "") -> List[int]:
        return [self.input(owner, f"{label}[{i}]") for i in range(bits)]

    def mux_word(self, select: int, when_true: Sequence[int],
                 when_false: Sequence[int]) -> List[int]:
        if len(when_true) != len(when_false):
            raise ValueError("word width mismatch")
        return [
            self.mux(select, t, f) for t, f in zip(when_true, when_false)
        ]

    def less_or_equal(self, a: Sequence[int], b: Sequence[int]) -> int:
        """a <= b for unsigned little-endian words (ripple comparator)."""
        if len(a) != len(b):
            raise ValueError("word width mismatch")
        # le_i for bits [0..i]: le = (a_i == b_i) ? le_{i-1} : (b_i)
        le = self.const(1)
        for ai, bi in zip(a, b):
            eq = self.not_(self.xor(ai, bi))
            le = self.mux(eq, le, bi)
        return le

    def minimum(self, words: Sequence[Sequence[int]]) -> List[int]:
        """k-way minimum by a linear chain of compare-and-select."""
        if not words:
            raise ValueError("need at least one word")
        current = list(words[0])
        for word in words[1:]:
            cond = self.less_or_equal(current, word)
            current = self.mux_word(cond, current, list(word))
        return current

    # -- accounting ----------------------------------------------------------

    def and_gate_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == AND)

    def gate_count(self) -> int:
        return sum(1 for g in self.gates if g.kind in (XOR, AND, NOT))

    def and_depth(self) -> int:
        """Longest chain of AND gates — the round count of GMW."""
        depth: Dict[int, int] = {}
        for index, gate in enumerate(self.gates):
            if gate.kind in (INPUT, CONST):
                depth[index] = 0
            else:
                base = max((depth[a] for a in gate.args), default=0)
                depth[index] = base + (1 if gate.kind == AND else 0)
        return max((depth[w] for w in self.outputs), default=0)

    def input_wires(self) -> List[int]:
        return [i for i, g in enumerate(self.gates) if g.kind == INPUT]

    # -- plain evaluation (reference semantics) ----------------------------------

    def evaluate(self, inputs: Dict[int, int]) -> List[int]:
        """Evaluate in the clear; ``inputs`` maps input wires to bits."""
        values: Dict[int, int] = {}
        for index, gate in enumerate(self.gates):
            if gate.kind == INPUT:
                if index not in inputs:
                    raise ValueError(f"missing input for wire {index}")
                values[index] = inputs[index] & 1
            elif gate.kind == CONST:
                values[index] = gate.value
            elif gate.kind == XOR:
                values[index] = values[gate.args[0]] ^ values[gate.args[1]]
            elif gate.kind == AND:
                values[index] = values[gate.args[0]] & values[gate.args[1]]
            elif gate.kind == NOT:
                values[index] = 1 - values[gate.args[0]]
            else:
                raise ValueError(f"unknown gate kind {gate.kind}")
        return [values[w] for w in self.outputs]


def minimum_length_circuit(parties: Sequence[str], bits: int) -> Circuit:
    """The FIG1 task as a circuit: each party inputs its route length
    (``bits``-bit word); the output is the minimum length."""
    circuit = Circuit()
    words = [
        circuit.input_word(party, bits, label=f"len_{party}")
        for party in parties
    ]
    result = circuit.minimum(words)
    for wire in result:
        circuit.mark_output(wire)
    return circuit


def word_to_inputs(circuit: Circuit, owner_words: Dict[str, int],
                   bits: int) -> Dict[int, int]:
    """Assign each party's integer to its input wires (little-endian)."""
    assignment: Dict[int, int] = {}
    per_owner: Dict[str, List[int]] = {}
    for index in circuit.input_wires():
        per_owner.setdefault(circuit.gates[index].owner, []).append(index)
    for owner, value in owner_words.items():
        wires = per_owner.get(owner, [])
        if len(wires) != bits:
            raise ValueError(f"{owner} has {len(wires)} wires, expected {bits}")
        for position, wire in enumerate(wires):
            assignment[wire] = (value >> position) & 1
    return assignment


def bits_to_int(bits: Sequence[int]) -> int:
    return sum(bit << i for i, bit in enumerate(bits))
