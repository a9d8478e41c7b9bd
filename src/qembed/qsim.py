"""Statevector simulator: state construction, gate application, readout.

Qubit indices are 0-based little-endian: qubit 0 is the least significant
bit of a basis-state index.  States that never entangle (products of
single-qubit states) are kept as per-qubit factors in O(n) memory and only
expanded to the dense 2^n amplitude array when an entangling gate or a
full-probability readout forces it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateQubitIndex,
    IndexOutOfRange,
    NonFiniteAngle,
    NonUnitaryGate,
    QubitCapExceeded,
)

MAX_QUBITS = 24  # the largest state the simulator builds
MAX_DENSE_BYTES = 1 << 30  # the largest (rows, 2^qubits) complex array a batch builds

DENSE = "dense"
PRODUCT = "product"

_NORM_TOL = 1e-9


class StateVector:
    """Immutable n-qubit pure state; `_data` is a read-only view sharing a complex input's memory.

    layout "dense": `_data` holds the 2^n complex amplitudes.
    layout "product": `_data` is an (n, 2) array of per-qubit factors,
    each row a normalized single-qubit state; the equivalent dense
    amplitude at index i is the product of `_data[q, bit(i, q)]` over q.
    """

    __slots__ = ("n_qubits", "layout", "_data")

    def __init__(self, n_qubits: int, data: np.ndarray, layout: str):
        data = np.ascontiguousarray(data, dtype=complex).view()  # frozen below, not the caller's
        if not np.all(np.isfinite(data.view(float))):
            raise ValueError("state amplitudes must be finite")
        if layout == DENSE:
            if data.shape != (1 << n_qubits,):
                raise ValueError("dense amplitude count must be 2^n_qubits")
            if abs(np.sum(np.abs(data) ** 2) - 1.0) > _NORM_TOL:
                raise ValueError("state is not normalized")
        elif layout == PRODUCT:
            if data.shape != (n_qubits, 2):
                raise ValueError("product layout needs one 2-amplitude factor per qubit")
            norms = np.sum(np.abs(data) ** 2, axis=1)
            if np.any(np.abs(norms - 1.0) > _NORM_TOL):
                raise ValueError("every product factor must be normalized")
        else:
            raise ValueError(f"unknown layout {layout!r}")
        data.setflags(write=False)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def amps(self) -> np.ndarray:
        """Dense amplitude array of length 2^n (expands product layout)."""
        if self.layout == DENSE:
            return self._data
        amps = self._data[self.n_qubits - 1]
        for q in range(self.n_qubits - 2, -1, -1):
            amps = np.kron(amps, self._data[q])
        amps.setflags(write=False)
        return amps

    def to_dense(self) -> "StateVector":
        if self.layout == DENSE:
            return self
        return StateVector(self.n_qubits, self.amps, DENSE)

    def __repr__(self):
        return f"StateVector(n_qubits={self.n_qubits}, layout={self.layout!r})"


def check_qubits(n: int) -> None:
    """The simulator's one qubit cap: raise QubitCapExceeded past MAX_QUBITS."""
    if n > MAX_QUBITS:
        raise QubitCapExceeded(f"{n} qubits exceeds cap {MAX_QUBITS}")


def new_zero_state(n_qubits: int) -> StateVector:
    """All-qubits-|0> state in product layout."""
    if n_qubits < 1:
        raise QubitCapExceeded(f"n_qubits={n_qubits} is below 1")
    check_qubits(n_qubits)
    factors = np.zeros((n_qubits, 2), dtype=complex)
    factors[:, 0] = 1.0
    return StateVector(n_qubits, factors, PRODUCT)


# --- single-qubit gates -------------------------------------------------------

def _check_angle(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise NonFiniteAngle(f"angle {theta!r} is not finite")
    return theta


def rx_gate(theta: float) -> np.ndarray:
    """Rotation about the X axis: [[cos(t/2), -i sin(t/2)], [-i sin(t/2), cos(t/2)]]."""
    theta = _check_angle(theta)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_gate(theta: float) -> np.ndarray:
    """Rotation about the Y axis: [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    theta = _check_angle(theta)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_gate(theta: float) -> np.ndarray:
    """Rotation about the Z axis: diag(e^{-it/2}, e^{it/2})."""
    theta = _check_angle(theta)
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex
    )


def hadamard() -> np.ndarray:
    """H = (1/sqrt 2) [[1, 1], [1, -1]]."""
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def pauli_x() -> np.ndarray:
    """Bit flip X = [[0, 1], [1, 0]]."""
    return np.array([[0, 1], [1, 0]], dtype=complex)


def s_gate() -> np.ndarray:
    """Phase gate S = diag(1, i)."""
    return np.array([[1, 0], [0, 1j]], dtype=complex)


def is_unitary(gate: np.ndarray, tol: float = 1e-9) -> bool:
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2, 2) or not np.all(np.isfinite(gate)):
        return False
    return bool(np.all(np.abs(gate @ gate.conj().T - np.eye(2)) <= tol))


# --- circuit operations -------------------------------------------------------

SINGLE = "single"
CNOT = "cnot"
SWAP = "swap"
TOFFOLI = "toffoli"

# The two slices of the amplitudes each gate acts on, by the bits of its
# qubits: a single-qubit gate mixes them, cnot/swap/toffoli exchange them.
_SLICE_BITS = {
    SINGLE: ((0,), (1,)),
    CNOT: ((1, 0), (1, 1)),
    SWAP: ((0, 1), (1, 0)),
    TOFFOLI: ((1, 1, 0), (1, 1, 1)),
}


def _is_index(q) -> bool:
    """A qubit index is an int or a numpy integer, never a bool."""
    return isinstance(q, (int, np.integer)) and not isinstance(q, bool)


@dataclass(frozen=True)
class CircuitOp:
    """One gate application: a 1-qubit unitary or cnot/swap/toffoli.  Construction rejects
    an unknown kind, a wrong qubit count, a qubit index that is not an integer, a repeated
    qubit and a gate `is_unitary` rejects."""

    kind: str
    qubits: tuple[int, ...]
    gate: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _SLICE_BITS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if len(self.qubits) != len(_SLICE_BITS[self.kind][0]):
            raise ValueError(f"wrong qubit count for {self.kind}: {self.qubits}")
        if not all(map(_is_index, self.qubits)):
            raise IndexOutOfRange(f"qubit indices must be integers, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise DuplicateQubitIndex(f"duplicate qubit index in {self.qubits}")
        if self.kind == SINGLE and not is_unitary(self.gate):
            raise NonUnitaryGate("single-qubit gate must be a finite 2x2 unitary matrix")

    @staticmethod
    def single(gate: np.ndarray, target: int) -> "CircuitOp":
        return CircuitOp(SINGLE, (target,), np.asarray(gate, dtype=complex))

    @staticmethod
    def cnot(control: int, target: int) -> "CircuitOp":
        return CircuitOp(CNOT, (control, target))

    @staticmethod
    def swap(a: int, b: int) -> "CircuitOp":
        return CircuitOp(SWAP, (a, b))

    @staticmethod
    def toffoli(control1: int, control2: int, target: int) -> "CircuitOp":
        return CircuitOp(TOFFOLI, (control1, control2, target))


def _slices(n: int, bits: dict[int, int]) -> tuple:
    """Index into amplitudes reshaped to [2] * n: the slice where qubit q has bits[q]."""
    sel = [slice(None)] * n
    for q, bit in bits.items():
        sel[n - 1 - q] = bit  # reshape([2]*n) puts the most significant bit on axis 0
    return tuple(sel)


def apply(state: StateVector, op: CircuitOp) -> StateVector:
    """Apply one operation, returning a new state.

    Single-qubit gates keep a product-layout state in product layout;
    cnot/swap/toffoli force dense layout first.  On dense amplitudes every
    gate is one update of the two slices `_SLICE_BITS` names.
    """
    n = state.n_qubits
    for q in op.qubits:
        if not 0 <= q < n:
            raise IndexOutOfRange(f"qubit {q} out of range for {n}-qubit state")
    if op.kind == SINGLE and state.layout == PRODUCT:
        factors = state._data.copy()
        factors[op.qubits[0]] = op.gate @ factors[op.qubits[0]]
        return StateVector(n, factors, PRODUCT)

    psi = state.amps.reshape([2] * n)
    a, b = (_slices(n, dict(zip(op.qubits, bits))) for bits in _SLICE_BITS[op.kind])
    out = psi.copy()
    if op.kind == SINGLE:
        (g00, g01), (g10, g11) = op.gate
        out[a], out[b] = g00 * psi[a] + g01 * psi[b], g10 * psi[a] + g11 * psi[b]
    else:
        out[a], out[b] = psi[b], psi[a]
    return StateVector(n, out.reshape(-1), DENSE)


# --- readout ------------------------------------------------------------------

def probabilities(state: StateVector) -> np.ndarray:
    """Measurement probabilities |amps[i]|^2 over all 2^n basis states."""
    return np.abs(state.amps) ** 2


def expectation_z(state: StateVector, qubit: int) -> float:
    """Z expectation of one qubit: P(bit=0) - P(bit=1).

    O(1) per qubit in product layout; dense layout marginalizes the
    probability array.
    """
    if not (_is_index(qubit) and 0 <= qubit < state.n_qubits):
        raise IndexOutOfRange(f"qubit {qubit!r} out of range")
    if state.layout == PRODUCT:
        f = state._data[qubit]
        return float(abs(f[0]) ** 2 - abs(f[1]) ** 2)
    n = state.n_qubits
    probs = (np.abs(state.amps) ** 2).reshape([2] * n)
    axis = n - 1 - qubit  # as in _slices
    marg = probs.sum(axis=tuple(a for a in range(n) if a != axis))
    return float(marg[0] - marg[1])


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Combined state with a's qubits above b's: amps[(i << n_b) | j] = a[i] b[j]."""
    n = a.n_qubits + b.n_qubits
    check_qubits(n)
    if a.layout == PRODUCT and b.layout == PRODUCT:
        return StateVector(n, np.vstack([b._data, a._data]), PRODUCT)
    return StateVector(n, np.kron(a.amps, b.amps), DENSE)


def states_equal_up_to_phase(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """True when the two states differ only by a global phase."""
    if a.n_qubits != b.n_qubits:
        return False
    return bool(abs(abs(np.vdot(a.amps, b.amps)) - 1.0) <= tol)
