import math

import numpy as np
import pytest

from qembed import qsim
from qembed.errors import (
    DuplicateQubitIndex,
    IndexOutOfRange,
    NonFiniteAngle,
    QubitCapExceeded,
)
from qembed.qsim import CircuitOp, apply, new_zero_state, states_equal_up_to_phase


def random_single_qubit_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return qsim.StateVector(1, v, qsim.DENSE)


def random_dense_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    v /= np.linalg.norm(v)
    return qsim.StateVector(n, v, qsim.DENSE)


class TestStateConstruction:
    def test_zero_state_single_qubit(self):
        s = new_zero_state(1)
        assert np.allclose(s.amps, [1, 0])
        assert s.layout == qsim.PRODUCT

    def test_zero_state_three_qubits(self):
        s = new_zero_state(3)
        expected = np.zeros(8)
        expected[0] = 1
        assert np.allclose(s.amps, expected)

    def test_cap_enforced(self):
        with pytest.raises(QubitCapExceeded):
            new_zero_state(25)
        with pytest.raises(QubitCapExceeded):
            new_zero_state(0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            qsim.StateVector(1, np.array([1.0, 1.0]), qsim.DENSE)

    def test_immutable(self):
        s = new_zero_state(2)
        with pytest.raises(AttributeError):
            s.n_qubits = 3
        with pytest.raises(ValueError):
            s.amps[0] = 0


class TestGates:
    def test_rx_zero_is_identity(self):
        assert np.allclose(qsim.rx_gate(0), np.eye(2), atol=1e-15)

    def test_rx_pi(self):
        expected = np.array([[0, -1j], [-1j, 0]])
        assert np.allclose(qsim.rx_gate(math.pi), expected, atol=1e-12)

    def test_rx_78_degrees(self):
        # scalar-oracle values for cos/sin of 39 degrees
        g = qsim.rx_gate(math.radians(78))
        assert abs(g[0, 0] - 0.7771459614569709) < 1e-12
        assert abs(g[0, 1] - (-0.6293203910498374j)) < 1e-12

    def test_ry_pi_flips_zero(self):
        s = apply(new_zero_state(1), CircuitOp.single(qsim.ry_gate(math.pi), 0))
        assert np.allclose(s.amps, [0, 1], atol=1e-12)

    def test_rz_is_diagonal_phase(self):
        s = apply(new_zero_state(1), CircuitOp.single(qsim.rz_gate(1.3), 0))
        assert abs(s.amps[0] - np.exp(-0.65j)) < 1e-12
        assert np.allclose(qsim.probabilities(s), [1, 0], atol=1e-12)
        assert np.allclose(qsim.rz_gate(0), np.eye(2), atol=1e-15)

    def test_fixed_gates(self):
        assert np.allclose(qsim.hadamard(), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert np.allclose(qsim.pauli_x(), [[0, 1], [1, 0]])
        assert np.allclose(qsim.s_gate(), [[1, 0], [0, 1j]])

    def test_h_on_zero(self):
        s = apply(new_zero_state(1), CircuitOp.single(qsim.hadamard(), 0))
        r = 1 / math.sqrt(2)
        assert np.allclose(s.amps, [r, r], atol=1e-12)

    def test_x_flips_zero(self):
        s = apply(new_zero_state(1), CircuitOp.single(qsim.pauli_x(), 0))
        assert np.allclose(s.amps, [0, 1])

    def test_nonfinite_angle(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteAngle):
                qsim.rx_gate(bad)
            with pytest.raises(NonFiniteAngle):
                qsim.ry_gate(bad)
            with pytest.raises(NonFiniteAngle):
                qsim.rz_gate(bad)

    def test_unitarity_1000_random_angles(self):
        rng = np.random.default_rng(11)
        eye = np.eye(2)
        for _ in range(1000):
            theta = rng.uniform(-10, 10)
            for make in (qsim.rx_gate, qsim.ry_gate, qsim.rz_gate):
                g = make(theta)
                assert np.max(np.abs(g @ g.conj().T - eye)) < 1e-12
        for g in (qsim.hadamard(), qsim.pauli_x(), qsim.s_gate()):
            assert np.max(np.abs(g @ g.conj().T - eye)) < 1e-12


class TestApply:
    def test_cnot_basis_action(self):
        # |10> (index 2): control qubit 1 is set, so target qubit 0 flips
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1
        s = qsim.StateVector(2, amps, qsim.DENSE)
        out = apply(s, CircuitOp.cnot(1, 0))
        expected = np.zeros(4)
        expected[3] = 1
        assert np.allclose(out.amps, expected)

    def test_cnot_control_clear_is_noop(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1  # |01>: control qubit 1 clear
        out = apply(qsim.StateVector(2, amps, qsim.DENSE), CircuitOp.cnot(1, 0))
        assert np.allclose(out.amps, amps)

    def test_swap_basis_action(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1  # |01>
        out = apply(qsim.StateVector(2, amps, qsim.DENSE), CircuitOp.swap(0, 1))
        expected = np.zeros(4)
        expected[2] = 1  # |10>
        assert np.allclose(out.amps, expected)

    def test_toffoli_basis_action(self):
        amps = np.zeros(8, dtype=complex)
        amps[6] = 1  # |110>: controls 2,1 set
        out = apply(qsim.StateVector(3, amps, qsim.DENSE), CircuitOp.toffoli(2, 1, 0))
        expected = np.zeros(8)
        expected[7] = 1
        assert np.allclose(out.amps, expected)
        # |100>: only one control set, unchanged
        amps2 = np.zeros(8, dtype=complex)
        amps2[4] = 1
        out2 = apply(qsim.StateVector(3, amps2, qsim.DENSE), CircuitOp.toffoli(2, 1, 0))
        assert np.allclose(out2.amps, amps2)

    def test_single_qubit_keeps_product_layout(self):
        s = new_zero_state(3)
        out = apply(s, CircuitOp.single(qsim.hadamard(), 1))
        assert out.layout == qsim.PRODUCT

    def test_entangling_forces_dense(self):
        s = new_zero_state(2)
        out = apply(s, CircuitOp.cnot(0, 1))
        assert out.layout == qsim.DENSE

    def test_index_errors(self):
        s = new_zero_state(2)
        with pytest.raises(IndexOutOfRange):
            apply(s, CircuitOp.single(qsim.pauli_x(), 2))
        with pytest.raises(IndexOutOfRange):
            apply(s, CircuitOp.cnot(0, 5))
        with pytest.raises(DuplicateQubitIndex):
            apply(s, CircuitOp.cnot(1, 1))
        with pytest.raises(DuplicateQubitIndex):
            apply(apply(s, CircuitOp.single(qsim.hadamard(), 0)), CircuitOp.swap(0, 0))

    def test_h_twice_restores_random_state(self):
        rng = np.random.default_rng(3)
        op = CircuitOp.single(qsim.hadamard(), 0)
        for _ in range(50):
            s = random_single_qubit_state(rng)
            out = apply(apply(s, op), op)
            assert np.allclose(out.amps, s.amps, atol=1e-12)


def random_op(rng, n):
    kind = rng.integers(0, 7)
    if kind <= 3:
        gate = [
            qsim.hadamard(),
            qsim.pauli_x(),
            qsim.s_gate(),
            qsim.rx_gate(rng.uniform(-math.pi, math.pi)),
        ][kind]
        return CircuitOp.single(gate, int(rng.integers(0, n)))
    qubits = rng.choice(n, size=3, replace=False)
    if kind == 4:
        return CircuitOp.cnot(int(qubits[0]), int(qubits[1]))
    if kind == 5:
        return CircuitOp.swap(int(qubits[0]), int(qubits[1]))
    return CircuitOp.toffoli(int(qubits[0]), int(qubits[1]), int(qubits[2]))


class TestProperties:
    def test_norm_preserved_over_10000_random_ops(self):
        rng = np.random.default_rng(7)
        n = 6
        s = new_zero_state(n)
        for _ in range(10_000):
            s = apply(s, random_op(rng, n))
        assert abs(np.sum(np.abs(s.amps) ** 2) - 1.0) < 1e-9

    def test_involutions_1000_trials(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = int(rng.integers(3, 6))
            s = random_dense_state(rng, n)
            qs = rng.choice(n, size=3, replace=False)
            for op in (
                CircuitOp.single(qsim.pauli_x(), int(qs[0])),
                CircuitOp.single(qsim.hadamard(), int(qs[0])),
                CircuitOp.cnot(int(qs[0]), int(qs[1])),
                CircuitOp.swap(int(qs[0]), int(qs[1])),
                CircuitOp.toffoli(int(qs[0]), int(qs[1]), int(qs[2])),
            ):
                out = apply(apply(s, op), op)
                assert np.max(np.abs(out.amps - s.amps)) < 1e-12

    def test_rotation_composition_1000_trials(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a, b = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
            s = random_single_qubit_state(rng)
            via_two = apply(
                apply(s, CircuitOp.single(qsim.rx_gate(a), 0)),
                CircuitOp.single(qsim.rx_gate(b), 0),
            )
            via_one = apply(s, CircuitOp.single(qsim.rx_gate(a + b), 0))
            assert np.max(np.abs(via_two.amps - via_one.amps)) < 1e-12

    def test_product_dense_agreement_1000_trials(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            ops = [
                CircuitOp.single(qsim.rx_gate(rng.uniform(-3, 3)), int(rng.integers(0, n)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            prod = new_zero_state(n)
            dense = prod.to_dense()
            for op in ops:
                prod = apply(prod, op)
                dense = apply(dense, op)
            assert prod.layout == qsim.PRODUCT
            assert np.max(np.abs(prod.amps - dense.amps)) < 1e-12


class TestReadout:
    def test_probabilities_basic(self):
        assert np.allclose(qsim.probabilities(new_zero_state(1)), [1, 0])
        h = apply(new_zero_state(1), CircuitOp.single(qsim.hadamard(), 0))
        assert np.allclose(qsim.probabilities(h), [0.5, 0.5], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = random_dense_state(rng, int(rng.integers(1, 6)))
            p = qsim.probabilities(s)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1) < 1e-9

    def test_expectation_z_zero_state(self):
        assert qsim.expectation_z(new_zero_state(1), 0) == pytest.approx(1.0)

    def test_expectation_z_plus_state(self):
        h = apply(new_zero_state(1), CircuitOp.single(qsim.hadamard(), 0))
        assert abs(qsim.expectation_z(h, 0)) < 1e-12

    def test_expectation_z_ry_rotation(self):
        # p0 - p1 = cos^2(t/2) - sin^2(t/2) = cos(t); scalar oracle at t=1
        s = apply(new_zero_state(1), CircuitOp.single(qsim.ry_gate(1.0), 0))
        assert abs(qsim.expectation_z(s, 0) - 0.5403023058681398) < 1e-12

    def test_expectation_z_product_matches_dense(self):
        rng = np.random.default_rng(23)
        s = new_zero_state(4)
        for q in range(4):
            s = apply(s, CircuitOp.single(qsim.ry_gate(rng.uniform(0, 3)), q))
        d = s.to_dense()
        for q in range(4):
            assert qsim.expectation_z(s, q) == pytest.approx(
                qsim.expectation_z(d, q), abs=1e-12
            )

    def test_expectation_z_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            qsim.expectation_z(new_zero_state(2), 2)


class TestTensorProduct:
    def test_101_composition(self):
        one = apply(new_zero_state(1), CircuitOp.single(qsim.pauli_x(), 0))
        zero = new_zero_state(1)
        s = qsim.tensor_product(qsim.tensor_product(one, zero), one)
        expected = np.zeros(8)
        expected[5] = 1
        assert np.allclose(s.amps, expected)

    def test_zero_zero(self):
        s = qsim.tensor_product(new_zero_state(1), new_zero_state(1))
        assert np.allclose(s.amps, [1, 0, 0, 0])

    def test_plus_plus_uniform(self):
        h = apply(new_zero_state(1), CircuitOp.single(qsim.hadamard(), 0))
        s = qsim.tensor_product(h, h)
        assert np.allclose(s.amps, [0.5] * 4, atol=1e-12)

    def test_cap(self):
        with pytest.raises(QubitCapExceeded):
            qsim.tensor_product(new_zero_state(20), new_zero_state(20))

    def test_product_layout_preserved(self):
        s = qsim.tensor_product(new_zero_state(2), new_zero_state(3))
        assert s.layout == qsim.PRODUCT
        assert s.n_qubits == 5

    def test_dense_mix_matches_kron(self):
        rng = np.random.default_rng(4)
        a = random_dense_state(rng, 2)
        b = random_dense_state(rng, 1)
        s = qsim.tensor_product(a, b)
        assert np.allclose(s.amps, np.kron(a.amps, b.amps))


def test_states_equal_up_to_phase():
    rng = np.random.default_rng(9)
    s = random_dense_state(rng, 3)
    shifted = qsim.StateVector(3, s.amps * np.exp(0.37j), qsim.DENSE)
    assert states_equal_up_to_phase(s, shifted, tol=1e-12)
    other = random_dense_state(rng, 3)
    assert not states_equal_up_to_phase(s, other)
