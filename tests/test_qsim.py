import hashlib
import math

import numpy as np
import pytest

from qembed import qsim
from qembed.errors import (
    DuplicateQubitIndex,
    IndexOutOfRange,
    NonFiniteAngle,
    NonUnitaryGate,
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

    @pytest.mark.parametrize("n, data, layout, message", [
        (1, [math.nan, 1.0], qsim.DENSE, "amplitudes must be finite"),
        (2, [1.0, 0.0], qsim.DENSE, "dense amplitude count must be 2\\^n_qubits"),
        (2, [[1.0, 0.0]], qsim.PRODUCT, "one 2-amplitude factor per qubit"),
        (1, [[1.0, 1.0]], qsim.PRODUCT, "every product factor must be normalized"),
        (1, [1.0, 0.0], "sparse", "unknown layout 'sparse'"),
    ], ids=["non-finite", "dense-count", "product-shape", "product-norm", "layout"])
    def test_malformed_state_rejected(self, n, data, layout, message):
        with pytest.raises(ValueError, match=message):
            qsim.StateVector(n, np.array(data), layout)

    def test_repr_names_qubits_and_layout(self):
        assert repr(new_zero_state(3)) == "StateVector(n_qubits=3, layout='product')"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_states_of_different_widths_never_equal(self, n):
        # |0...0> on n and on n + 1 qubits: equal amplitudes where both have
        # them, but no global phase maps one onto the other
        a, b = new_zero_state(n), new_zero_state(n + 1)
        assert states_equal_up_to_phase(a, a.to_dense())
        assert not states_equal_up_to_phase(a, b)
        assert not states_equal_up_to_phase(b, a)

    def test_to_dense_of_dense_state_is_itself(self):
        s = random_dense_state(np.random.default_rng(1), 3)
        assert s.to_dense() is s

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

    @pytest.mark.parametrize("gate", [
        [[1, 1], [0, 1]],  # a shear: maps |0> to |0>, so a norm check on that state passes
        [[math.nan, 0], [0, 1]],
        [[math.inf, 0], [0, 1]],
        [[1, 0], [0, 2]],
        np.eye(3),
        [1, 0],
    ])
    def test_non_unitary_gate_rejected(self, gate):
        with pytest.raises(NonUnitaryGate):
            CircuitOp.single(gate, 0)
        with pytest.raises(NonUnitaryGate):
            CircuitOp(qsim.SINGLE, (0,), np.asarray(gate, dtype=complex))

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

    def test_malformed_ops_rejected_on_construction(self):
        # no state is needed to see these; apply is never reached
        with pytest.raises(ValueError, match="unknown op kind"):
            CircuitOp("rotate", (0,))
        with pytest.raises(ValueError, match="wrong qubit count"):
            CircuitOp(qsim.CNOT, (0,))
        with pytest.raises(ValueError, match="wrong qubit count"):
            CircuitOp(qsim.TOFFOLI, (0, 1))
        with pytest.raises(DuplicateQubitIndex):
            CircuitOp.toffoli(0, 1, 0)

    @pytest.mark.parametrize("make", [
        lambda: CircuitOp.cnot(0, 1.0),
        lambda: CircuitOp.single(qsim.hadamard(), 1.0),
        lambda: CircuitOp.swap(True, 0),
        lambda: CircuitOp.toffoli(0, 1, "2"),
    ])
    def test_non_integer_qubit_rejected_on_construction(self, make):
        with pytest.raises(IndexOutOfRange, match="must be integers"):
            make()

    def test_numpy_integer_qubits_accepted(self):
        s = apply(new_zero_state(2), CircuitOp.single(qsim.pauli_x(), np.int64(1)))
        assert qsim.expectation_z(s, np.int64(1)) == -1.0

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

    @pytest.mark.parametrize("qubit", [True, 1.0, "0"])
    @pytest.mark.parametrize("dense", [False, True])
    def test_expectation_z_non_integer_index(self, qubit, dense):
        # the same error in both layouts, where a dense state once read a value
        s = new_zero_state(2)
        with pytest.raises(IndexOutOfRange):
            qsim.expectation_z(s.to_dense() if dense else s, qubit)


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


def pinned_op(rng, n):
    """One random op of any kind; toffoli only where three qubits exist."""
    kind = int(rng.integers(0, 9 if n >= 3 else 8))
    if kind <= 5:
        theta = rng.uniform(-math.pi, math.pi)
        gate = (qsim.hadamard(), qsim.pauli_x(), qsim.s_gate(), qsim.rx_gate(theta),
                qsim.ry_gate(theta), qsim.rz_gate(theta))[kind]
        return CircuitOp.single(gate, int(rng.integers(0, n)))
    qs = [int(q) for q in rng.choice(n, size=min(n, 3), replace=False)]
    if kind == 6:
        return CircuitOp.cnot(qs[0], qs[1])
    if kind == 7:
        return CircuitOp.swap(qs[0], qs[1])
    return CircuitOp.toffoli(qs[0], qs[1], qs[2])


class TestPinnedCircuits:
    """sha256 over the amplitude bytes after every op of seeded random circuits.

    Each circuit starts from |0...0> in product layout (single-qubit gates
    stay product until the first entangling op) or from a random dense
    state, so both layouts and every gate kind are pinned.  numpy's complex
    kernels differ with and without AVX2 (FMA), so each circuit has one
    digest per choice.
    """

    PINS = {
        ('product', 2): {
            "4cb794d5090b7195bc62b9a939e01b06ec2d6e8727d5e8cc212255cd7e59cb11",
            "84173547d9589d36fc8a25340193fc7f0d282641faf2d379e346691578d3f15d",
        },
        ('product', 3): {
            "1b975887582b10f2d00a0ed31ae6006aebf74b3846c1ec920fec9b29b9521aad",
            "1f9d6ef63c8ca2db9b25a283b038d66b8e6b303a95f2322f4e33d4c1e745b220",
        },
        ('product', 4): {
            "b2c6f5b1b02075f9bfd3dd2c9c83f9c44e494c43933b5b5a2e67b8a56b96bb12",
            "c74c93f53094f6a8079b81935dde3b949da30409953ec53a27ecaee3041d3ea4",
        },
        ('product', 5): {
            "e85f8590216766f172ce15cfe565556afd2d46bb8f6f918c8557c9cf0fc3399e",
            "081b0bf809e458c0b6406738f8fbface44e5e8519575ed0a1cc4bbfbc52b071a",
        },
        ('product', 6): {
            "3dd1ed94c515a9edf2d8522b6167d7f4e3f2d2bbcdb87bf63a7e3154fb36ae22",
            "50dc2fc8a0c76c8832c4901fb4389712d9ae2703850ae450a1f8d14e51501431",
        },
        ('dense', 2): {
            "b732ac22c1be0558f08f9d37bbb15d16e0fd6580ed91d14333935e8fe628b325",
            "a59c7456ca5c90314583f3cab370e05a458c917208faeef2f637022f818df07b",
        },
        ('dense', 3): {
            "dabcd51684ed2df43e7c6cbbee69a29fb6c58ecee80fc1bcae6d8549657a96b5",
            "23319bc79e9a81c684a4136deaef4b62f5152a4313c3bcc2194fac0108045ce3",
        },
        ('dense', 4): {
            "1a574f17aadf3254660195b84f6123f6ddcdf83a45eca7f82bf0ce69359633a9",
            "0801f325c4a3999fff2578306c23a1ad44d0d90f273f1aad90fbcf47e2fac1e5",
        },
        ('dense', 5): {
            "8a8c73462c87e4326c12f2fce419d7ae5f2c493a583cf8657fb55a58e178aced",
            "6cae3f660142365e0562de08549b1c1a6f3f06d33c6c0f57e01eaf07cece0443",
        },
        ('dense', 6): {
            "e0da5238a32b044010900b7fc000d9cec9eff6d4c56dabfd7b50532b48c56260",
            "f44d89cd4ac173f71edd1571a0c080cb2ab9b27f0c07873cdb31118161a96554",
        },
    }

    @pytest.mark.parametrize("start", ["product", "dense"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_digest(self, n, start):
        rng = np.random.default_rng(100 * n + (start == "dense"))
        state = new_zero_state(n) if start == "product" else random_dense_state(rng, n)
        digest = hashlib.sha256()
        for _ in range(40):
            state = apply(state, pinned_op(rng, n))
            digest.update(state.amps.tobytes())
        assert digest.hexdigest() in self.PINS[(start, n)]
