import math
import tracemalloc

import numpy as np
import pytest

from qembed import encoding as enc
from qembed import qsim
from qembed.errors import (
    DuplicateString,
    EmptyInput,
    EncodingError,
    InvalidScheme,
    LengthMismatch,
    NonAsciiCharacter,
    NonBinaryInput,
    NonFiniteInput,
    OutOfRangeFeature,
    QubitCapExceeded,
    RowEncodeError,
    ZeroVector,
)
from qembed.pipeline import FeatureMatrix

INV_SQRT_10_19 = 0.31326574483831926  # 1/sqrt(10.19), scalar oracle


def one_hot_oracle(bits):
    # independent construction: index from the written binary expansion
    idx = int("".join(str(b) for b in bits), 2)
    v = np.zeros(1 << len(bits))
    v[idx] = 1.0
    return v


class TestBasisEncode:
    def test_101(self):
        s = enc.basis_encode([1, 0, 1])
        expected = np.zeros(8)
        expected[5] = 1
        assert np.allclose(s.amps, expected)
        assert s.layout == qsim.PRODUCT

    def test_single_zero(self):
        assert np.allclose(enc.basis_encode([0]).amps, [1, 0])

    def test_non_binary(self):
        with pytest.raises(NonBinaryInput):
            enc.basis_encode([1, 2, 0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            enc.basis_encode([])

    def test_cap(self):
        with pytest.raises(QubitCapExceeded):
            enc.basis_encode([0] * 25)

    def test_brute_force_all_3bit_inputs(self):
        for idx in range(8):
            bits = [(idx >> k) & 1 for k in (2, 1, 0)]
            assert np.allclose(enc.basis_encode(bits).amps, one_hot_oracle(bits))

    def test_injective_disjoint_support(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            a = rng.integers(0, 2, size=n)
            b = rng.integers(0, 2, size=n)
            if np.array_equal(a, b):
                continue
            pa = qsim.probabilities(enc.basis_encode(a))
            pb = qsim.probabilities(enc.basis_encode(b))
            assert np.max(pa * pb) == 0


class TestBasisEncodeText:
    def test_h(self):
        (s,) = enc.basis_encode_text("h")
        assert s.n_qubits == 7
        assert np.argmax(np.abs(s.amps)) == 104

    def test_hello(self):
        states = enc.basis_encode_text("hello")
        codes = [int(np.argmax(np.abs(s.amps))) for s in states]
        assert codes == [104, 101, 108, 108, 111]

    def test_empty(self):
        with pytest.raises(EmptyInput):
            enc.basis_encode_text("")

    def test_non_ascii(self):
        with pytest.raises(NonAsciiCharacter):
            enc.basis_encode_text("café")


class TestInputChecks:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: enc.superposition_encode([""]), EmptyInput, "bitstrings must be nonempty"),
        (lambda: enc.angle_encode([0.5], enc.basis_scheme(1)), InvalidScheme,
         "angle_encode needs an angle scheme, got 'basis'"),
        (lambda: enc.readout_features(qsim.new_zero_state(1), "phase"), InvalidScheme,
         "unknown readout 'phase'"),
    ], ids=["empty-bitstring", "angle-encode-basis-scheme", "unknown-readout"])
    def test_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestSuperpositionEncode:
    def test_three_strings(self):
        s = enc.superposition_encode(["100", "010", "001"])
        expected = np.zeros(8)
        expected[[4, 2, 1]] = 1 / math.sqrt(3)
        assert np.allclose(s.amps, expected, atol=1e-12)
        assert s.layout == qsim.DENSE

    def test_two_strings_7bit(self):
        s = enc.superposition_encode(["1001110", "0100111"])
        r = 1 / math.sqrt(2)
        assert abs(s.amps[78] - r) < 1e-12  # 1001110 reads as 78
        assert abs(s.amps[39] - r) < 1e-12
        assert abs(np.sum(np.abs(s.amps) ** 2) - 1) < 1e-12

    def test_singleton(self):
        s = enc.superposition_encode(["0"])
        assert np.allclose(s.amps, [1, 0])

    def test_errors(self):
        with pytest.raises(EmptyInput):
            enc.superposition_encode([])
        with pytest.raises(LengthMismatch):
            enc.superposition_encode(["10", "011"])
        with pytest.raises(DuplicateString):
            enc.superposition_encode(["01", "01"])
        with pytest.raises(NonBinaryInput):
            enc.superposition_encode(["02"])
        with pytest.raises(QubitCapExceeded):
            enc.superposition_encode(["0" * 25, "1" * 25])

    def test_uniform_probabilities_trials(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(1, (1 << n) + 1))
            picks = rng.choice(1 << n, size=k, replace=False)
            strings = [format(i, f"0{n}b") for i in picks]
            p = qsim.probabilities(enc.superposition_encode(strings))
            assert np.allclose(p[picks], 1 / k, atol=1e-12)
            assert abs(p.sum() - 1) < 1e-12


class TestAngleEncode:
    def test_bit_pattern_010(self):
        s = enc.angle_encode([0, 1, 0], enc.angle_scheme())
        p = qsim.probabilities(s)
        assert abs(p[0b010] - 1) < 1e-12

    def test_raw_78_degrees(self):
        scheme = enc.angle_scheme(angle_map=enc.RAW)
        s = enc.angle_encode([math.radians(78)], scheme)
        assert abs(s.amps[0] - 0.7771459614569709) < 1e-12
        assert abs(s.amps[1] - (-0.6293203910498374j)) < 1e-12

    def test_all_zeros(self):
        for axis in "XY":
            s = enc.angle_encode([0, 0, 0, 0], enc.angle_scheme(axis=axis))
            assert abs(abs(s.amps[0]) - 1) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeFeature):
            enc.angle_encode([0.5, 1.1], enc.angle_scheme())
        with pytest.raises(OutOfRangeFeature):
            enc.angle_encode([-0.01], enc.angle_scheme())

    def test_non_finite(self):
        with pytest.raises(NonFiniteInput, match="features must be finite"):
            enc.angle_encode([0.5, math.nan], enc.angle_scheme())

    def test_cap_and_empty(self):
        with pytest.raises(QubitCapExceeded):
            enc.angle_encode([0.5] * 25, enc.angle_scheme())
        with pytest.raises(EmptyInput):
            enc.angle_encode([], enc.angle_scheme())

    def test_product_layout(self):
        s = enc.angle_encode([0.2, 0.9], enc.angle_scheme())
        assert s.layout == qsim.PRODUCT

    def test_endpoint_z_expectations(self):
        # linear_pi: feature 0 gives <Z> = +1, feature 1 gives -1
        rng = np.random.default_rng(41)
        for axis in "XY":
            for _ in range(100):
                n = int(rng.integers(1, 8))
                x = rng.integers(0, 2, size=n).astype(float)
                s = enc.angle_encode(x, enc.angle_scheme(axis=axis))
                z = [qsim.expectation_z(s, n - 1 - i) for i in range(n)]
                assert np.allclose(z, 1 - 2 * x, atol=1e-12)


class TestAmplitudeEncode:
    def test_reference_vector(self):
        x = [1.2, 2.7, 1.1, 0.5]
        s = enc.amplitude_encode(x)
        assert s.n_qubits == 2
        assert np.allclose(s.amps, np.array(x) * INV_SQRT_10_19, atol=1e-12)

    def test_basis_vector_passthrough(self):
        s = enc.amplitude_encode([1, 0, 0, 0])
        assert np.allclose(s.amps, [1, 0, 0, 0])

    def test_3_4_5_triangle(self):
        s = enc.amplitude_encode([3, 4])
        assert s.n_qubits == 1
        assert np.allclose(s.amps, [0.6, 0.8], atol=1e-15)

    def test_zero_padding(self):
        s = enc.amplitude_encode([1.0, 1.0, 1.0])
        assert s.amps.size == 4
        assert s.amps[3] == 0
        s5 = enc.amplitude_encode([1, 1, 1, 1, 1])
        assert s5.n_qubits == 3
        assert np.allclose(s5.amps[5:], 0)

    def test_single_value(self):
        s = enc.amplitude_encode([2.0])
        assert s.n_qubits == 1
        assert np.allclose(s.amps, [1, 0])

    def test_errors(self):
        with pytest.raises(ZeroVector):
            enc.amplitude_encode([0.0, 0.0])
        with pytest.raises(EmptyInput):
            enc.amplitude_encode([])
        with pytest.raises(NonFiniteInput):
            enc.amplitude_encode([1.0, math.nan])
        with pytest.raises(QubitCapExceeded):
            enc.amplitude_encode(np.ones(1 << 25))

    def test_norm_overflow_is_typed(self):
        # the squared norm overflows to inf, so every amplitude would be 0
        with pytest.raises(NonFiniteInput):
            enc.amplitude_encode([1e200, 1e200])

    def test_norm_underflow_is_typed(self):
        # the squared norm is subnormal or exactly 0, so the amplitudes miss
        # unit norm; no value is 0, so this is no ZeroVector
        for x in ([1e-160, 1e-160], [1e-200, 1e-200]):
            with pytest.raises(EncodingError, match="values underflow the norm"):
                enc.amplitude_encode(x)

    def test_scale_invariance_trials(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            d = int(rng.integers(1, 40))
            x = rng.normal(size=d)
            if np.linalg.norm(x) == 0:
                continue
            c = float(rng.uniform(1e-3, 1e3))
            a = enc.amplitude_encode(x).amps
            b = enc.amplitude_encode(c * x).amps
            assert np.max(np.abs(a - b)) < 1e-12


class TestNormInvariant:
    def test_every_encoder_normalized(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            states = [
                enc.basis_encode(rng.integers(0, 2, size=n)),
                enc.angle_encode(rng.uniform(0, 1, size=n), enc.angle_scheme()),
                enc.amplitude_encode(rng.normal(size=n) + 1e-6),
            ]
            for s in states:
                assert abs(np.sum(np.abs(s.amps) ** 2) - 1) < 1e-9


class TestSchemeValidation:
    def test_kind_checked(self):
        with pytest.raises(InvalidScheme):
            enc.EncodingScheme("fourier", enc.PROBABILITY_VECTOR)

    def test_readout_checked(self):
        with pytest.raises(InvalidScheme, match="unknown readout 'phase'"):
            enc.EncodingScheme(enc.AMPLITUDE, "phase")

    def test_angle_fields_only_for_angle(self):
        with pytest.raises(InvalidScheme):
            enc.EncodingScheme(enc.BASIS, enc.PROBABILITY_VECTOR, axis="X",
                               bits_per_feature=4)
        with pytest.raises(InvalidScheme):
            enc.EncodingScheme(enc.ANGLE, enc.Z_EXPECTATIONS, axis="X",
                               angle_map=enc.LINEAR_PI, bits_per_feature=4)

    def test_unit_inputs(self):
        # basis and linear_pi angle take features in [0, 1]; raw angle and amplitude any real
        schemes = (enc.basis_scheme(), enc.angle_scheme(), enc.angle_scheme("Y", enc.RAW),
                   enc.amplitude_scheme())
        assert [s.unit_inputs for s in schemes] == [True, True, False, False]

    def test_defaults(self):
        assert enc.angle_scheme().readout == enc.Z_EXPECTATIONS
        assert enc.basis_scheme().readout == enc.PROBABILITY_VECTOR
        assert enc.amplitude_scheme().readout == enc.PROBABILITY_VECTOR
        assert enc.basis_scheme().bits_per_feature == 4
        # a scheme built without a readout takes its kind's default, as the builders do
        assert enc.EncodingScheme(enc.AMPLITUDE) == enc.amplitude_scheme()
        assert enc.EncodingScheme(enc.BASIS, bits_per_feature=4) == enc.basis_scheme()
        assert (enc.EncodingScheme(enc.ANGLE, axis="X", angle_map=enc.LINEAR_PI)
                == enc.angle_scheme())

    @pytest.mark.parametrize("readout", enc.READOUTS)
    @pytest.mark.parametrize("angle_map", [enc.LINEAR_PI, enc.RAW])
    def test_z_axis_refused(self, angle_map, readout):
        # R_Z|0> is |0> up to a phase, so every row would encode one state
        with pytest.raises(InvalidScheme, match="R_Z only phases"):
            enc.angle_scheme("Z", angle_map, readout)

    def test_bad_axis_and_map(self):
        with pytest.raises(InvalidScheme):
            enc.angle_scheme(axis="Q")
        with pytest.raises(InvalidScheme):
            enc.angle_scheme(angle_map="quadratic")
        with pytest.raises(InvalidScheme, match=r"axis must be X or Y, got \['X'\]; R_Z only"):
            enc.EncodingScheme(enc.ANGLE, enc.Z_EXPECTATIONS, ["X"], enc.LINEAR_PI)
        with pytest.raises(InvalidScheme):
            enc.basis_scheme(bits_per_feature=0)
        with pytest.raises(InvalidScheme):  # True is an int to isinstance
            enc.basis_scheme(bits_per_feature=True)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bits", [25, 63, 64, 1000])
    def test_basis_bits_over_the_qubit_cap_rejected(self, bits):
        # one feature alone would take more qubits than the simulator holds;
        # from 64 bits up the fixed-point levels would also overflow int64
        with pytest.raises(InvalidScheme, match=f"at most {qsim.MAX_QUBITS}, got {bits}"):
            enc.basis_scheme(bits, enc.Z_EXPECTATIONS)

    def test_basis_bits_at_the_qubit_cap_encode_one_feature(self):
        scheme = enc.basis_scheme(qsim.MAX_QUBITS, enc.Z_EXPECTATIONS)
        got = enc.embed_matrix(matrix_of([[1.0], [0.0]]), scheme)
        assert got.data.tolist() == [[-1.0] * qsim.MAX_QUBITS, [1.0] * qsim.MAX_QUBITS]

    def test_basis_bits_take_a_numpy_integer(self):
        # stored as a Python int, so the scheme echoes as JSON
        scheme = enc.basis_scheme(np.int64(2))
        assert type(scheme.bits_per_feature) is int
        assert scheme == enc.basis_scheme(2)


class TestQuantizer:
    """Basis encoding rounds each [0, 1] feature to the scheme's bit count."""

    def test_bit_patterns(self):
        assert list(enc.bits_for_row([0.0], 4)) == [0, 0, 0, 0]
        assert list(enc.bits_for_row([1.0], 4)) == [1, 1, 1, 1]
        assert list(enc.bits_for_row([0.2], 4)) == [0, 0, 1, 1]  # level 3 of 15
        assert list(enc.bits_for_row([0.5], 1)) == [0]  # 0.5 ties to the even level
        assert enc.bits_for_row([[0.0], [1.0]], 2).tolist() == [[0, 0], [1, 1]]
        assert enc.bits_for_row(np.zeros((0, 3)), 2).shape == (0, 6)  # zero rows, 3 x 2 bits

    def test_concatenation_order(self):
        assert list(enc.bits_for_row([1.0, 0.0], 2)) == [1, 1, 0, 0]

    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(37)
        X = rng.uniform(0, 1, size=(20, 4))
        levels = (1 << 6) - 1
        weights = 2.0 ** np.arange(5, -1, -1)
        for row in X:
            recon = enc.bits_for_row(row, 6).reshape(4, 6) @ weights / levels
            assert np.max(np.abs(recon - row)) <= 0.5 / levels + 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN would round to an arbitrary level and encode as bits
        with pytest.raises(NonFiniteInput):
            enc.embed_sample([bad, 0.3], enc.basis_scheme(2, enc.Z_EXPECTATIONS))

    def test_scheme_sets_the_bit_count(self):
        scheme = enc.basis_scheme(1, enc.Z_EXPECTATIONS)
        assert enc.embed_sample([1.0, 0.2], scheme).state.n_qubits == 2
        got = enc.embed_matrix(matrix_of([[1.0, 0.2], [0.0, 0.9]]), scheme)
        assert got.data.tolist() == [[-1.0, 1.0], [1.0, -1.0]]
        # 0/1 features are [0, 1] features too: four bits each
        assert enc.embed_sample([1, 0, 1], enc.basis_scheme(4)).state.n_qubits == 12


class TestEmbedSample:
    def test_angle_half(self):
        out = enc.embed_sample([0.5], enc.angle_scheme(axis="Y"))
        assert out.features.shape == (1,)
        assert abs(out.features[0]) < 1e-12

    def test_amplitude_probability_readout(self):
        scheme = enc.amplitude_scheme()
        out = enc.embed_sample([1.2, 2.7, 1.1, 0.5], scheme)
        expected = np.array([1.44, 7.29, 1.21, 0.25]) / 10.19
        assert np.allclose(out.features, expected, atol=1e-12)

    def test_basis_bits(self):
        out = enc.embed_sample([1, 0, 1], enc.basis_scheme(1))
        expected = np.zeros(8)
        expected[5] = 1
        assert np.allclose(out.features, expected)

    def test_basis_out_of_range(self):
        with pytest.raises(OutOfRangeFeature):
            enc.embed_sample([1.0, 1.5], enc.basis_scheme())
        with pytest.raises(OutOfRangeFeature):
            enc.embed_sample([-0.01], enc.basis_scheme())

    def test_basis_two_bits(self):
        out = enc.embed_sample([1.0], enc.basis_scheme(bits_per_feature=2))
        assert out.state.n_qubits == 2
        assert np.argmax(out.features) == 3  # both bits set

    def test_superposition_rejected(self):
        # a bitstring set, not a feature vector: no scheme for embed_sample
        with pytest.raises(InvalidScheme):
            enc.embed_sample([0.1], enc.EncodingScheme("superposition",
                                                       enc.PROBABILITY_VECTOR))

    def test_readout_lengths(self):
        x = [0.2, 0.8, 0.5]
        for readout, length in [
            (enc.PROBABILITY_VECTOR, 8),
            (enc.Z_EXPECTATIONS, 3),
            (enc.AMPLITUDE_PARTS, 16),
        ]:
            out = enc.embed_sample(x, enc.angle_scheme(readout=readout))
            assert out.features.shape == (length,)

    def test_probability_readout_matches_simulator(self):
        rng = np.random.default_rng(43)
        scheme = enc.angle_scheme(readout=enc.PROBABILITY_VECTOR)
        for _ in range(100):
            x = rng.uniform(0, 1, size=int(rng.integers(1, 7)))
            out = enc.embed_sample(x, scheme)
            assert np.max(np.abs(out.features - qsim.probabilities(out.state))) < 1e-12

    def test_amplitude_parts_roundtrip(self):
        out = enc.embed_sample(
            [0.3], enc.angle_scheme(readout=enc.AMPLITUDE_PARTS)
        )
        amps = out.features[:2] + 1j * out.features[2:]
        assert np.allclose(amps, out.state.amps, atol=1e-15)


def matrix_of(rows, labels=None):
    rows = np.asarray(rows, dtype=float)
    labels = np.zeros(rows.shape[0], dtype=int) if labels is None else labels
    names = tuple(f"x{i}" for i in range(rows.shape[1]))
    return FeatureMatrix(rows, names, labels)


class TestEmbedMatrix:
    def test_angle_endpoints(self):
        out = enc.embed_matrix(matrix_of([[0.0], [1.0]]), enc.angle_scheme())
        assert np.allclose(out.data, [[1.0], [-1.0]], atol=1e-12)
        assert out.column_names == ("z0",)

    def test_amplitude_identity_rows(self):
        out = enc.embed_matrix(matrix_of(np.eye(4)), enc.amplitude_scheme())
        assert np.allclose(out.data, np.eye(4), atol=1e-12)

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(29)
        scheme = enc.amplitude_scheme()
        X = matrix_of(rng.normal(size=(50, 6)) + 0.01)
        out = enc.embed_matrix(X, scheme)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_row_error_carries_index(self):
        X = matrix_of([[0.5], [1.5], [0.2]])
        with pytest.raises(RowEncodeError) as exc_info:
            enc.embed_matrix(X, enc.angle_scheme())
        assert exc_info.value.row == 1
        assert isinstance(exc_info.value.cause, OutOfRangeFeature)

    @pytest.mark.parametrize("scheme", [
        enc.angle_scheme(readout=enc.PROBABILITY_VECTOR),
        enc.angle_scheme(readout=enc.AMPLITUDE_PARTS),
        enc.basis_scheme(2, enc.PROBABILITY_VECTOR),
    ], ids=["angle-probability", "angle-parts", "basis-2bit-probability"])
    def test_dense_readout_over_budget_fails_before_allocating(self, monkeypatch, scheme):
        monkeypatch.setattr(qsim, "MAX_DENSE_BYTES", 1 << 20)
        bits = scheme.bits_per_feature or 1
        # 212 x 2^8 complex amplitudes are 868,352 bytes: under 1 MiB
        X = matrix_of(np.full((212, 8 // bits), 0.5))
        assert enc.embed_matrix(X, scheme).n_rows == 212
        X = matrix_of(np.full((212, 10 // bits), 0.5))
        with pytest.raises(QubitCapExceeded, match=r"212 rows x 2\^10 .*10 qubits.* 3473408 bytes"):
            enc.embed_matrix(X, scheme)

    @pytest.mark.parametrize("scheme", [
        enc.angle_scheme("X", readout=enc.PROBABILITY_VECTOR),
        enc.angle_scheme("Y", readout=enc.AMPLITUDE_PARTS),
        enc.basis_scheme(2, enc.PROBABILITY_VECTOR),
        enc.amplitude_scheme(),
        enc.amplitude_scheme(enc.AMPLITUDE_PARTS),
        enc.amplitude_scheme(enc.Z_EXPECTATIONS),
    ], ids=["angle-probability", "angle-parts", "basis-2bit-probability",
            "amplitude-probability", "amplitude-parts", "amplitude-z"])
    @pytest.mark.parametrize("n_qubits", [2, 8])
    def test_dense_readout_under_budget_peaks_under_it(self, monkeypatch, scheme, n_qubits):
        budget = 1 << 20
        monkeypatch.setattr(qsim, "MAX_DENSE_BYTES", budget)
        if scheme.kind == enc.AMPLITUDE:
            width = 1 << n_qubits
        else:
            width = n_qubits // (scheme.bits_per_feature or 1)
        rng = np.random.default_rng(n_qubits)
        # from as many rows as the budget holds amplitudes for, down to the first accepted
        for m in range(budget // (16 << n_qubits), 0, -1):
            X = matrix_of(rng.uniform(0.1, 1.0, size=(m, width)))
            tracemalloc.start()
            try:
                enc.embed_matrix(X, scheme)
                _, peak = tracemalloc.get_traced_memory()
                break
            except QubitCapExceeded:
                continue
            finally:
                tracemalloc.stop()
        assert peak < budget
        # one row more still has amplitudes under the budget, so the error says what is over
        X = matrix_of(rng.uniform(0.1, 1.0, size=(m + 1, width)))
        with pytest.raises(QubitCapExceeded, match=rf"{m + 1} rows .* bytes \(\d+ in all\), over"):
            enc.embed_matrix(X, scheme)

    @pytest.mark.parametrize("scheme", [
        enc.basis_scheme(1, enc.Z_EXPECTATIONS),
        enc.basis_scheme(2, enc.Z_EXPECTATIONS),
        enc.angle_scheme("X"),
        enc.angle_scheme("Y"),
        enc.angle_scheme("X", enc.RAW),
    ], ids=["basis-1bit", "basis-2bit", "angle-X", "angle-Y", "angle-X-raw"])
    def test_z_readout_peak_memory(self, scheme):
        X = matrix_of(np.random.default_rng(48).uniform(size=(12_626, 12)))
        tracemalloc.start()
        try:
            enc.embed_matrix(X, scheme)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # (rows, qubits, 2) complex factors and their copy took 7-14x the input
        assert peak < 6 * X.data.nbytes

    def test_labels_preserved(self):
        labels = np.array([1, 0, 1])
        X = matrix_of([[0.1], [0.5], [0.9]], labels)
        out = enc.embed_matrix(X, enc.angle_scheme())
        assert np.array_equal(out.labels, labels)


def oracle_cases():
    """Every (scheme, binary rows) pair embed_matrix accepts, for each readout."""
    for readout in enc.READOUTS:
        for axis in "XY":
            for angle_map in (enc.LINEAR_PI, enc.RAW):
                scheme = enc.angle_scheme(axis, angle_map, readout)
                yield pytest.param(scheme, False, id=f"angle-{axis}-{angle_map}-{readout}")
        for bits in (1, 2, 3):
            scheme = enc.basis_scheme(bits, readout)
            yield pytest.param(scheme, False, id=f"basis-{bits}bit-{readout}")
        scheme = enc.basis_scheme(1, readout)  # only 0/1 features
        yield pytest.param(scheme, True, id=f"basis-raw-{readout}")
        yield pytest.param(enc.amplitude_scheme(readout), False, id=f"amplitude-{readout}")


def oracle_rows(rng, scheme, binary, width, m=24):
    """Rows of the values the scheme accepts, with exact 0s and 1s and ties."""
    if binary:
        return rng.integers(0, 2, size=(m, width)).astype(float)
    if scheme.kind == enc.BASIS or scheme.angle_map == enc.LINEAR_PI:
        X = rng.uniform(0, 1, size=(m, width))
    else:
        X = rng.normal(size=(m, width)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
    if scheme.kind == enc.BASIS:  # rounding ties: 0.5, and half a level above 0
        X[rng.uniform(size=X.shape) < 0.2] = 0.5
        X[rng.uniform(size=X.shape) < 0.2] = 0.5 / ((1 << scheme.bits_per_feature) - 1)
    X[rng.uniform(size=X.shape) < 0.2] = 0.0
    X[rng.uniform(size=X.shape) < 0.2] = 1.0
    X[1] = X[0]  # tied rows
    X[2] = X[2, 0]  # tied values within a row
    X[(X == 0).all(axis=1), 0] = 0.5  # amplitude rows must not be all zero
    return X


class TestEmbedMatrixEqualsOracle:
    """The batch path gives the bytes of embed_sample, row by row."""

    @pytest.mark.parametrize("scheme, binary", oracle_cases())
    def test_bytes_equal_embed_sample(self, scheme, binary):
        rng = np.random.default_rng(47)
        for width in range(1, 9):
            n_qubits = width * (scheme.bits_per_feature or 1)
            if scheme.readout != enc.Z_EXPECTATIONS and n_qubits > 12:
                continue  # 2^n-wide readouts stop at 12 qubits; Z covers widths 1-8
            X = oracle_rows(rng, scheme, binary, width)
            got = enc.embed_matrix(matrix_of(X), scheme).data
            want = np.vstack([enc.embed_sample(x, scheme).features for x in X])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme, bad_row, cause", [
        (enc.amplitude_scheme(), [1e200, 1e200], NonFiniteInput),
        (enc.angle_scheme(), [0.5, 1.5], OutOfRangeFeature),
        (enc.basis_scheme(1), [1.0, 1.5], OutOfRangeFeature),
        (enc.amplitude_scheme(), [0.0, 0.0], ZeroVector),
        (enc.amplitude_scheme(), [1e-160, 1e-160], EncodingError),
        (enc.amplitude_scheme(), [1e-200, 1e-200], EncodingError),
    ])
    def test_first_bad_row_carries_oracle_cause(self, scheme, bad_row, cause):
        X = np.array([[0.0, 1.0], [1.0, 1.0]] * 3)
        X[3] = X[5] = bad_row
        with pytest.raises(RowEncodeError) as exc_info:
            enc.embed_matrix(matrix_of(X), scheme)
        assert exc_info.value.row == 3
        assert type(exc_info.value.cause) is cause
        with pytest.raises(cause):
            enc.embed_sample(X[3], scheme)

    @pytest.mark.parametrize("scheme, binary", oracle_cases())
    def test_row_blocks_give_the_same_bytes(self, monkeypatch, scheme, binary):
        X = matrix_of(oracle_rows(np.random.default_rng(49), scheme, binary, 3))
        want = enc.embed_matrix(X, scheme).data
        monkeypatch.setattr(enc, "EMBED_BLOCK_ROWS", 5)  # 24 rows in five blocks
        assert enc.embed_matrix(X, scheme).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("readout", enc.READOUTS)
    def test_first_bad_row_in_a_later_block(self, monkeypatch, readout):
        monkeypatch.setattr(enc, "EMBED_BLOCK_ROWS", 2)
        X = np.array([[0.0, 1.0], [1.0, 1.0]] * 3)
        X[3] = X[5] = [0.0, 0.0]
        with pytest.raises(RowEncodeError) as exc_info:
            enc.embed_matrix(matrix_of(X), enc.amplitude_scheme(readout))
        assert exc_info.value.row == 3
        assert type(exc_info.value.cause) is ZeroVector

    @pytest.mark.parametrize("scheme, width, cause", [
        (enc.angle_scheme(), 25, QubitCapExceeded),  # one qubit past the cap
        (enc.basis_scheme(2), 13, QubitCapExceeded),  # 26 qubits
    ])
    def test_width_and_scheme_failures_are_row_0(self, scheme, width, cause):
        # these do not depend on the values: the cap is checked before any row,
        # with the message embed_sample gives row 0, for any number of rows
        n = width * (scheme.bits_per_feature or 1)
        for m in (0, 1, 4):
            with pytest.raises(cause, match=f"^{n} qubits exceeds cap 24$"):
                enc.embed_matrix(matrix_of(np.full((m, width), 0.5)), scheme)
        with pytest.raises(cause, match=f"^{n} qubits exceeds cap 24$"):
            enc.embed_sample(np.full(width, 0.5), scheme)

    @pytest.mark.parametrize("scheme, binary", oracle_cases())
    def test_zero_rows_give_one_rows_columns(self, scheme, binary):
        X = oracle_rows(np.random.default_rng(3), scheme, binary, 3, m=3)
        want = enc.embed_matrix(matrix_of(X[:1]), scheme)
        got = enc.embed_matrix(matrix_of(X[:0]), scheme)
        assert got.data.shape == (0, want.n_cols)
        assert got.column_names == want.column_names

    @pytest.mark.parametrize("scheme, width", [
        (enc.basis_scheme(3, enc.Z_EXPECTATIONS), 9),
        (enc.basis_scheme(9, enc.PROBABILITY_VECTOR), 3),
        (enc.angle_scheme("X"), 27),
        (enc.angle_scheme("Y", readout=enc.AMPLITUDE_PARTS), 27),
    ], ids=["basis-3bit-z", "basis-9bit-probability", "angle-X-z", "angle-Y-parts"])
    def test_zero_rows_over_the_qubit_cap_raise(self, scheme, width):
        # 27 qubits: zero rows fail on the cap as one row and four rows do
        for m in (0, 1, 4):
            with pytest.raises(QubitCapExceeded, match="^27 qubits exceeds cap 24$"):
                enc.embed_matrix(matrix_of(np.full((m, width), 0.5)), scheme)

    @pytest.mark.parametrize("scheme, binary", oracle_cases())
    def test_embed_sample_runs_only_on_a_flagged_row(self, monkeypatch, scheme, binary):
        oracle, calls = enc.embed_sample, []
        monkeypatch.setattr(enc, "embed_sample", lambda x, s: calls.append(x) or oracle(x, s))
        X = oracle_rows(np.random.default_rng(53), scheme, binary, 3)
        enc.embed_matrix(matrix_of(X), scheme)
        assert calls == []  # valid rows: no row runs through the oracle
        if not scheme.unit_inputs and scheme.kind != enc.AMPLITUDE:
            return  # raw angles take any finite row
        X = X.copy()  # the matrix holds X read-only
        X[5] = 0.0 if scheme.kind == enc.AMPLITUDE else 2.0  # ZeroVector, or out of [0, 1]
        with pytest.raises(RowEncodeError) as exc_info:
            enc.embed_matrix(matrix_of(X), scheme)
        assert exc_info.value.row == 5 and len(calls) == 1

    @pytest.mark.parametrize("scheme", [
        enc.angle_scheme(), enc.angle_scheme("Y", enc.RAW, enc.PROBABILITY_VECTOR),
        enc.basis_scheme(2), enc.basis_scheme(2, enc.Z_EXPECTATIONS), enc.amplitude_scheme(),
    ], ids=["angle-z", "angle-raw-probability", "basis-probability", "basis-z", "amplitude"])
    def test_rows_of_no_feature_are_row_0(self, scheme):
        # a zero-width row is embed_sample's EmptyInput, flagged like a bad value
        with pytest.raises(RowEncodeError) as exc_info:
            enc.embed_matrix(matrix_of(np.zeros((3, 0))), scheme)
        assert exc_info.value.row == 0 and type(exc_info.value.cause) is EmptyInput


@pytest.mark.parametrize("build", [
    lambda: qsim.new_zero_state(25),
    lambda: qsim.tensor_product(qsim.new_zero_state(13), qsim.new_zero_state(12)),
    lambda: enc.basis_encode([0] * 25),
    lambda: enc.superposition_encode(["0" * 25, "1" * 25]),
    lambda: enc.angle_encode([0.5] * 25, enc.angle_scheme()),
    lambda: enc.embed_matrix(matrix_of(np.zeros((0, 25))), enc.angle_scheme()),
], ids=["zero-state", "tensor-product", "basis", "superposition", "angle", "zero-rows"])
def test_every_qubit_cap_gives_one_message(build):
    # qsim.check_qubits is the one cap; amplitude_encode would need 2^24 + 1 values
    with pytest.raises(QubitCapExceeded, match=r"^25 qubits exceeds cap 24$"):
        build()
