"""Classical-to-quantum data encodings and their classical readout.

Three schemes: basis (features in [0, 1], rounded to bits, to basis
states), angle (one rotated qubit per feature), amplitude (values as
normalized amplitudes).  A readout mode turns the encoded state back into
a real feature vector for downstream classifiers.  `superposition_encode`
(uniform combinations of listed bitstrings) takes an explicit bitstring
set rather than a feature vector, so it is no scheme.  Written kets
follow the usual convention: the leftmost bit of |b_{n-1}...b_0> is the
highest qubit index.

`embed_matrix` (the production path) encodes all rows as one batch and
equals the oracle, `embed_sample` on `qsim` states, bit for bit: Z readouts
square with `np.float_power`, libm `pow` like the simulator's scalar `** 2`
(an array `** 2` multiplies), and amplitude norms are batched row dots,
the dot product `np.linalg.norm` runs (`axis=1` sums in another order).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qsim
from .errors import (
    DuplicateString,
    EmptyInput,
    EncodingError,
    InvalidScheme,
    NonAsciiCharacter,
    NonBinaryInput,
    NonFiniteInput,
    OutOfRangeFeature,
    LengthMismatch,
    QembedError,
    QubitCapExceeded,
    RowEncodeError,
    ZeroVector,
)
from .pipeline import FeatureMatrix, checked_int
from .qsim import MAX_QUBITS, StateVector

BASIS = "basis"
ANGLE = "angle"
AMPLITUDE = "amplitude"
KINDS = (BASIS, ANGLE, AMPLITUDE)

PROBABILITY_VECTOR = "probability_vector"
Z_EXPECTATIONS = "z_expectations"
AMPLITUDE_PARTS = "amplitude_parts"
READOUTS = (PROBABILITY_VECTOR, Z_EXPECTATIONS, AMPLITUDE_PARTS)

LINEAR_PI = "linear_pi"
RAW = "raw"

_AXIS_GATES = {"X": qsim.rx_gate, "Y": qsim.ry_gate, "Z": qsim.rz_gate}
EMBED_BLOCK_ROWS = 1024  # rows embed_matrix expands to amplitudes and reads out at a time


def default_readout(kind: str) -> str:
    """z_expectations for angle (dimension-preserving), probabilities otherwise."""
    return Z_EXPECTATIONS if kind == ANGLE else PROBABILITY_VECTOR


@dataclass(frozen=True)
class EncodingScheme:
    """One encoding choice plus its readout.

    Angle parameters (axis, angle_map) exist only for kind="angle";
    bits_per_feature only for kind="basis".
    """

    kind: str
    readout: str
    axis: str | None = None
    angle_map: str | None = None
    bits_per_feature: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidScheme(f"unknown encoding kind {self.kind!r}")
        if self.readout not in READOUTS:
            raise InvalidScheme(f"unknown readout {self.readout!r}")
        if self.kind == ANGLE:
            if self.axis not in _AXIS_GATES:
                raise InvalidScheme(f"angle axis must be X, Y or Z, got {self.axis!r}")
            if self.angle_map not in (LINEAR_PI, RAW):
                raise InvalidScheme(f"unknown angle map {self.angle_map!r}")
        elif self.axis is not None or self.angle_map is not None:
            raise InvalidScheme("axis/angle_map are angle-encoding parameters")
        if self.kind == BASIS:  # one feature alone must fit the simulator
            bits = checked_int(self.bits_per_feature, 1, "bits_per_feature", InvalidScheme)
            if bits > MAX_QUBITS:
                raise InvalidScheme(f"bits_per_feature must be at most {MAX_QUBITS}, got {bits}")
            object.__setattr__(self, "bits_per_feature", bits)
        elif self.bits_per_feature is not None:
            raise InvalidScheme("bits_per_feature is a basis-encoding parameter")


def angle_scheme(axis: str = "X", angle_map: str = LINEAR_PI, readout: str | None = None):
    return EncodingScheme(ANGLE, readout or default_readout(ANGLE), axis, angle_map)


def basis_scheme(bits_per_feature: int = 4, readout: str | None = None):
    return EncodingScheme(
        BASIS, readout or default_readout(BASIS), bits_per_feature=bits_per_feature
    )


def amplitude_scheme(readout: str | None = None):
    return EncodingScheme(AMPLITUDE, readout or default_readout(AMPLITUDE))


# --- encoders -------------------------------------------------------------------

def basis_encode(bits) -> StateVector:
    """Basis state |b_0 b_1 ... b_{n-1}> from a bit array, leftmost bit highest.

    [1,0,1] gives |101>, the single amplitude at index 5.  Product layout.
    """
    arr = np.asarray(bits)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput("bit array must be 1-D and nonempty")
    if not np.all(np.isin(arr, (0, 1))):
        raise NonBinaryInput(f"entries must be 0 or 1, got {list(arr)!r}")
    n = arr.size
    if n > MAX_QUBITS:
        raise QubitCapExceeded(f"{n} bits exceeds cap {MAX_QUBITS}")
    factors = np.zeros((n, 2), dtype=complex)
    for i, bit in enumerate(arr.astype(int)):
        factors[n - 1 - i, bit] = 1.0
    return StateVector(n, factors, qsim.PRODUCT)


def basis_encode_text(text: str) -> list[StateVector]:
    """One 7-qubit basis state per ASCII character ('h' is |1101000>, code 104)."""
    if not text:
        raise EmptyInput("text must be nonempty")
    states = []
    for ch in text:
        code = ord(ch)
        if code >= 128:
            raise NonAsciiCharacter(f"character {ch!r} is not 7-bit ASCII")
        bits = [(code >> (6 - k)) & 1 for k in range(7)]
        states.append(basis_encode(bits))
    return states


def superposition_encode(strings) -> StateVector:
    """Uniform superposition with amplitude 1/sqrt(k) on each listed bitstring.

    Strings must be equal-length and distinct; '100' style, leftmost bit
    highest.  A singleton set degenerates to a basis state.
    """
    strings = [str(s) for s in strings]
    if not strings:
        raise EmptyInput("need at least one bitstring")
    n = len(strings[0])
    if n == 0:
        raise EmptyInput("bitstrings must be nonempty")
    if any(len(s) != n for s in strings):
        raise LengthMismatch("all bitstrings must have equal length")
    if len(set(strings)) != len(strings):
        raise DuplicateString("bitstrings must be distinct")
    if any(c not in "01" for s in strings for c in s):
        raise NonBinaryInput("bitstrings may only contain 0 and 1")
    if n > MAX_QUBITS:
        raise QubitCapExceeded(f"{n} qubits exceeds cap {MAX_QUBITS}")
    if len(strings) == 1:
        return basis_encode([int(c) for c in strings[0]])
    amps = np.zeros(1 << n, dtype=complex)
    amps[[int(s, 2) for s in strings]] = 1.0 / math.sqrt(len(strings))
    return StateVector(n, amps, qsim.DENSE)


def angle_encode(x, scheme: EncodingScheme) -> StateVector:
    """One qubit per feature, qubit for feature i prepared as R_axis(theta_i)|0>.

    linear_pi maps a normalized feature to theta = pi*x (so 0 stays |0>
    and 1 lands on |1> up to phase); raw treats features as radians.
    """
    if scheme.kind != ANGLE:
        raise InvalidScheme(f"angle_encode needs an angle scheme, got {scheme.kind!r}")
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput("feature vector must be 1-D and nonempty")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("features must be finite")
    n = arr.size
    if n > MAX_QUBITS:
        raise QubitCapExceeded(f"{n} features exceeds cap {MAX_QUBITS}")
    if scheme.angle_map == LINEAR_PI:
        if np.any(arr < 0) or np.any(arr > 1):
            raise OutOfRangeFeature("linear_pi features must lie in [0, 1]")
        thetas = math.pi * arr
    else:
        thetas = arr
    gate = _AXIS_GATES[scheme.axis]
    factors = np.zeros((n, 2), dtype=complex)
    for i, theta in enumerate(thetas):
        factors[n - 1 - i] = gate(theta)[:, 0]
    return StateVector(n, factors, qsim.PRODUCT)


def amplitude_encode(x) -> StateVector:
    """L2-normalized values as amplitudes, zero-padded to the next power of two."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput("value vector must be 1-D and nonempty")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("values must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(arr)
    if not np.isfinite(norm):
        raise NonFiniteInput("values overflow the norm")
    if not arr.any():
        raise ZeroVector("cannot normalize an all-zero vector")
    n = max(1, math.ceil(math.log2(arr.size)))
    if n > MAX_QUBITS:
        raise QubitCapExceeded(f"{n} qubits exceeds cap {MAX_QUBITS}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[: arr.size] = arr / norm if norm else 0.0
    if abs(np.sum(np.abs(amps) ** 2) - 1.0) > qsim._NORM_TOL:  # a zero or subnormal squared norm
        raise EncodingError("values underflow the norm")
    return StateVector(n, amps, qsim.DENSE)


def bits_for_row(x01, bits: int) -> np.ndarray:
    """Fixed-point bits of one [0, 1] row (of each row of a matrix), feature by feature.

    Each feature is rounded to `bits` bits, most significant first, and the
    features are concatenated in order.
    """
    levels = np.rint(np.asarray(x01, dtype=float) * ((1 << bits) - 1)).astype(int)
    shifts = np.arange(bits - 1, -1, -1)
    return ((levels[..., None] >> shifts) & 1).reshape(levels.shape[:-1] + (-1,))


# --- readout and batch embedding -----------------------------------------------------

@dataclass(frozen=True)
class EmbeddedSample:
    """Encoded state plus the classical feature vector read out of it."""

    state: StateVector
    features: np.ndarray


def readout_features(state: StateVector, mode: str) -> np.ndarray:
    """Classical vector for one state: probabilities, per-qubit Z, or re/im parts."""
    if mode == PROBABILITY_VECTOR:
        return qsim.probabilities(state)
    if mode == Z_EXPECTATIONS:
        n = state.n_qubits
        return np.array([qsim.expectation_z(state, n - 1 - i) for i in range(n)])
    if mode == AMPLITUDE_PARTS:
        amps = state.amps
        return np.concatenate([amps.real, amps.imag])
    raise InvalidScheme(f"unknown readout {mode!r}")


def embed_sample(x, scheme: EncodingScheme) -> EmbeddedSample:
    """Encode one feature vector under a scheme and read it back out.

    Basis features lie in [0, 1] and each is rounded to the scheme's
    bits_per_feature bits.
    """
    if scheme.kind == ANGLE:
        state = angle_encode(x, scheme)
    elif scheme.kind == AMPLITUDE:
        state = amplitude_encode(x)
    else:
        arr = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInput("features must be finite")
        if np.any(arr < 0) or np.any(arr > 1):
            raise OutOfRangeFeature("basis features must lie in [0, 1]")
        state = basis_encode(bits_for_row(arr, scheme.bits_per_feature))
    return EmbeddedSample(state, readout_features(state, scheme.readout))


def _feature_names(mode: str, width: int) -> tuple[str, ...]:
    if mode == PROBABILITY_VECTOR:
        return tuple(f"p{i}" for i in range(width))
    if mode == Z_EXPECTATIONS:
        return tuple(f"z{i}" for i in range(width))
    half = width // 2
    return tuple(f"re{i}" for i in range(half)) + tuple(f"im{i}" for i in range(half))


def _product_factors(data, scheme):
    """(m, n, 2) qubit factors in feature order, signed zeros as the scalar gates
    give them."""
    if scheme.kind == BASIS:
        return np.eye(2, dtype=complex)[bits_for_row(data, scheme.bits_per_feature)]
    thetas = math.pi * data if scheme.angle_map == LINEAR_PI else data
    if scheme.axis == "Z":
        pair = np.exp(-0.5j * thetas), np.zeros_like(thetas)
    else:
        pair = np.cos(thetas / 2), (-1j if scheme.axis == "X" else 1) * np.sin(thetas / 2)
    return np.stack(pair, axis=-1).astype(complex)


def _dense_readout(amps, mode) -> np.ndarray:
    """readout_features of every row of an (m, 2^n) amplitude array."""
    if mode == PROBABILITY_VECTOR:
        return np.abs(amps) ** 2
    if mode == AMPLITUDE_PARTS:
        return np.concatenate([amps.real, amps.imag], axis=1)
    n = amps.shape[1].bit_length() - 1  # Z: the marginals expectation_z sums
    probs = (np.abs(amps) ** 2).reshape((len(amps),) + (2,) * n)
    margs = [probs.sum(axis=tuple(a + 1 for a in range(n) if a != i)) for i in range(n)]
    return np.stack([p[:, 0] - p[:, 1] for p in margs], axis=1)


def embed_matrix(X: FeatureMatrix, scheme: EncodingScheme) -> FeatureMatrix:
    """Encode and read out all rows at once, equal to stacking embed_sample rows.

    Row 0 runs through embed_sample first, to check what depends only on the
    width and scheme (the qubit cap); so does the first row the batch masks
    flag.  Zero rows give the readout's width and names, under the same
    cap.  A failure is RowEncodeError(row, typed per-row cause).  Z readouts
    of product states come from each qubit's factor; the others are read off
    amplitudes built at most EMBED_BLOCK_ROWS rows at a time.  Unless the
    readout (at most the amplitudes' size), a block row (3 rows of amplitudes
    and 256 bytes a qubit), the names (10 rows) and 64 KiB fit in
    qsim.MAX_DENSE_BYTES, QubitCapExceeded is raised before any is allocated.
    """
    data, (m, d) = X.data, X.data.shape
    n = (max(1, (d - 1).bit_length()) if scheme.kind == AMPLITUDE  # ceil(log2(d)) qubits
         else d * (scheme.bits_per_feature or 1))
    dense = scheme.kind == AMPLITUDE or scheme.readout != Z_EXPECTATIONS
    width = {PROBABILITY_VECTOR: 1 << n, AMPLITUDE_PARTS: 2 << n, Z_EXPECTATIONS: n}[scheme.readout]
    row_bytes, budget = np.dtype(complex).itemsize << n, qsim.MAX_DENSE_BYTES
    block_row, reserve = 3 * row_bytes + 256 * n, 10 * row_bytes + (64 << 10)
    if dense and n <= MAX_QUBITS and (need := m * row_bytes + reserve + block_row) > budget:
        held = "" if m * row_bytes > budget else f" ({need} in all)"
        raise QubitCapExceeded(
            f"{m} rows x 2^{n} amplitudes ({n} qubits) take {m * row_bytes} bytes{held}, "
            f"over the {budget}-byte budget")
    if m == 0:  # no row 0 runs through embed_sample, so its qubit cap is checked here
        if n > MAX_QUBITS:
            raise QubitCapExceeded(f"{n} qubits exceeds cap {MAX_QUBITS}")
        return FeatureMatrix(np.zeros((0, width)), _feature_names(scheme.readout, width), X.labels)

    def encode_row(i):
        try:
            embed_sample(data[i], scheme)
        except QembedError as exc:
            raise RowEncodeError(i, exc) from exc
    def check(bad, start=0):  # the first row a batch mask flags, through embed_sample
        if bad.any():
            encode_row(start + int(bad.argmax()))
            raise AssertionError("a batch check rejects a row that embed_sample encodes")

    encode_row(0)
    if scheme.kind == BASIS or scheme.angle_map == LINEAR_PI:  # features in [0, 1]
        check(((data < 0) | (data > 1)).any(axis=1))
    if not dense:  # P(0) - P(1) of each factor f, as expectation_z squares hypot(f)
        if scheme.kind == BASIS:  # factors (1, 0) and (0, 1)
            out = 1.0 - 2.0 * bits_for_row(data, scheme.bits_per_feature)
        elif scheme.axis == "Z":  # factors (exp(-i theta / 2), 0)
            f = _product_factors(data, scheme)[..., 0]
            out = np.float_power(np.hypot(f.real, f.imag), 2)
        else:  # (cos, -i sin) or (cos, sin); hypot(x, +-0) = |x|, pow(-x, 2) = pow(x, 2)
            half = (math.pi * data if scheme.angle_map == LINEAR_PI else data) / 2
            out = np.float_power(np.cos(half), 2) - np.float_power(np.sin(half), 2)
        return FeatureMatrix(out, _feature_names(scheme.readout, n), X.labels)
    out = np.empty((m, width))
    step = min(EMBED_BLOCK_ROWS, (budget - out.nbytes - reserve) // block_row)
    for start in range(0, m, step):
        rows = data[start:start + step]
        if scheme.kind == AMPLITUDE:
            amps = np.zeros((len(rows), 1 << n), dtype=complex)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                amps[:, :d] = rows / np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0]
            # a zero, overflowing or underflowing norm fails the state's norm check
            check(~(np.abs((np.abs(amps) ** 2).sum(axis=1) - 1.0) <= qsim._NORM_TOL), start)
        else:  # expand each product state as StateVector.amps does
            factors = _product_factors(rows, scheme)
            amps = factors[:, 0]
            for i in range(1, n):
                amps = (amps[:, :, None] * factors[:, None, i]).reshape(len(rows), -1)
        out[start:start + step] = _dense_readout(amps, scheme.readout)
    return FeatureMatrix(out, _feature_names(scheme.readout, out.shape[1]), X.labels)
