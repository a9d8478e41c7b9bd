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
        if self.kind == BASIS:
            object.__setattr__(self, "bits_per_feature", checked_int(
                self.bits_per_feature, 1, "bits_per_feature", InvalidScheme))
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
    norm = np.linalg.norm(arr)
    if not np.isfinite(norm):
        raise NonFiniteInput("values overflow the norm")
    if norm == 0:
        raise ZeroVector("cannot normalize an all-zero vector")
    n = max(1, math.ceil(math.log2(arr.size)))
    if n > MAX_QUBITS:
        raise QubitCapExceeded(f"{n} qubits exceeds cap {MAX_QUBITS}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[: arr.size] = arr / norm
    if abs(np.sum(np.abs(amps) ** 2) - 1.0) > qsim._NORM_TOL:  # a subnormal squared norm
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
    flag.  A failure is RowEncodeError(row, typed per-row cause).
    """
    data, (m, d) = X.data, X.data.shape
    if m == 0:
        return FeatureMatrix(np.zeros((0, 0)), (), X.labels)

    def encode_row(i):
        try:
            embed_sample(data[i], scheme)
        except QembedError as exc:
            raise RowEncodeError(i, exc) from exc

    encode_row(0)
    bad = np.zeros(m, bool)  # a FeatureMatrix holds finite values
    if scheme.kind == AMPLITUDE:
        amps = np.zeros((m, 1 << max(1, math.ceil(math.log2(d)))), dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            amps[:, :d] = data / np.sqrt(data[:, None, :] @ data[:, :, None])[:, 0]
        # a zero, overflowing or underflowing norm fails the state's norm check
        bad = ~(np.abs((np.abs(amps) ** 2).sum(axis=1) - 1.0) <= qsim._NORM_TOL)
    elif scheme.kind == BASIS or scheme.angle_map == LINEAR_PI:  # features in [0, 1]
        bad = ((data < 0) | (data > 1)).any(axis=1)
    if bad.any():
        encode_row(int(bad.argmax()))
        raise AssertionError("a batch check rejects a row that embed_sample encodes")
    factors = None if scheme.kind == AMPLITUDE else _product_factors(data, scheme)
    if scheme.readout == Z_EXPECTATIONS and factors is not None:
        # scalar abs() of a complex is hypot; array np.abs differs in the last bit
        # squared one column at a time, so no (m, n, 2) magnitude array is held
        p0, p1 = (np.float_power(np.hypot(f.real, f.imag), 2)
                  for f in factors.transpose(2, 0, 1))
        out = p0 - p1
    else:
        if factors is not None:  # expand each product state as StateVector.amps does
            amps = factors[:, 0]
            for i in range(1, factors.shape[1]):
                amps = (amps[:, :, None] * factors[:, None, i]).reshape(m, -1)
        out = _dense_readout(amps, scheme.readout)
    return FeatureMatrix(out, _feature_names(scheme.readout, out.shape[1]), X.labels)
