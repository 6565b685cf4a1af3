"""Dense operator algebra for small Hilbert spaces.

Observables, POVMs, states and moment operators are stored as plain dense
complex matrices. Every dimension in scope is at most 9, so dense storage
and direct eigendecomposition are the right tools; there is no sparse or
iterative machinery here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
NORM_TOL = 1e-12
TRACE_TOL = 1e-10
DEGENERACY_TOL = 1e-8

_SQRT2_INV = 1.0 / np.sqrt(2.0)

_SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * _SQRT2_INV
_SPIN1_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) * _SQRT2_INV
_SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)


def _as_square_matrix(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return np.array(arr)


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _vector_to_json(vec: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def _vector_from_json(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _check_dim_field(data: dict, dim: int, what: str) -> None:
    """Reject a "dim" field of `data` that is not the integer `dim`, the dimension of its `what`.

    A JSON integer only: int() would truncate 3.7 to 3 and accept it.
    """
    if "dim" not in data:
        return
    given = data["dim"]
    if isinstance(given, bool) or not isinstance(given, int):
        raise ValueError(f"dim field must be an integer, got {given!r}")
    if given != dim:
        raise ValueError(f"dim field {given} does not match {what} ({dim})")


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense Hermitian matrix; carries every observable in the package."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_square_matrix(self.entries)
        if arr.shape[0] < 2:
            raise ValueError("operators must act on dimension >= 2")
        asym = float(np.max(np.abs(arr - arr.conj().T)))
        if not asym <= HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def to_dict(self) -> dict:
        return {"dim": self.dim, "entries": _matrix_to_json(self.entries)}

    @classmethod
    def from_dict(cls, data: dict) -> "HermitianOperator":
        arr = _matrix_from_json(data["entries"])
        _check_dim_field(data, arr.shape[0], "entries shape")
        return cls(arr)


OperatorLike = Union[HermitianOperator, np.ndarray, Sequence]


def _coerce_operator(op: OperatorLike) -> HermitianOperator:
    if isinstance(op, HermitianOperator):
        return op
    return HermitianOperator(op)


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector; the extreme points every bound search ranges over."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.array(np.asarray(self.amplitudes, dtype=complex))
        if vec.ndim != 1:
            raise ValueError(f"expected a vector, got shape {vec.shape}")
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm is {norm!r}, expected 1")
        vec.flags.writeable = False
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        return DensityMatrix.from_pure(self)

    def to_dict(self) -> dict:
        return {"dim": self.dim, "amplitudes": _vector_to_json(self.amplitudes)}

    @classmethod
    def from_dict(cls, data: dict) -> "PureState":
        vec = _vector_from_json(data["amplitudes"])
        _check_dim_field(data, vec.shape[0], "amplitude count")
        return cls(vec)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A unit-trace positive operator."""

    matrix: HermitianOperator

    def __post_init__(self):
        mat = _coerce_operator(self.matrix)
        tr = float(np.trace(mat.entries).real)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        smallest = float(np.linalg.eigvalsh(mat.entries)[0])
        if not smallest >= -PSD_TOL:
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {smallest:.3e}")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        vec = state.amplitudes
        return cls(HermitianOperator(np.outer(vec, vec.conj())))


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator-valued measure with real outcome labels.

    Outcome values are stored exactly as supplied; no rescaling or
    normalization of the labels is performed.
    """

    outcomes: Tuple[float, ...]
    elements: Tuple[HermitianOperator, ...]

    def __post_init__(self):
        labels = []
        for x in self.outcomes:
            if not isinstance(x, (int, float, np.integer, np.floating)):
                raise ValueError(f"outcome labels must be real numbers, got {x!r}")
            labels.append(float(x))
        elements = tuple(_coerce_operator(e) for e in self.elements)
        if len(labels) != len(elements):
            raise ValueError("outcome and element counts differ")
        if not elements:
            raise ValueError("a POVM needs at least one element")
        dims = {e.dim for e in elements}
        if len(dims) != 1:
            raise ValueError(f"POVM elements have mixed dimensions {sorted(dims)}")
        for x, e in zip(labels, elements):
            smallest = float(np.linalg.eigvalsh(e.entries)[0])
            if not smallest >= -PSD_TOL:
                raise ValueError(
                    f"element for outcome {x} is not positive semidefinite: "
                    f"min eigenvalue {smallest:.3e}"
                )
        total = np.sum([e.entries for e in elements], axis=0)
        defect = float(np.max(np.abs(total - np.eye(elements[0].dim))))
        if not defect <= COMPLETENESS_TOL:
            raise ValueError(f"elements do not sum to identity: max defect {defect:.3e}")
        object.__setattr__(self, "outcomes", tuple(labels))
        object.__setattr__(self, "elements", elements)

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def to_dict(self) -> dict:
        return {
            "outcomes": list(self.outcomes),
            "elements": [_matrix_to_json(e.entries) for e in self.elements],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Povm":
        elements = tuple(HermitianOperator(_matrix_from_json(m)) for m in data["elements"])
        return cls(tuple(data["outcomes"]), elements)


@dataclass(frozen=True, eq=False)
class MomentPair:
    """First and second moment operators of one measurement.

    The variance operator second - first**2 is positive semidefinite for
    any POVM (seen through the Naimark dilation), so construction rejects
    pairs that break it beyond tolerance.
    """

    first: HermitianOperator
    second: HermitianOperator

    def __post_init__(self):
        first = _coerce_operator(self.first)
        second = _coerce_operator(self.second)
        if first.dim != second.dim:
            raise ValueError(f"moment dims differ: {first.dim} vs {second.dim}")
        var = second.entries - first.entries @ first.entries
        smallest = float(np.linalg.eigvalsh(var)[0])
        if not smallest >= -PSD_TOL:
            raise ValueError(
                f"variance operator is not positive semidefinite: min eigenvalue {smallest:.3e}"
            )
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    @property
    def dim(self) -> int:
        return self.first.dim

    def variance_operator(self) -> HermitianOperator:
        return HermitianOperator(self.second.entries - self.first.entries @ self.first.entries)


def identity(dim: int) -> HermitianOperator:
    return HermitianOperator(np.eye(dim, dtype=complex))


def eig_hermitian(op: OperatorLike) -> Tuple[np.ndarray, List[PureState]]:
    """Eigendecomposition of a Hermitian operator.

    Args:
        op: operator, or anything coercible to one (coercion validates
            Hermiticity and reports the max asymmetry on failure).

    Returns:
        Ascending real eigenvalues and the matching orthonormal
        eigenvectors as pure states.
    """
    mat = _coerce_operator(op)
    vals, vecs = np.linalg.eigh(mat.entries)
    states = [PureState(vecs[:, k]) for k in range(mat.dim)]
    return vals, states


def spin1_components() -> Tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """The spin-1 angular momentum matrices (L_X, L_Y, L_Z)."""
    return (
        HermitianOperator(_SPIN1_X),
        HermitianOperator(_SPIN1_Y),
        HermitianOperator(_SPIN1_Z),
    )


def projective_povm(op: OperatorLike) -> Povm:
    """Spectral measurement of an observable.

    Eigenvalues closer than DEGENERACY_TOL are merged into one outcome
    whose element is the summed projector. Absolute tolerance is fine
    here, all spectra in scope are O(1).
    """
    mat = _coerce_operator(op)
    vals, vecs = np.linalg.eigh(mat.entries)
    outcomes: List[float] = []
    elements: List[HermitianOperator] = []
    k = 0
    while k < mat.dim:
        j = k
        while j + 1 < mat.dim and vals[j + 1] - vals[k] <= DEGENERACY_TOL:
            j += 1
        block = vecs[:, k : j + 1]
        outcomes.append(float(np.mean(vals[k : j + 1])))
        elements.append(HermitianOperator(block @ block.conj().T))
        k = j + 1
    return Povm(tuple(outcomes), tuple(elements))


def moments(povm: Povm, max_order: int) -> List[HermitianOperator]:
    """Moment operators [X^(1), ..., X^(max_order)] of a POVM.

    X^(N) = sum_x x^N P(x). The zeroth moment is the identity by POVM
    completeness, which construction has already checked.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    out = []
    for order in range(1, max_order + 1):
        acc = np.sum(
            [x**order * e.entries for x, e in zip(povm.outcomes, povm.elements)], axis=0
        )
        out.append(HermitianOperator(acc))
    return out


def moment_pair(povm: Povm) -> MomentPair:
    """First and second moment operators of a POVM as one record."""
    first, second = moments(povm, 2)
    return MomentPair(first, second)


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product of two observables."""
    return HermitianOperator(np.kron(a.entries, b.entries))


def expectation(state: Union[DensityMatrix, PureState], op: HermitianOperator) -> float:
    """Expectation value tr(rho op), returned as a real number.

    A residual imaginary part above 1e-8 signals inconsistent inputs and
    raises; anything below is numerical dust and is discarded.
    """
    if state.dim != op.dim:
        raise ValueError(f"state dim {state.dim} does not match operator dim {op.dim}")
    if isinstance(state, PureState):
        vec = state.amplitudes
        val = complex(vec.conj() @ op.entries @ vec)
    else:
        val = complex(np.trace(state.matrix.entries @ op.entries))
    if abs(val.imag) > 1e-8:
        raise ArithmeticError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def variance(state: Union[DensityMatrix, PureState], pair: MomentPair) -> float:
    """Outcome variance <X^(2)> - <X^(1)>^2 of a measurement in a state."""
    m1 = expectation(state, pair.first)
    m2 = expectation(state, pair.second)
    return m2 - m1 * m1
