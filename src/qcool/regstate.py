"""Register bias descriptions and the induced diagonal distribution.

A register of n qubits, each in a diagonal mixed state, is described by its
per-qubit biases toward |0>.  For product states the global density matrix is
diagonal with entries ("probamps") given by products of (1 +/- eps_i)/2
factors.  Qubit 1 is the most significant bit of a basis index, so indices
[0, 2^(n-1)) form the subspace where the first (target) qubit is |0>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceCapError

#: Largest register for which the full 2^n distribution is materialized.
DEFAULT_SIZE_CAP = 26

#: Absolute tolerance on the probamp normalization check.
NORM_ATOL = 1e-9


@dataclass(frozen=True)
class Bias:
    """Polarization of a single qubit toward |0>, a real in [0, 1].

    0 is the maximally mixed state, 1 the pure |0> state.  The populations
    are ``plus`` = (1 + value)/2 and ``minus`` = (1 - value)/2.
    """

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not (0.0 <= v <= 1.0):  # also rejects NaN
            raise ValueError(f"bias must lie in [0, 1], got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def plus(self) -> float:
        return (1.0 + self.value) / 2.0

    @property
    def minus(self) -> float:
        return (1.0 - self.value) / 2.0


@dataclass(frozen=True)
class RegisterBiases:
    """Ordered per-qubit biases; index 0 is qubit 1, the top of the hierarchy."""

    biases: tuple[Bias, ...]

    def __post_init__(self) -> None:
        if len(self.biases) < 1:
            raise ValueError("register needs at least one qubit")
        if not all(isinstance(b, Bias) for b in self.biases):
            raise TypeError("biases must be Bias instances; see from_values()")

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "RegisterBiases":
        return cls(tuple(Bias(float(v)) for v in values))

    @classmethod
    def equal(cls, n: int, eps: float) -> "RegisterBiases":
        if n < 1:
            raise ValueError("register needs at least one qubit")
        return cls((Bias(float(eps)),) * n)

    @property
    def n(self) -> int:
        return len(self.biases)

    @property
    def values(self) -> np.ndarray:
        return np.array([b.value for b in self.biases], dtype=float)

    def with_target_first(self, m: int) -> "RegisterBiases":
        """Swap qubit m (1-based) into position 1, so it becomes the target."""
        if not 1 <= m <= self.n:
            raise ValueError(f"qubit index {m} out of range 1..{self.n}")
        lst = list(self.biases)
        lst[0], lst[m - 1] = lst[m - 1], lst[0]
        return RegisterBiases(tuple(lst))

    def __len__(self) -> int:
        return len(self.biases)

    def __getitem__(self, i: int) -> Bias:
        return self.biases[i]


@dataclass(frozen=True, eq=False)
class DiagDist:
    """The 2^n diagonal probability vector of the global register state."""

    probamps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probamps, dtype=float)
        if arr.ndim != 1:
            raise ValueError("probamps must be one-dimensional")
        size = arr.size
        if size < 2 or size & (size - 1):
            raise ValueError(f"length must be a power of two >= 2, got {size}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("probamps must be finite and non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > NORM_ATOL:
            raise ValueError(f"probamps sum to {total!r}, expected 1 within {NORM_ATOL}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probamps", arr)

    @property
    def n(self) -> int:
        return self.probamps.size.bit_length() - 1


def _probamps_raw(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Outer-product build of the probamp vector, fixed qubit order 1..n.

    Entry j is the running product from 1.0 of each qubit's factor, taken
    left to right in qubit order, so a scalar product in that order
    reproduces any single entry bit for bit.
    """
    p = np.array([1.0])
    for eps in values:
        p = (p[:, None] * np.array([(1.0 + eps) / 2.0, (1.0 - eps) / 2.0])).ravel()
    return p


def probamps(register: RegisterBiases, *, size_cap: int = DEFAULT_SIZE_CAP) -> DiagDist:
    """Build the diagonal distribution of the product state described by *register*.

    Entry j is the product over qubits i of plus(eps_i) if bit i of j
    (MSB-first) is 0, else minus(eps_i).  Registers larger than *size_cap*
    qubits raise :class:`ResourceCapError`.
    """
    if register.n > size_cap:
        raise ResourceCapError(
            f"register of {register.n} qubits exceeds the size cap {size_cap}")
    return DiagDist(_probamps_raw(register.values))


def _marginal_raw(p: np.ndarray, i: int, n: int) -> float:
    idx = np.arange(p.size)
    sign = 1.0 - 2.0 * ((idx >> (n - i)) & 1)
    return float(np.dot(sign, p))


def marginal_bias(dist: DiagDist, i: int) -> float:
    """Bias of qubit i (1-based) read off the distribution.

    Sum of probamps where bit i is 0 minus the sum where it is 1; recovers
    eps_i for product states.  May be negative for non-product inputs.
    """
    n = dist.n
    if not 1 <= i <= n:
        raise ValueError(f"qubit index {i} out of range 1..{n}")
    return _marginal_raw(dist.probamps, i, n)


def marginal_register(dist: DiagDist) -> np.ndarray:
    """All per-qubit marginal biases, as a plain array.

    Negative marginals are reported as-is; clamping (e.g. to a heat-bath
    floor) is the caller's policy.
    """
    n = dist.n
    return np.array([_marginal_raw(dist.probamps, i, n) for i in range(1, n + 1)])
