"""Register bias descriptions and the induced diagonal distribution.

A register of n qubits, each in a diagonal mixed state, is described by its
per-qubit biases toward |0>.  For product states the global density matrix is
diagonal with entries ("probamps") given by products of (1 +/- eps_i)/2
factors.  Qubit 1 is the most significant bit of a basis index, so indices
[0, 2^(n-1)) form the subspace where the first (target) qubit is |0>.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceCapError

#: Largest register, in qubits, whose 2^n distribution is built or checked.
SIZE_CAP = 26

#: Absolute tolerance on the probamp normalization check.
NORM_ATOL = 1e-9


def _count(value: int, name: str) -> int:
    """*value* as an int; a bool, a float or any other non-integer raises :class:`ValueError`."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _refuse_flags_and_text(values) -> None:
    """Raise :class:`ValueError` at the first bool, string or None of *values*: none is a bias.

    numpy would read True as 1.0, parse '0.1' and turn None into NaN, so the
    entries are looked at before any conversion; a numeric array is not
    scanned.
    """
    entries = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if entries.dtype.kind in "bSUO":
        for entry in entries.flat:
            if entry is None or isinstance(entry, (bool, np.bool_, str, bytes)):
                entry = entry.item() if isinstance(entry, np.generic) else entry
                raise ValueError(f"bias must be a number, got {entry!r}")


def _check_size(n: int) -> None:
    """Raise :class:`ResourceCapError` for a register of more than SIZE_CAP qubits."""
    if n > SIZE_CAP:
        raise ResourceCapError(f"register of {n} qubits exceeds the size cap {SIZE_CAP}")


@dataclass(frozen=True, eq=False)
class RegisterBiases:
    """Ordered per-qubit biases toward |0>; index 0 is qubit 1, the top of the hierarchy.

    *values* is a read-only float64 array, validated once: each bias is a
    number, not a bool, a string or None, and lies in [0, 1], where 0 is
    the maximally mixed state and 1 the pure |0> state.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        _refuse_flags_and_text(self.values)
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("biases must be one-dimensional")
        if arr.size < 1:
            raise ValueError("register needs at least one qubit")
        bad = ~((arr >= 0.0) & (arr <= 1.0))  # also flags NaN
        if bad.any():
            raise ValueError(f"bias must lie in [0, 1], got {float(arr[bad.argmax()])!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "RegisterBiases":
        return cls(list(values))

    @classmethod
    def equal(cls, n: int, eps: float) -> "RegisterBiases":
        if _count(n, "register size") < 1:
            raise ValueError("register needs at least one qubit")
        return cls(np.full(n, eps))

    @property
    def n(self) -> int:
        return self.values.size

    def with_target_first(self, m: int) -> "RegisterBiases":
        """Swap qubit m (1-based) into position 1, so it becomes the target."""
        m = _count(m, "qubit index")
        if not 1 <= m <= self.n:
            raise ValueError(f"qubit index {m} out of range 1..{self.n}")
        arr = self.values.copy()
        arr[[0, m - 1]] = arr[[m - 1, 0]]
        return RegisterBiases(arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterBiases):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash(tuple(self.values.tolist()))


def _validated(arr: np.ndarray) -> np.ndarray:
    """*arr*, made read-only, once it passes every probamp check.

    Two reductions decide "finite and non-negative" (min and max propagate
    NaN), so the checks allocate nothing of the vector's size.
    """
    if arr.ndim != 1:
        raise ValueError("probamps must be one-dimensional")
    size = arr.size
    if size < 2 or size & (size - 1):
        raise ValueError(f"length must be a power of two >= 2, got {size}")
    if not (arr.min() >= 0.0 and arr.max() < np.inf):
        raise ValueError("probamps must be finite and non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > NORM_ATOL:
        raise ValueError(f"probamps sum to {total!r}, expected 1 within {NORM_ATOL}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DiagDist:
    """The 2^n diagonal probability vector of the global register state.

    ``DiagDist(arr)`` validates a read-only copy of *arr*, so the caller's
    array stays its own.
    """

    probamps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probamps", _validated(np.array(self.probamps, dtype=float)))

    @classmethod
    def _own(cls, arr: np.ndarray) -> "DiagDist":
        """Take over a fresh float64 vector that no caller keeps: same checks, no copy."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "probamps", _validated(arr))
        return dist

    @property
    def n(self) -> int:
        return self.probamps.size.bit_length() - 1


#: Past the top qubits, the build finishes one block of 2^_BLOCK_BITS
#: entries (512 KiB) at a time, so each block's remaining levels stay in cache.
#: The beneficial-pair scan of :mod:`qcool.compress` masks slices of that size.
_BLOCK_BITS = 16


def _grow(p: np.ndarray, values: Sequence[float], w: int) -> None:
    """Expand the entries of *p* at stride *w* by the factors of *values*, in place.

    Entry m*w holds a running product; the next qubit's factors turn it
    into entries m*w (bit 0) and m*w + w/2 (bit 1), at the halved stride.
    """
    for eps in values:
        h = w >> 1
        src = p[::w]
        np.multiply(src, (1.0 - eps) / 2.0, out=p[h::w])
        src *= (1.0 + eps) / 2.0
        w = h


def _block_starts(values: Sequence[float] | np.ndarray) -> tuple[np.ndarray, Sequence[float]]:
    """The running product of the top qubits' factors for each block, and the other biases.

    The vector splits into blocks of 2^len(rest) entries, at most
    2^_BLOCK_BITS; entry b of the starts belongs to block b.  With n <=
    _BLOCK_BITS there is one block, the whole vector, and its start is 1.0.
    """
    top = max(len(values) - _BLOCK_BITS, 0)
    starts = np.ones(1 << top)
    _grow(starts, values[:top], starts.size)
    return starts, values[top:]


def _fill_block(block: np.ndarray, start: float, rest: Sequence[float]) -> None:
    """Write into *block* the entries of the block that begins with *start*."""
    block[0] = start
    _grow(block, rest, block.size)


def _probamps_raw(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Probamp vector of one or more biases, built in place in one 2^n array.

    Entry j is the running product of each qubit's factor, taken left to
    right in qubit order (the first factor is exact, as 1.0 * x is), so a
    scalar product in that order reproduces any single entry bit for bit,
    for any float biases.  The top qubits are expanded once per block
    start; each block of at most 2^_BLOCK_BITS entries then takes the
    remaining ones, so any block filled alone by :func:`_fill_block` equals
    its slice of the vector.  The build allocates nothing beyond the result
    and the starts.
    """
    starts, rest = _block_starts(values)
    out = np.empty(1 << len(values))
    for block, start in zip(out.reshape(starts.size, -1), starts):
        _fill_block(block, start, rest)
    return out


def probamps(register: RegisterBiases) -> DiagDist:
    """Build the diagonal distribution of the product state described by *register*.

    Entry j is the product over qubits i of (1 + eps_i)/2 if bit i of j
    (MSB-first) is 0, else (1 - eps_i)/2.  Registers larger than SIZE_CAP
    qubits raise :class:`ResourceCapError`.
    """
    _check_size(register.n)
    return DiagDist._own(_probamps_raw(register.values))


def _sign_vector(i: int, n: int) -> np.ndarray:
    """+1.0 where bit i (1-based, MSB first) of an n-bit index is 0, else -1.0."""
    sign = np.ones(1 << n)
    sign.reshape(1 << (i - 1), 2, 1 << (n - i))[:, 1, :] = -1.0
    return sign


def _marginal_raw(p: np.ndarray, i: int, n: int) -> float:
    return float(np.dot(_sign_vector(i, n), p))


def marginal_bias(dist: DiagDist, i: int) -> float:
    """Bias of qubit i (1-based) read off the distribution.

    Sum of probamps where bit i is 0 minus the sum where it is 1; recovers
    eps_i for product states.  May be negative for non-product inputs.
    """
    n = dist.n
    i = _count(i, "qubit index")
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
