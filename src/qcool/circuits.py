"""Reversible-circuit synthesis for complementary-pair exchanges.

Each requested exchange |j> <-> |2^n - 1 - j> (complementary bit strings) is
realized by a compute-flip-uncompute block of multi-controlled NOTs: wires
2..n are XOR-folded onto a shared pattern controlled by wire 1, a single
multi-controlled NOT on wire 1 performs the transposition, and the folding
is undone.  The correctness contract is the induced basis permutation, not
any particular gate list; :func:`circuit_permutation` is the oracle.

Wire 1 is the most significant bit of a basis index, matching the register
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from .compress import _swap_pairs
from .errors import ResourceCapError
from .regstate import DiagDist

#: Full permutation enumeration is limited to this many wires by default.
DEFAULT_PERM_CAP = 20


@dataclass(frozen=True)
class Gate:
    """A multi-controlled NOT: flip *target* when every control matches."""

    target: int
    controls_on_0: tuple[int, ...] = ()
    controls_on_1: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c0 = tuple(sorted(int(w) for w in self.controls_on_0))
        c1 = tuple(sorted(int(w) for w in self.controls_on_1))
        wires = (self.target,) + c0 + c1
        if any(w < 1 for w in wires):
            raise ValueError("wire indices are 1-based")
        if len(set(wires)) != len(wires):
            raise ValueError(f"wires must be distinct, got target={self.target}, "
                             f"c0={c0}, c1={c1}")
        object.__setattr__(self, "controls_on_0", c0)
        object.__setattr__(self, "controls_on_1", c1)

    @property
    def max_wire(self) -> int:
        return max((self.target,) + self.controls_on_0 + self.controls_on_1)


@dataclass(frozen=True)
class Circuit:
    """An ordered multi-controlled-NOT gate list on n wires."""

    n: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("circuit needs at least one wire")
        gates = tuple(self.gates)
        for g in gates:
            if g.max_wire > self.n:
                raise ValueError(f"gate on wire {g.max_wire} exceeds n = {self.n}")
        object.__setattr__(self, "gates", gates)

    def inverse(self) -> "Circuit":
        # every multi-controlled NOT is self-inverse
        return Circuit(self.n, tuple(reversed(self.gates)))

    def __len__(self) -> int:
        return len(self.gates)


def _swap_block(n: int, j: int) -> list[Gate]:
    """Compute-flip-uncompute gate block for the exchange j <-> 2^n - 1 - j."""
    comp = (1 << n) - 1 - j
    fold = [Gate(target=w, controls_on_0=(1,)) for w in range(2, n + 1)]
    c0 = tuple(w for w in range(2, n + 1) if not (comp >> (n - w)) & 1)
    c1 = tuple(w for w in range(2, n + 1) if (comp >> (n - w)) & 1)
    flip = Gate(target=1, controls_on_0=c0, controls_on_1=c1)
    return fold + [flip] + fold[::-1]


def nb_maxcomp(n: int, swaps: ArrayLike) -> Circuit:
    """Circuit realizing every exchange of the swap set *swaps*, fixing all other states."""
    if n < 1:
        raise ValueError("circuit needs at least one wire")
    idx, _ = _swap_pairs(swaps, 1 << n)
    return Circuit(n, tuple(g for j in idx.tolist() for g in _swap_block(n, j)))


def lim_comp(n: int) -> Circuit:
    """Circuit for the limiting swap |011...1> <-> |100...0>."""
    if n < 2:
        raise ValueError(f"limiting swap needs n >= 2 wires, got {n}")
    return Circuit(n, tuple(_swap_block(n, (1 << (n - 1)) - 1)))


def circuit_permutation(c: Circuit, *, size_cap: int = DEFAULT_PERM_CAP) -> np.ndarray:
    """Basis permutation induced by the circuit: index x maps to perm[x]."""
    if c.n > size_cap:
        raise ResourceCapError(
            f"permutation of {c.n} wires exceeds the size cap {size_cap}")
    v = np.arange(1 << c.n, dtype=np.int64)
    for g in c.gates:
        match = np.ones(v.size, dtype=bool)
        for w in g.controls_on_0:
            match &= (v >> (c.n - w)) & 1 == 0
        for w in g.controls_on_1:
            match &= (v >> (c.n - w)) & 1 == 1
        v = np.where(match, v ^ (1 << (c.n - g.target)), v)
    return v


def apply_circuit(dist: DiagDist, c: Circuit) -> DiagDist:
    """Permute the probamps by the circuit's basis permutation."""
    if dist.n != c.n:
        raise ValueError(f"distribution on {dist.n} qubits, circuit on {c.n} wires")
    perm = circuit_permutation(c)
    out = np.empty_like(dist.probamps)
    out[perm] = dist.probamps
    return DiagDist._own(out)


def export_text(c: Circuit) -> str:
    """Serialize to the .nbmc text grammar; byte-exact for a given circuit."""
    lines = [f"WIRES {c.n}"]
    for g in c.gates:
        c0 = ",".join(str(w) for w in g.controls_on_0)
        c1 = ",".join(str(w) for w in g.controls_on_1)
        lines.append(f"MCX t={g.target} c0=[{c0}] c1=[{c1}]")
    return "\n".join(lines) + "\n"


def _parse_wires(s: str) -> tuple[int, ...]:
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"bad wire list: {s!r}")
    body = s[1:-1]
    return tuple(int(w) for w in body.split(",")) if body else ()


def parse_text(text: str) -> Circuit:
    """Parse the .nbmc grammar back into a circuit."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("WIRES "):
        raise ValueError("missing WIRES header")
    try:
        n = int(lines[0][len("WIRES "):])
    except ValueError:
        raise ValueError(f"bad WIRES header: {lines[0]!r}") from None
    gates = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4 or parts[0] != "MCX":
            raise ValueError(f"bad gate line: {ln!r}")
        fields = {}
        for part, key in zip(parts[1:], ("t", "c0", "c1")):
            prefix = key + "="
            if not part.startswith(prefix):
                raise ValueError(f"bad gate line: {ln!r}")
            fields[key] = part[len(prefix):]
        gates.append(Gate(int(fields["t"]), _parse_wires(fields["c0"]),
                          _parse_wires(fields["c1"])))
    return Circuit(n, tuple(gates))
