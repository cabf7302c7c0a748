"""Reversible-circuit synthesis for complementary-pair exchanges.

Each requested exchange |j> <-> |2^n - 1 - j> (complementary bit strings) is
realized by a compute-flip-uncompute block of multi-controlled NOTs: wires
2..n are XOR-folded onto a shared pattern controlled by wire 1, a single
multi-controlled NOT on wire 1 performs the transposition, and the folding
is undone.  The correctness contract is the induced basis permutation, not
any particular gate list; :func:`circuit_permutation` is the oracle.

Wire 1 is the most significant bit of a basis index, matching the register
convention.

The .nbmc text is ``WIRES <n>``, then ``MCX t=<wire> c0=[<wires>] c1=[<wires>]``
per gate: ASCII digits with no leading zero, comma-separated lists, single spaces
and LF line ends.  :func:`parse_text` reads exactly what :func:`export_text`
writes, one pattern per line, but skips blank lines and sorts each wire list.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from numpy.typing import ArrayLike

from .compress import _swap_pairs
from .errors import ResourceCapError
from .regstate import DiagDist

#: Full permutation enumeration is limited to this many wires.
PERM_CAP = 20


@dataclass(frozen=True)
class Gate:
    """A multi-controlled NOT: flip *target* when every control matches."""

    target: int
    controls_on_0: tuple[int, ...] = ()
    controls_on_1: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        try:
            c0 = tuple(sorted(map(operator.index, self.controls_on_0)))
            c1 = tuple(sorted(map(operator.index, self.controls_on_1)))
            wires = (operator.index(self.target),) + c0 + c1
        except TypeError:
            raise ValueError(f"wires must be integers, got {self!r}") from None
        if any(w < 1 for w in wires):
            raise ValueError("wire indices are 1-based")
        if len(set(wires)) != len(wires):
            raise ValueError(f"wires must be distinct, got target={wires[0]}, "
                             f"c0={c0}, c1={c1}")
        object.__setattr__(self, "target", wires[0])
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
        for g in _distinct(gates):
            if g.max_wire > self.n:
                raise ValueError(f"gate on wire {g.max_wire} exceeds n = {self.n}")
        object.__setattr__(self, "gates", gates)

    def inverse(self) -> "Circuit":
        # every multi-controlled NOT is self-inverse
        return Circuit(self.n, tuple(reversed(self.gates)))

    def __len__(self) -> int:
        return len(self.gates)


def _distinct(gates: tuple[Gate, ...]) -> Iterable[Gate]:
    """Each gate object of *gates* once; circuits share their fold gates."""
    return {id(g): g for g in gates}.values()


def _fold(n: int) -> tuple[Gate, ...]:
    """The gates XOR-folding wires 2..n onto a pattern controlled by wire 1."""
    return tuple(Gate(target=w, controls_on_0=(1,)) for w in range(2, n + 1))


def _swap_block(n: int, j: int, fold: tuple[Gate, ...]) -> tuple[Gate, ...]:
    """Compute-flip-uncompute gate block for the exchange j <-> 2^n - 1 - j."""
    bits = format(j, f"0{n}b")  # wire w is character w - 1; the complement flips it
    c0 = tuple(w for w, bit in enumerate(bits[1:], start=2) if bit == "1")
    c1 = tuple(w for w, bit in enumerate(bits[1:], start=2) if bit == "0")
    flip = Gate(target=1, controls_on_0=c0, controls_on_1=c1)
    return fold + (flip,) + fold[::-1]


def nb_maxcomp(n: int, swaps: ArrayLike) -> Circuit:
    """Circuit realizing every exchange of the swap set *swaps*, fixing all other states.

    Every block shares the same n - 1 fold gate objects.
    """
    if n < 1:
        raise ValueError("circuit needs at least one wire")
    idx, _ = _swap_pairs(swaps, 1 << n)
    fold = _fold(n)
    return Circuit(n, tuple(g for j in idx.tolist() for g in _swap_block(n, j, fold)))


def lim_comp(n: int) -> Circuit:
    """Circuit for the limiting swap |011...1> <-> |100...0>."""
    if n < 2:
        raise ValueError(f"limiting swap needs n >= 2 wires, got {n}")
    return Circuit(n, _swap_block(n, (1 << (n - 1)) - 1, _fold(n)))


def circuit_permutation(c: Circuit) -> np.ndarray:
    """Basis permutation induced by the circuit: index x maps to perm[x]."""
    if c.n > PERM_CAP:
        raise ResourceCapError(f"permutation of {c.n} wires exceeds the size cap {PERM_CAP}")
    v = np.arange(1 << c.n, dtype=np.int64)
    for g in c.gates:
        watched = sum(1 << (c.n - w) for w in g.controls_on_0 + g.controls_on_1)
        wanted = sum(1 << (c.n - w) for w in g.controls_on_1)
        v = np.where((v & watched) == wanted, v ^ (1 << (c.n - g.target)), v)
    return v


def apply_circuit(dist: DiagDist, c: Circuit) -> DiagDist:
    """Permute the probamps by the circuit's basis permutation."""
    if dist.n != c.n:
        raise ValueError(f"distribution on {dist.n} qubits, circuit on {c.n} wires")
    perm = circuit_permutation(c)
    out = np.empty_like(dist.probamps)
    out[perm] = dist.probamps
    return DiagDist._own(out)


_HEADER = re.compile(r"WIRES ([1-9][0-9]*)")  # wires as str(int) writes them
_LIST = r"\[((?:[1-9][0-9]*,)*[1-9][0-9]*|)\]"  # a comma-separated list, possibly empty
_GATE = re.compile(rf"MCX t=([1-9][0-9]*) c0={_LIST} c1={_LIST}")


def export_text(c: Circuit) -> str:
    """Serialize to the .nbmc text grammar; byte-exact for a given circuit."""
    line = {id(g): f"MCX t={g.target} c0=[{','.join(map(str, g.controls_on_0))}] "
                   f"c1=[{','.join(map(str, g.controls_on_1))}]"
            for g in _distinct(c.gates)}
    return "\n".join([f"WIRES {c.n}", *(line[id(g)] for g in c.gates)]) + "\n"


def parse_text(text: str) -> Circuit:
    """Parse the .nbmc grammar back into a circuit."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("WIRES "):
        raise ValueError("missing WIRES header")
    header = _HEADER.fullmatch(lines[0])
    if header is None:
        raise ValueError(f"bad WIRES header: {lines[0]!r}")
    gates = []
    for ln in lines[1:]:
        m = _GATE.fullmatch(ln)
        if m is None:
            raise ValueError(f"bad gate line: {ln!r}")
        t, *lists = m.groups()
        gates.append(Gate(int(t), *([int(w) for w in ws.split(",") if w] for ws in lists)))
    return Circuit(int(header[1]), tuple(gates))
