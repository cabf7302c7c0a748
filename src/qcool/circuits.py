"""Reversible-circuit synthesis for complementary-pair exchanges.

Each requested exchange |j> <-> |2^n - 1 - j> (complementary bit strings) is
realized by a compute-flip-uncompute block of multi-controlled NOTs: wires
2..n are XOR-folded onto a shared pattern controlled by wire 1, a single
multi-controlled NOT on wire 1 performs the transposition, and the folding
is undone.  The correctness contract is the induced basis permutation, not
any particular gate list; :func:`circuit_permutation` is the oracle.  The
circuits of :func:`nb_maxcomp` and :func:`lim_comp` hold only their swap
indices and make each gate when it is read; :func:`text_pieces` writes
their text from the indices, with no gate object.

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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import compress

import numpy as np
from numpy.typing import ArrayLike

from .compress import _swap_pairs
from .errors import ResourceCapError
from .regstate import DiagDist, _count

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
            c0 = tuple(sorted(_count(w, "wire") for w in self.controls_on_0))
            c1 = tuple(sorted(_count(w, "wire") for w in self.controls_on_1))
            wires = (_count(self.target, "wire"),) + c0 + c1
        except (TypeError, ValueError):
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
    """An ordered multi-controlled-NOT gate list on n wires.

    *gates* is a tuple, or for :func:`nb_maxcomp` and :func:`lim_comp` a
    read-only sequence that holds only the swap indices and makes each gate
    when it is read.
    """

    n: int
    gates: Sequence[Gate] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _count(self.n, "wire count"))
        if self.n < 1:
            raise ValueError("circuit needs at least one wire")
        gates = self.gates
        if not (isinstance(gates, _SwapGates) and gates.n == self.n):
            gates = tuple(gates)
            for g in gates:
                if g.max_wire > self.n:
                    raise ValueError(f"gate on wire {g.max_wire} exceeds n = {self.n}")
        object.__setattr__(self, "gates", gates)

    def inverse(self) -> "Circuit":
        # every multi-controlled NOT is self-inverse
        return Circuit(self.n, tuple(reversed(self.gates)))

    def __len__(self) -> int:
        return len(self.gates)


#: bytes.translate tables: an ASCII bit string to the bytes 0/1 of its ones and of its zeros.
_ONES = bytes.maketrans(b"01", b"\0\1")
_ZEROS = bytes.maketrans(b"01", b"\1\0")


def _flip_wires(j: int, wires: Sequence) -> tuple[Iterator, Iterator]:
    """The flip's (controls on 0, controls on 1), as items of *wires*, for the exchange of j.

    *wires* stands for wires 2..n; wire w is character w - 1 of j's n bits,
    and the flip fires on the complement, which flips every bit.
    """
    bits = format(j, f"0{len(wires) + 1}b")[1:].encode()
    return compress(wires, bits.translate(_ONES)), compress(wires, bits.translate(_ZEROS))


def _fold(n: int) -> tuple[Gate, ...]:
    """The gates XOR-folding wires 2..n onto a pattern controlled by wire 1."""
    return tuple(Gate(target=w, controls_on_0=(1,)) for w in range(2, n + 1))


def _flip(n: int, j: int) -> Gate:
    """The multi-controlled NOT on wire 1 that exchanges j <-> 2^n - 1 - j once folded."""
    c0, c1 = _flip_wires(j, range(2, n + 1))
    return Gate(target=1, controls_on_0=tuple(c0), controls_on_1=tuple(c1))


def _swap_block(n: int, j: int, fold: tuple[Gate, ...]) -> tuple[Gate, ...]:
    """Compute-flip-uncompute gate block for the exchange j <-> 2^n - 1 - j."""
    return fold + (_flip(n, j),) + fold[::-1]


class _SwapGates(Sequence):
    """The gates of NB-MaxComp on the swap indices *indices*, made when read.

    Each index j is one block of 2n - 1 gates: the n - 1 fold gates, the flip
    of wire 1 and the fold gates in reverse.  Nothing but *indices* is stored.
    """

    __slots__ = ("n", "indices")

    def __init__(self, n: int, indices: np.ndarray) -> None:
        self.n, self.indices = n, indices

    def __len__(self) -> int:
        return (2 * self.n - 1) * len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("gate index out of range")
        block, k = divmod(i % len(self), 2 * self.n - 1)
        if k == self.n - 1:
            return _flip(self.n, int(self.indices[block]))
        # fold gate k targets wire k + 2, and unfold gate k wire 2n - k
        return Gate(target=min(k + 2, 2 * self.n - k), controls_on_0=(1,))

    def __iter__(self) -> Iterator[Gate]:
        fold = _fold(self.n)
        for j in self.indices.tolist():
            yield from _swap_block(self.n, j, fold)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _SwapGates)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


def nb_maxcomp(n: int, swaps: ArrayLike) -> Circuit:
    """Circuit realizing every exchange of the swap set *swaps*, fixing all other states.

    The circuit holds a read-only copy of the swap indices; its (2n - 1) *
    len(swaps) gates are made only when read.
    """
    n = _count(n, "wire count")
    if n < 1:
        raise ValueError("circuit needs at least one wire")
    idx = _swap_pairs(swaps, 1 << n)[0].copy()
    idx.flags.writeable = False
    return Circuit(n, _SwapGates(n, idx))


def lim_comp(n: int) -> Circuit:
    """Circuit for the limiting swap |011...1> <-> |100...0>."""
    n = _count(n, "wire count")
    if n < 2:
        raise ValueError(f"limiting swap needs n >= 2 wires, got {n}")
    # a Python int, since n may be far past 64 bits
    return Circuit(n, _SwapGates(n, np.array([(1 << (n - 1)) - 1], dtype=object)))


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


#: Most swap indices whose blocks :func:`text_pieces` writes as one piece.
SWAP_CHUNK = 1 << 10


def text_pieces(c: Circuit) -> Iterator[str]:
    """The .nbmc text of *c* in pieces, which joined are :func:`export_text`.

    The header comes first.  An NB-MaxComp circuit is then written from its
    swap indices, SWAP_CHUNK blocks to a piece: the fold and unfold lines are
    formatted once, and each block adds only its flip line between them.  The
    gates of any other circuit are written one line each.
    """
    yield f"WIRES {c.n}\n"
    gates = c.gates
    if not isinstance(gates, _SwapGates):
        for g in gates:
            yield (f"MCX t={g.target} c0=[{','.join(map(str, g.controls_on_0))}] "
                   f"c1=[{','.join(map(str, g.controls_on_1))}]\n")
        return
    fold = [f"MCX t={w} c0=[1] c1=[]\n" for w in range(2, c.n + 1)]
    head, tail = "".join(fold), "".join(reversed(fold))
    wires = [str(w) for w in range(2, c.n + 1)]
    for lo in range(0, len(gates.indices), SWAP_CHUNK):
        yield "".join([f"{head}MCX t=1 c0=[{','.join(c0)}] c1=[{','.join(c1)}]\n{tail}"
                       for c0, c1 in (_flip_wires(j, wires) for j in
                                      gates.indices[lo:lo + SWAP_CHUNK].tolist())])


def export_text(c: Circuit) -> str:
    """Serialize to the .nbmc text grammar; byte-exact for a given circuit."""
    return "".join(text_pieces(c))


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
