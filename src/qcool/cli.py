"""Command-line front end: every operation, with JSON/CSV output.

Commands return their output; ``main`` writes it.  A ``cmd_*`` returns its
output pieces (a list of strings, or the ``optswaps`` or ``circuit`` stream);
``main`` opens ``--out``, writes the pieces there or to stdout, and maps
errors to exit codes.

Exit codes: 0 success, 2 usage or parse error (a ``--precision`` that is
not a positive finite number among them, and a number with an underscore or
a non-ASCII character, which ``int`` and ``float`` would read, or with a
nonzero digit that rounds to 0.0, which ``float`` would read as 0), 3 size-cap
violation, an allocation that failed (one ``error: out of memory: ...``
line) or output that could not be written (one ``error: cannot write
output: ...`` line, as on a full disk), 4 non-convergence (a pass cap, set with
``--iteration-cap``, was exceeded).  A closed or full stderr loses the
error line (:func:`_stderr`), never the exit code or the output.
``--out PATH`` makes a new file beside PATH before the command computes
anything and moves it onto PATH only on exit 0; a device, a pipe, the file
open as stdout or stderr, or the file that a ``/dev/fd/N`` path names is
written directly, and a path that cannot be written (an empty path, a
missing directory, a directory) exits 2 naming it.  A reader
that closes stdout early (``| head``) ends the output quietly, with exit 0.
Identical invocations produce byte-identical output, with one caveat: a
marginal bias is a BLAS dot product, so from about 14 qubits on the last
digits of ``optswaps``' target bias can vary with the BLAS thread count.
``limits --analytic`` fills at most ANALYTIC_GRID_CAP (2^20) entries,
rounds x n, and exits 3 past it before the register is built.

``optswaps`` prints one row per swap, up to 1.64M rows at n = 23.  The rows
of all three formats come from :func:`render_swaps`.  Over a run of rows in
which the decimals of j and of 2^n - 1 - j keep their widths, it sets a row
template once into one array of fixed-width records (at most ROW_CHUNK =
2^14 rows), then fills it with one copy per field for each piece of the run:
each decimal from two gathers into a 4-digit table, each ket from a byte
table.  It yields each piece as text.
CSV prints only the rows, so without ``--verify`` the command takes the
swap indices from the register itself, one pair of 2^16-entry blocks at a
time, and builds no 2^n vector; its ``--verify`` line goes to stderr.  Text
and JSON also print the gain and the target bias: for them, and for any
``--verify``, the command builds the distribution, computes the indices, the
gain, the target bias and the optional verification from it, and drops it.
It then returns the report around the rows as a stream, which ``main``
writes piece by piece: the text before the rows, each record array, and the
text after them.  Whatever the output size, its memory is the swap index
array and one block pair for CSV, plus one probamp vector and the
marginal's sign vector for text and JSON.

``circuit`` streams its text as well: :func:`circuits.text_pieces` writes an
NB-MaxComp circuit from its swap indices as the fold text, the flip lines of
at most SWAP_CHUNK = 2^10 swaps to a piece, and the unfold text, and makes
no gate object.  Its memory is the swap index array, the fold and unfold
text and one piece, whatever the output size.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import shutil
import sys
from dataclasses import asdict
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .circuits import lim_comp, nb_maxcomp, text_pieces
from .compress import bias_gain, find_optswaps, verify_optimality
from .errors import DivergenceError, ResourceCapError
from .hbac import MODE_FULL, MODE_LIM, HbacConfig, register_compression
from .limits import (DEFAULT_ITERATION_CAP, DEFAULT_PRECISION, _check_grid, analytic_limit,
                     analytic_limits, check_loop, check_rounds, numerical_limits, shannon_bound,
                     single_round_limit, sqrt_bound)
from .regstate import RegisterBiases, _check_size, marginal_bias, probamps

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NONCONVERGENCE = 4


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    # 17 significant digits: enough to round-trip any double
    return format(float(x), ".17g")


class _Verbatim(str):
    """JSON text rendered ahead of time, which :func:`_to_json` writes as is."""


def _to_json(obj, indent: int = 0) -> str:
    """*obj* laid out two spaces deep: floats by _fmt, _Verbatim as is, other leaves by json."""
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, _Verbatim):
        return obj
    pad = "  " * indent
    if isinstance(obj, dict) and obj:
        items = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_to_json(v, indent + 1)}" for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = ",\n".join(f"{pad}  {_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    return json.dumps(obj.item() if isinstance(obj, np.generic) else obj)


def _report(command: str, **fields) -> str:
    """The JSON report of *command*: the schema and command keys, then *fields*."""
    return _to_json({"schema": SCHEMA_VERSION, "command": command, **fields}) + "\n"


def _plain(convert: Callable[[str], float]) -> Callable[[str], float]:
    """*convert* (``int`` or ``float``) refusing the underscores and non-ASCII digits it reads,
    and a literal with a nonzero digit that it reads as 0, such as 1e-400."""
    def read(text: str):
        if "_" in text or not text.isascii():
            raise ValueError(f"not a plain number: {text!r}")
        value = convert(text)
        if value == 0 and any(c in "123456789" for c in text.lower().partition("e")[0]):
            raise ValueError(f"{text!r} rounds to 0.0")
        return value
    read.__name__ = convert.__name__  # argparse names the type in its message
    return read


_INT, _FLOAT = _plain(int), _plain(float)


def _parse_list(text: str, convert, what: str) -> list:
    """Comma-separated values; an empty entry (as in "0.1,,0.2") is a usage error."""
    tokens = text.split(",")
    if "" in tokens:
        raise UsageError(f"bad {what} list {text!r}: empty entry")
    try:
        return [convert(tok) for tok in tokens]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}: {exc}") from None


def _parse_biases(args, check: Callable[[int], None] = _check_size) -> RegisterBiases:
    """The register of --biases or of --n/--epsilon; *check* vets --n before the build."""
    has_list = getattr(args, "biases", None) is not None
    has_pair = getattr(args, "n", None) is not None or getattr(args, "epsilon", None) is not None
    if has_list and has_pair:
        raise UsageError("--biases and --n/--epsilon are mutually exclusive")
    if has_list:
        return RegisterBiases.from_values(_parse_list(args.biases, _FLOAT, "bias"))
    if args.n is None or args.epsilon is None:
        raise UsageError("provide either --biases or both --n and --epsilon")
    check(args.n)
    return RegisterBiases.equal(args.n, args.epsilon)


def _matrix_csv(values: np.ndarray) -> str:
    n = values.shape[1]
    lines = ["round," + ",".join(f"q{i}" for i in range(1, n + 1))]
    for r, row in enumerate(values, start=1):
        lines.append(f"{r}," + ",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


#: Each swap row is p0 j p1 comp p2 ket(j) p3 ket(comp) p4, with the
#: constant pieces p0..p4 and the row separator of each output format.  A JSON
#: row is one object of the report's "swaps" array, indented as _to_json
#: indents it.
ROW_TEMPLATES = {
    "text": (("  ", " <-> ", "    |", "> <-> |", ">"), "\n"),
    "csv": (("", ",", ",", ",", ""), "\n"),
    "json": (('    {\n      "zero_t": ', ',\n      "one_t": ', ',\n      "ket_zero_t": "',
              '",\n      "ket_one_t": "', '"\n    }'), ",\n"),
}


#: Entry b holds the 8 ASCII binary digits of byte b, MSB first, as one word,
#: so the 32 bits of j below 2^32 are four gathers; its ket is their last n.
KET_DIGITS = np.frombuffer(b"".join(format(b, "08b").encode() for b in range(256)),
                           dtype=np.uint64)

#: Entry v holds the 4 ASCII decimal digits of v < 10^4, zero-padded, as one
#: word, so a decimal below 10^8 is two gathers.  Built in uint16, its
#: temporaries are 80 kB each.
DEC_DIGITS = (np.arange(10_000, dtype=np.uint16)[:, None]
              // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
              + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _as_field(digits: np.ndarray, width: int) -> np.ndarray:
    """The last *width* bytes of each row of the word array *digits*, as one void item each."""
    return digits.view(np.uint8).reshape(len(digits), -1)[:, -width:].view(f"V{width}")[:, 0]


def _decimals(v: np.ndarray, width: int) -> np.ndarray:
    """The decimals of *v* < 10^8, each exactly *width* digits long, as void items."""
    hi = v // 10_000
    words = np.empty((v.size, 2), dtype=np.uint32)
    words[:, 0] = DEC_DIGITS.take(hi)
    words[:, 1] = DEC_DIGITS.take(v - 10_000 * hi)
    return _as_field(words, width)


#: Most swap rows that :func:`render_swaps` renders into one string.
ROW_CHUNK = 1 << 14


def _render_run(j: np.ndarray, n: int, consts: list[bytes], drop: int) -> Iterator[str]:
    """The rows of *j*, over which the decimals of j and of 2^n - 1 - j keep their widths.

    They are yielded in pieces of at most ROW_CHUNK rows, each rendered into
    the same record array; the last piece loses its last *drop* characters.
    """
    top = (1 << n) - 1
    widths = [len(str(int(j[0]))), len(str(top - int(j[0]))), n, n]
    template = b"".join(c + b"0" * w for c, w in zip(consts, widths)) + consts[4]
    # Field i starts right after consts[i].
    offsets = np.cumsum([len(c) + w for c, w in zip(consts, [0] + widths)])[:4]
    row = np.dtype({"names": ["j", "comp", "ket", "ket_comp"],
                    "formats": [f"V{w}" for w in widths],
                    "offsets": offsets.tolist(), "itemsize": len(template)})
    buf = np.empty(min(j.size, ROW_CHUNK), dtype=row)
    buf.view(f"V{len(template)}")[:] = np.void(template)  # the fields overwrite only themselves
    for lo in range(0, j.size, ROW_CHUNK):
        part = j[lo:lo + ROW_CHUNK]
        rows = buf[:part.size]
        rows["j"] = _decimals(part, widths[0])
        rows["comp"] = _decimals(top - part, widths[1])
        ket = KET_DIGITS.take(part.astype(">u4").view(np.uint8).reshape(-1, 4))
        rows["ket"] = _as_field(ket, n)
        ket_bytes = ket.view(np.uint8)
        np.subtract(97, ket_bytes, out=ket_bytes)  # the complement flips every bit
        rows["ket_comp"] = _as_field(ket, n)
        text = str(rows.view(np.uint8).data, "ascii")
        yield text if lo + ROW_CHUNK < j.size else text[:len(text) - drop]


def render_swaps(idx: np.ndarray, n: int, fmt: str) -> Iterator[str]:
    """The rows of the swap indices *idx* in format *fmt*, streamed as strings.

    Joined, the strings are the rows separated by the format's separator.

    The indices increase, so the decimal widths of j and of its complement
    2^n - 1 - j are constant over runs of rows.  Each run is one array of
    fixed-width records, at most ROW_CHUNK rows long and reused for the rest
    of the run: the template set once as one item per row, then one copy per
    field, the two decimals from the 4-digit table DEC_DIGITS and the n bits
    of j's ket from the byte table KET_DIGITS; the complement's ket flips
    every bit.  The decimal table covers values below 10^8, so past SIZE_CAP
    qubits this raises :class:`ResourceCapError`.
    """
    _check_size(n)
    pieces, sep = ROW_TEMPLATES[fmt]
    consts = [piece.encode() for piece in (*pieces[:4], pieces[4] + sep)]
    top = (1 << n) - 1
    powers = [10 ** k for k in range(1, len(str(top)))]
    cuts = np.searchsorted(idx, powers + [top + 1 - p for p in powers])
    bounds = np.unique(np.concatenate([cuts, [0, idx.size]]))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        yield from _render_run(idx[lo:hi], n, consts, len(sep) if hi == idx.size else 0)


#: Stands for the swap rows in the text of an ``optswaps`` report.
_ROWS = "\0rows\0"


def _around(text: str, rows: Iterable[str]) -> Iterator[str]:
    """*text* with *rows* streamed in place of its _ROWS marker, if it has one."""
    lead, _, trail = text.partition(_ROWS)
    yield lead
    yield from rows
    yield trail


def _to_devnull(stream) -> None:
    """Point *stream*'s descriptor at devnull, so the exit flush of its buffer cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, stream.fileno())
    finally:
        os.close(devnull)


def _stderr(line: str) -> None:
    """Print *line* to ``sys.stderr``, looked up now; a closed or failing stderr drops it."""
    err = sys.stderr
    try:
        if err is not None:  # print(file=None) would write to stdout
            print(line, file=err)
    except OSError:  # a full device; the line stays buffered, and its exit flush would exit 120
        _to_devnull(err)


def _optimality_line(verification) -> str:
    def word(flag):
        return "n/a" if flag is None else ("pass" if flag else "FAIL")
    return (f"optimality: swaps={verification.swaps_performed} "
            f"case1={word(verification.case1_passed)} "
            f"case2={word(verification.case2_passed)} "
            f"case3={word(verification.case3_passed)}")


def cmd_optswaps(args) -> Iterator[str]:
    register = _parse_biases(args)
    n = register.n
    summary = args.format != "csv"  # json and text print the gain and the target bias
    verification = None
    if summary or args.verify:
        dist = probamps(register)
        idx = find_optswaps(dist)
        if summary:
            gain = bias_gain(dist, idx)
            before = marginal_bias(dist, 1)
        if args.verify:
            verification = verify_optimality(dist)
        del dist  # the rows need only idx: free the 2^n vector before rendering them
    else:
        idx = find_optswaps(register)  # one block pair at a time, no 2^n vector
    rows = [_ROWS] if idx.size else []
    if args.format == "json":
        verify = {} if verification is None else {"verify": asdict(verification)}
        text = _report("optswaps", n=n, biases=register.values.tolist(),
                       swaps=_Verbatim("\n".join(["[", *rows, "  ]"]) if rows else "[]"),
                       count=idx.size, gain=gain, target_bias_before=before,
                       target_bias_after=before + gain, **verify)
    elif args.format == "csv":
        if verification is not None:  # the rows are the whole of stdout
            _stderr(_optimality_line(verification))
        text = "\n".join(["zero_t,one_t,ket_zero_t,ket_one_t", *rows, ""])
    else:
        lines = [f"n: {n}", f"swaps: {idx.size}", *rows]
        lines.append(f"gain: {_fmt(gain)}")
        lines.append(f"target bias: {_fmt(before)} -> {_fmt(before + gain)}")
        if verification is not None:
            lines.append(_optimality_line(verification))
        text = "\n".join(lines + [""])
    return _around(text, render_swaps(idx, n, args.format))


def cmd_limits(args) -> list[str]:
    if args.analytic:
        # the grid, not the register, bounds the work: check it before the build
        register = _parse_biases(args, lambda n: _check_grid(check_rounds(n, args.rounds), n))
    else:
        register = _parse_biases(args)
    n = register.n
    rounds = check_rounds(n, args.rounds)
    if args.analytic:
        check_loop(args.precision, args.iteration_cap)  # numerical_limits checks its own
        values = register.values
        if np.unique(values).size != 1:
            raise UsageError("--analytic requires equal biases")
        matrix = analytic_limits(n, rounds, float(values[0])).values
    else:
        matrix = numerical_limits(register, rounds, args.precision,
                                  iteration_cap=args.iteration_cap).values
    if args.format == "csv":
        return [_matrix_csv(matrix)]
    return [_report("limits", n=n, rounds=rounds, precision=args.precision,
                    analytic=bool(args.analytic), matrix=matrix.tolist())]


def _hbac_config(args, register: RegisterBiases) -> HbacConfig:
    """The cooling run of *register* that ``cool`` and ``sweep`` flags describe."""
    return HbacConfig(register, args.rounds, precision=args.precision, mode=args.mode,
                      iteration_cap=args.iteration_cap)


def cmd_cool(args) -> list[str]:
    register = _parse_biases(args)
    config = _hbac_config(args, register)
    cooling = register_compression(config)
    return [_report("cool", n=register.n, biases=register.values.tolist(),
                    rounds=config.rounds, precision=args.precision, mode=args.mode,
                    complexity=cooling.complexity, per_round_swaps=list(cooling.per_round_swaps),
                    while_passes=cooling.while_passes,
                    round_limits=cooling.round_limits.values.tolist(),
                    targets=cooling.targets.values.tolist())]


def cmd_circuit(args) -> Iterator[str]:
    if args.lim is not None:
        if args.from_biases is not None:
            raise UsageError("--lim and --from-biases are mutually exclusive")
        circuit = lim_comp(args.lim)
    elif args.from_biases is not None:
        register = RegisterBiases.from_values(_parse_list(args.from_biases, _FLOAT, "bias"))
        circuit = nb_maxcomp(register.n, find_optswaps(register))
    else:
        raise UsageError("provide --lim N or --from-biases LIST")
    return text_pieces(circuit)


def cmd_sweep(args) -> list[str]:
    if args.ns is not None and args.epsilons is not None:
        raise UsageError("--ns and --epsilons are mutually exclusive")
    if args.ns is not None:
        if args.epsilon is None:
            raise UsageError("--ns requires --epsilon")
        key = "n"
        points = [(n, args.epsilon) for n in _parse_list(args.ns, _INT, "size")]
    elif args.epsilons is not None:
        if args.n is None:
            raise UsageError("--epsilons requires --n")
        key = "epsilon"
        points = [(args.n, eps) for eps in _parse_list(args.epsilons, _FLOAT, "bias")]
    else:
        raise UsageError("provide --ns LIST or --epsilons LIST")
    for n, _ in points:
        _check_size(n)
    rows = [(n if key == "n" else eps,
             register_compression(_hbac_config(args, RegisterBiases.equal(n, eps))).complexity)
            for n, eps in points]
    if args.format == "json":
        return [_report("sweep", rows=[{key: v, "complexity": c} for v, c in rows])]
    lines = [f"{key},complexity"]
    lines += [f"{v if key == 'n' else _fmt(v)},{c}" for v, c in rows]
    return ["\n".join(lines) + "\n"]


def cmd_bounds(args) -> list[str]:
    n, eps = args.n, args.epsilon
    rounds = check_rounds(n, args.rounds)
    return [_report("bounds", n=n, epsilon=eps, rounds=rounds, k=args.k,
                    shannon_bound=shannon_bound(n, eps), sqrt_bound=sqrt_bound(n, eps),
                    single_round_limit=single_round_limit(eps, n - 1),
                    analytic_limit=analytic_limit(rounds, args.k, n, eps))]


def _precision(text: str) -> float:
    """A ``--precision``: positive (else no loop converges) and finite (else not JSON)."""
    try:
        value = _FLOAT(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"precision must be a positive finite number, got {text!r}")
    return value


def _add_bias_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--biases", help="comma-separated per-qubit biases, e.g. 0.2,0.5")
    p.add_argument("--n", type=_INT, help="register size (with --epsilon)")
    p.add_argument("--epsilon", type=_FLOAT, help="equal bias for all qubits (with --n)")


def _add_iteration_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iteration-cap", dest="iteration_cap", type=_INT,
                   default=DEFAULT_ITERATION_CAP,
                   help="compression passes allowed per (round, head) of cooling, "
                        "summed over re-entries, and per (round, target) of the "
                        "limit loop; past it the command exits 4 (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcool",
        description="Optimal entropy-compression swaps and heat-bath "
                    "algorithmic cooling of diagonal qubit registers.")
    parser.add_argument("--version", action="version", version=f"qcool {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optswaps", help="select the beneficial complementary swaps")
    _add_bias_args(p)
    p.add_argument("--verify", action="store_true",
                   help="run the exhaustive optimality check")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(func=cmd_optswaps)

    p = sub.add_parser("limits", help="per-round cooling limits "
                                      "(CSV columns: round,q1..qn)")
    _add_bias_args(p)
    p.add_argument("--rounds", type=_INT, help="number of limiting rounds (default n-2)")
    p.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)
    p.add_argument("--analytic", action="store_true",
                   help="closed-form evaluation (equal biases only)")
    _add_iteration_cap(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("cool", help="full register compression with swap counting")
    _add_bias_args(p)
    p.add_argument("--rounds", type=_INT)
    p.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)
    p.add_argument("--mode", choices=[MODE_FULL, MODE_LIM], default=MODE_FULL)
    _add_iteration_cap(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cool)

    p = sub.add_parser("circuit", help="synthesize a .nbmc reversible circuit")
    p.add_argument("--from-biases", dest="from_biases",
                   help="emit the NB-MaxComp of the biases' optswap set")
    p.add_argument("--lim", type=_INT, help="emit the n-wire limiting-swap circuit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("sweep", help="complexity sweep "
                                     "(CSV columns: n,complexity or epsilon,complexity)")
    p.add_argument("--ns", help="comma-separated register sizes (with --epsilon)")
    p.add_argument("--epsilon", type=_FLOAT)
    p.add_argument("--epsilons", help="comma-separated biases (with --n)")
    p.add_argument("--n", type=_INT)
    p.add_argument("--rounds", type=_INT, help="override rounds (default n-2)")
    p.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)
    p.add_argument("--mode", choices=[MODE_FULL, MODE_LIM], default=MODE_FULL)
    _add_iteration_cap(p)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="closed-system bounds and the analytic limit")
    p.add_argument("--n", type=_INT, required=True)
    p.add_argument("--epsilon", type=_FLOAT, required=True)
    p.add_argument("--rounds", type=_INT, help="round for the analytic limit (default n-2)")
    p.add_argument("--k", type=_INT, default=1, help="qubit for the analytic limit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)
    return parser


#: A path that names an open descriptor of this process.
_FD_PATH = re.compile(r"/(?:dev|proc/self)/fd/([0-9]+)")


def _open_out(path: str) -> tuple[TextIO, str | None, str | None]:
    """A writer for ``--out`` *path*, the new file it writes (or None) and the target.

    A file or a new path gets a new file beside it, with the mode ``open(path,
    "w")`` would give, to replace it on success; a device or pipe is written
    directly.  So is the file open as stdout or stderr (``--out /dev/stdout``
    under a redirection), and the file that a ``/dev/fd/N`` or
    ``/proc/self/fd/N`` path names: through that descriptor, at its offset, so
    what the shell wrote there before and writes after stays.
    """
    named = _FD_PATH.fullmatch(path)
    for fd in (1, 2) if named is None else (1, 2, int(named[1])):
        with contextlib.suppress(OSError):  # no such path, or a closed descriptor
            if os.path.samestat(os.stat(path), os.fstat(fd)):
                return open(os.dup(fd), "w", newline=""), None, None
    if os.path.exists(path) and not os.path.isfile(path):
        return open(path, "w", newline=""), None, None
    target = os.path.realpath(path)
    temp = f"{target}.{os.urandom(4).hex()}.tmp"
    sink = open(temp, "x", newline="")
    if os.path.exists(target):
        shutil.copymode(target, temp)
    return sink, temp, target


_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.out == "":  # realpath("") is the working directory, not a file
            raise ValueError("empty path")
        sink, temp, target = (None, None, None) if args.out is None else _open_out(args.out)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        _stderr(f"error: cannot write --out {args.out!r}: {reason}")
        return EXIT_USAGE
    code = None
    try:
        pieces = args.func(args)
        out = sink or sys.stdout  # looked up now, so a caller's redirection is honoured
        if out is None:  # the process started with stdout closed
            raise OSError("stdout is closed")
        for piece in pieces:
            out.write(piece)
        if sink is None:
            out.flush()  # here, not at exit, where a failed flush exits 120
        else:
            sink.close()
        code = EXIT_OK
    except ResourceCapError as exc:
        _stderr(f"error: {exc}")
        code = EXIT_RESOURCE
    except MemoryError as exc:
        _stderr(f"error: out of memory: {str(exc) or 'an allocation failed'}")
        code = EXIT_RESOURCE
    except DivergenceError as exc:
        _stderr(f"error: {exc}; --iteration-cap raises the limit")
        code = EXIT_NONCONVERGENCE
    except ValueError as exc:  # a UsageError among them
        _stderr(f"error: {exc}")
        code = EXIT_USAGE
    except OSError as exc:  # writing the output failed
        if isinstance(exc, BrokenPipeError):
            code = EXIT_OK  # the reader closed it early, as `| head` does, and wants no more
        else:  # a full disk or device
            _stderr(f"error: cannot write output: {exc.strerror or exc}")
            code = EXIT_RESOURCE
        if sink is None and sys.stdout is not None:
            _to_devnull(sys.stdout)
    finally:
        if sink is not None:
            with contextlib.suppress(OSError):  # the output has failed already
                sink.close()
        if temp is not None and code == EXIT_OK:
            os.replace(temp, target)
        elif temp is not None:
            os.unlink(temp)
    return code


if __name__ == "__main__":
    sys.exit(main())
