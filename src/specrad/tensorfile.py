"""Plain-text tensor files and convergence-trace files.

Tensor format::

    m n
    i1 i2 ... im value
    ...

The header gives order and dimension; every following non-blank line sets
one entry at a 1-based multi-index.  Omitted positions are zero and a
repeated index tuple is a hard parse error (never last-one-wins).

Reading parses the whole body in one ``np.loadtxt`` pass that only places
the entries; :class:`DenseTensor` checks the values.  Any input rejected
there (or that makes ``loadtxt`` warn) is parsed again line by line; that
per-line pass is the only source of :class:`ParseError` and its line number,
and it also accepts the few spellings ``int``/``float`` take but ``loadtxt``
does not (``1_0``, non-ASCII digits), with the same result.

Traces are written as CSV with the header ``k,r,R,gap,mid``.  Both writers
open a path (or take a text stream) first, then stream the rows in chunks.
"""

from __future__ import annotations

import os
import warnings
from itertools import islice
from typing import IO, Iterator, Union

import numpy as np

from .solver import TraceRow
from .tensor import DenseTensor, check_shape

PathOrFile = Union[str, os.PathLike, IO[str]]


class ParseError(ValueError):
    """Malformed tensor file; ``lineno`` is the offending 1-based line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_header(lines) -> tuple[int, int]:
    if not lines:
        raise ParseError(1, "empty file, expected header 'm n'")
    parts = lines[0].split()
    if len(parts) != 2:
        raise ParseError(1, f"expected header 'm n' with two integers, got {lines[0]!r}")
    try:
        order, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(1, f"header fields must be integers, got {lines[0]!r}") from None
    try:
        check_shape(order, dim)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None
    return order, dim


def _parse_bulk(lines: list[str], order: int, dim: int) -> np.ndarray:
    """Entries of ``lines[1:]``, placed unchecked (:class:`DenseTensor` checks
    the values); raises on a line ``loadtxt`` rejects or warns about, an index
    outside ``1..dim`` or a repeated index tuple."""
    fields = [(f"i{k}", np.int64) for k in range(order)] + [("value", np.float64)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(lines, dtype=fields, comments=None, skiprows=1, ndmin=1)
    flat = np.ravel_multi_index(tuple(table[f"i{k}"] - 1 for k in range(order)), (dim,) * order)
    data = np.zeros((dim,) * order)
    seen = np.zeros(data.size, dtype=bool)
    seen[flat] = True
    if np.count_nonzero(seen) != flat.size:
        raise ValueError("duplicate index tuple")
    data.reshape(-1)[flat] = table["value"]
    return data


def _parse_lines(lines: list[str], order: int, dim: int) -> np.ndarray:
    """Entries of ``lines[1:]``, checked one line at a time."""
    data = np.zeros((dim,) * order)
    seen: set[tuple[int, ...]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != order + 1:
            raise ParseError(
                lineno, f"expected {order} indices and a value, got {len(parts)} fields"
            )
        try:
            index = tuple(int(p) for p in parts[:order])
        except ValueError:
            raise ParseError(lineno, f"indices must be integers: {line!r}") from None
        for i in index:
            if not 1 <= i <= dim:
                raise ParseError(lineno, f"index {i} out of range 1..{dim}")
        try:
            value = float(parts[order])
        except ValueError:
            raise ParseError(lineno, f"bad value field {parts[order]!r}") from None
        if not np.isfinite(value):
            raise ParseError(lineno, f"value must be finite, got {parts[order]}")
        if value < 0:
            raise ParseError(lineno, f"value must be nonnegative, got {value}")
        if index in seen:
            raise ParseError(lineno, f"duplicate index tuple {index}")
        seen.add(index)
        data[tuple(i - 1 for i in index)] = value
    return data


def read_tensor(source: PathOrFile) -> DenseTensor:
    """Parse a tensor from a path or text file object.

    A path is read as UTF-8, with or without a byte-order mark.  Raises
    :class:`ParseError` (with the line number) on malformed input.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, encoding="utf-8-sig") as handle:
            lines = handle.read().splitlines()
    order, dim = _parse_header(lines)

    try:
        return DenseTensor._own(_parse_bulk(lines, order, dim))
    except (ValueError, OverflowError, Warning):
        pass
    # outside the handler, so a ParseError does not chain the bulk rejection
    return DenseTensor._own(_parse_lines(lines, order, dim))


def write_tensor(tensor: DenseTensor, dest: PathOrFile) -> None:
    """Write the format above, listing nonzero entries in lexicographic order.

    Values are rendered with ``repr`` so a read back is bit-identical.
    """
    labels = [f"{i} " for i in range(1, tensor.dim + 1)]
    columns = [[labels[i] for i in axis.tolist()] for axis in np.nonzero(tensor.data)]
    # the flat gather is faster than data[nonzero]
    values = map(repr, tensor.entries[np.flatnonzero(tensor.entries)].tolist())
    rows = map("".join, zip(*columns, values))
    _write_lines(f"{tensor.order} {tensor.dim}", rows, dest)


def write_trace_csv(trace: list[TraceRow], dest: PathOrFile) -> None:
    """Write trace rows as CSV with header ``k,r,R,gap,mid`` (6 significant digits)."""
    rows = (f"{r.k},{r.lower:.6g},{r.upper:.6g},{r.gap:.6g},{r.midpoint:.6g}" for r in trace)
    _write_lines("k,r,R,gap,mid", rows, dest)


def _write_lines(header: str, rows: Iterator[str], dest: PathOrFile) -> None:
    """Write ``header``, then ``rows`` one per line, ``2**16`` rows per ``write``."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8") as handle:
            return _write_lines(header, rows, handle)
    dest.write(header + "\n")
    while chunk := list(islice(rows, 2**16)):
        dest.write("\n".join(chunk) + "\n")
