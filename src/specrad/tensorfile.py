r"""Plain-text tensor files and convergence-trace files.

Tensor format::

    m n
    i1 i2 ... im value
    ...

The header gives order and dimension; every following non-blank line sets
one entry at a 1-based multi-index.  Omitted positions are zero and a
repeated index tuple is a hard parse error (never last-one-wins).

Lines end at ``\n``, ``\r\n`` or ``\r`` only; any other character
``str.splitlines`` would break at (``\x0b``, ``\x85``, ``\u2028``, ...) is
whitespace inside a line.

Reading goes through one text handle: an open path, or the text of a stream
(or of a path that cannot seek, such as a pipe) in memory.  The header is
its first line; ``np.loadtxt`` then takes the rest of the handle in one pass
that only places the entries, and :class:`DenseTensor` checks the values.
Any input rejected there (or that makes ``loadtxt`` warn) is read again from
the start of the handle, line by line; that per-line pass is the only source
of :class:`ParseError` and its line number, and it also accepts the few
spellings ``int``/``float`` take but ``loadtxt`` does not (``1_0``,
non-ASCII digits), with the same result.  No list of lines is kept.
"""

from __future__ import annotations

import io
import os
import stat
import warnings
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .tensor import DenseTensor, check_shape

PathOrFile = Union[str, os.PathLike, IO[str]]


class ParseError(ValueError):
    """Malformed tensor file; ``lineno`` is the offending 1-based line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_header(handle: IO[str]) -> tuple[int, int]:
    """The shape on the first line of ``handle``, which is left after it."""
    line = handle.readline()
    if not line:
        raise ParseError(1, "empty file, expected header 'm n'")
    line = line.removesuffix("\n")
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(1, f"expected header 'm n' with two integers, got {line!r}")
    try:
        order, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(1, f"header fields must be integers, got {line!r}") from None
    try:
        check_shape(order, dim)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None
    return order, dim


def _parse_bulk(handle: IO[str], order: int, dim: int) -> np.ndarray:
    """Entries of the rest of ``handle``, placed unchecked (:class:`DenseTensor`
    checks the values); raises on a line ``loadtxt`` rejects or warns about, an
    index outside ``1..dim`` or a repeated index tuple."""
    fields = [(f"i{k}", np.int64) for k in range(order)] + [("value", np.float64)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(handle, dtype=fields, comments=None, ndmin=1)
    index = tuple(table[f"i{k}"] for k in range(order))
    for column in index:
        column -= 1  # in place: a shifted copy per axis would double the table
    flat = np.ravel_multi_index(index, (dim,) * order)
    data = np.zeros((dim,) * order)
    seen = np.zeros(data.size, dtype=bool)
    seen[flat] = True
    if np.count_nonzero(seen) != flat.size:
        raise ValueError("duplicate index tuple")
    data.reshape(-1)[flat] = table["value"]
    return data


def _parse_lines(handle: IO[str], order: int, dim: int) -> np.ndarray:
    """Entries of the rest of ``handle``, checked one line at a time."""
    data = np.zeros((dim,) * order)
    seen: set[tuple[int, ...]] = set()
    for lineno, line in enumerate(handle, start=2):
        line = line.removesuffix("\n")
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
        return _read_handle(io.StringIO(source.read(), newline=None))
    with open(source, encoding="utf-8-sig") as handle:
        return _read_handle(handle) if handle.seekable() else read_tensor(handle)


def _read_handle(handle: IO[str]) -> DenseTensor:
    """Read a seekable handle with universal newlines, from its start."""
    order, dim = _parse_header(handle)
    try:
        return DenseTensor._own(_parse_bulk(handle, order, dim))
    except (ValueError, OverflowError, Warning):
        pass
    # outside the handler, so a ParseError does not chain the bulk rejection
    handle.seek(0)
    handle.readline()
    return DenseTensor._own(_parse_lines(handle, order, dim))


def write_tensor(tensor: DenseTensor, dest: PathOrFile) -> None:
    """Write the format above, listing nonzero entries in lexicographic order.

    Values are rendered with ``repr`` so a read back is bit-identical.
    """
    _write_lines(f"{tensor.order} {tensor.dim}", _entry_rows(tensor), dest)


def _entry_rows(tensor: DenseTensor) -> Iterator[str]:
    r"""The entry lines, one ``\n``-joined block per ``2**16`` nonzero entries."""
    labels = [f"{i} " for i in range(1, tensor.dim + 1)]
    flat = np.flatnonzero(tensor.entries)
    for start in range(0, flat.size, 2**16):
        chunk = flat[start : start + 2**16]
        index = np.unravel_index(chunk, tensor.data.shape)
        columns = [[labels[i] for i in axis.tolist()] for axis in index]
        # the flat gather is faster than data[index]
        values = map(repr, tensor.entries[chunk].tolist())
        yield "\n".join(map("".join, zip(*columns, values)))


def write_trace_csv(trace: Iterable, dest: PathOrFile) -> None:
    """Write trace rows as CSV with header ``k,r,R,gap,mid`` (6 significant digits)."""
    rows = (f"{r.k},{r.lower:.6g},{r.upper:.6g},{r.gap:.6g},{r.midpoint:.6g}" for r in trace)
    _write_lines("k,r,R,gap,mid", rows, dest)


def _write_lines(header: str, rows: Iterator[str], dest: PathOrFile) -> None:
    """Write ``header``, then each item of ``rows`` followed by a newline:
    one ``write`` per item, so an item may hold many lines.

    No row is drawn before ``dest`` is open, so a lazy ``rows`` formats
    nothing for a path that cannot be opened.  A path is opened without
    ``O_TRUNC`` and written from offset 0; a regular file is then cut at the
    end of the new text, also when a row raises midway, so none of the old
    bytes remain.  Symlinks, hard links and the file's mode are kept.  On an
    ext4 disk mounted with ``discard``, truncating a 9.2 MB file written
    moments earlier blocked the ``open`` for 0.18-0.5 s, while the in-place
    open and the cut took under 4 ms together.  A process killed between its
    last write and the cut can leave the old file's tail after the new text
    (a truncating open left a partial file instead).
    """
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8", opener=_open_in_place) as handle:
            try:
                return _write_lines(header, rows, handle)
            finally:
                # /dev/null cannot be truncated and a FIFO cannot seek
                if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                    handle.truncate()
    dest.write(header + "\n")
    for row in rows:
        dest.write(row + "\n")


def _open_in_place(path: str, flags: int) -> int:
    """``open``'s own flags without ``O_TRUNC``, and its mode ``0o666``
    (``os.open`` defaults to ``0o777``, which would make new files executable)."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)
