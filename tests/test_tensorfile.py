import hashlib
import io
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrad.tensorfile
from conftest import BAD_FILES, PARITY_CASES, SPLITLINES_ONLY, golden_b, golden_file_text, sparse_tensor
from specrad import (
    DenseTensor,
    ParseError,
    TraceRow,
    random_tensor,
    read_tensor,
    row_sums,
    write_tensor,
    write_trace_csv,
)
from specrad.tensor import MAX_ORDER
from specrad.tensorfile import _parse_bulk, _parse_header, _parse_lines, _write_lines


def roundtrip(tensor):
    buffer = io.StringIO()
    write_tensor(tensor, buffer)
    return read_tensor(io.StringIO(buffer.getvalue()))


def test_golden_file_parses(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text(golden_file_text())
    t = read_tensor(path)
    assert t.order == 3 and t.dim == 3
    assert t.data[0, 1, 1] == 3.72
    assert t.data[2, 0, 0] == 9.55
    assert row_sums(t) == pytest.approx([3.72, 9.02, 9.55], rel=1e-15)


def test_a_path_may_start_with_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(golden_file_text().encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + golden_file_text().encode("utf-8"))
    assert read_tensor(marked) == read_tensor(plain)


def test_omitted_positions_are_zero():
    t = read_tensor(io.StringIO("2 2\n1 1 5.0\n"))
    assert t.data[0, 0] == 5.0
    assert t.data[0, 1] == 0.0 and t.data[1, 1] == 0.0


def test_blank_lines_are_tolerated():
    t = read_tensor(io.StringIO("2 2\n\n1 1 5.0\n\n2 2 1.0\n"))
    assert t.data[1, 1] == 1.0


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from([(2, 3), (3, 2), (3, 3), (4, 2)]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_roundtrip_is_bit_identical(shape, seed):
    order, dim = shape
    t = random_tensor(order, dim, seed)
    assert roundtrip(t) == t


def test_roundtrip_sparse_bit_identical():
    t = sparse_tensor(3, 5, seed=17)
    back = roundtrip(t)
    assert np.array_equal(back.data, t.data)


@pytest.mark.parametrize("text, message", BAD_FILES.values(), ids=BAD_FILES)
def test_bad_files_get_their_exact_message(text, message, tmp_path):
    path = tmp_path / "t.txt"
    # a path drops one leading byte-order mark
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    for source in (io.StringIO(text), path):
        with pytest.raises(ParseError) as info:
            read_tensor(source)
        error = info.value
        assert str(error) == message
        assert message.startswith(f"line {error.lineno}: ")
        # a traceback shows no other exception: the per-line pass raises
        # outside the bulk pass's handler, and each ValueError it turns
        # into a ParseError is raised ``from None``
        assert error.__cause__ is None
        assert error.__context__ is None or error.__suppress_context__


def test_a_marked_path_falls_back_to_the_per_line_pass(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("\ufeff2 2\n1 1 1.5\n1 1 2.5\n".encode())
    with pytest.raises(ParseError) as info:
        read_tensor(path)
    assert str(info.value) == "line 3: duplicate index tuple (1, 1)"
    path.write_bytes("\ufeff2 2\r\n1 1 1.5\r\n2 2 1_0\r\n".encode())
    assert read_tensor(path) == DenseTensor([[1.5, 0.0], [0.0, 10.0]])


class OneWayStream(io.StringIO):
    """Text stream that cannot seek, as a socket or a pipe reader."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


def test_a_stream_that_cannot_seek_falls_back_to_the_per_line_pass():
    with pytest.raises(ParseError) as info:
        read_tensor(OneWayStream("2 2\r\n1 1 1.5\r\n1 x 2.5\r\n"))
    assert str(info.value) == "line 3: indices must be integers: '1 x 2.5'"
    assert read_tensor(OneWayStream("2 12\n1_0 1 1.5\n")).data[9, 0] == 1.5


def read_or_message(source):
    """The tensor read from ``source``, or the text of its :class:`ParseError`."""
    try:
        return read_tensor(source)
    except ParseError as exc:
        return str(exc)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize(
    "text, expected",
    [
        ("2 2\n1 1 1.5\n2 2 2.5\n", DenseTensor([[1.5, 0.0], [0.0, 2.5]])),
        ("2 2\n1 1 1.5\n2 1 2.5\n1 1 3.5\n", "line 4: duplicate index tuple (1, 1)"),
    ],
)
def test_a_named_pipe_is_read_once(text, expected, tmp_path):
    path = tmp_path / "pipe"
    os.mkfifo(path)

    def feed():
        with open(path, "w") as pipe:
            pipe.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    assert read_or_message(path) == expected
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("c", SPLITLINES_ONLY)
def test_only_cr_and_lf_end_a_line(c, tmp_path):
    path = tmp_path / "t.txt"
    for text, expected in (
        (f"2 2\n1 1{c}1.0\n2 2 3.0\n", DenseTensor([[1.0, 0.0], [0.0, 3.0]])),
        # a break after the value would have moved the duplicate to line 4
        (f"2 2\n1 1 1.0{c}\n1 1 2.0\n", "line 3: duplicate index tuple (1, 1)"),
        (f"2 2\n1 1 1.0{c}2 2 3.0\n", "line 2: expected 2 indices and a value, got 6 fields"),
    ):
        path.write_text(text, encoding="utf-8")
        assert read_or_message(io.StringIO(text)) == expected
        assert read_or_message(path) == expected


def test_roundtrip_at_the_array_rank_limit():
    assert read_tensor(io.StringIO(f"{MAX_ORDER} 1\n")).order == MAX_ORDER
    # the bulk pass indexes with one array per axis, MAX_ORDER of them here
    t = random_tensor(MAX_ORDER, 1, seed=6)
    buffer = io.StringIO()
    write_tensor(t, buffer)
    text = buffer.getvalue()
    assert read_tensor(io.StringIO(text)) == t
    handle = io.StringIO(text)
    assert _parse_header(handle) == (MAX_ORDER, 1)
    assert np.array_equal(_parse_lines(handle, MAX_ORDER, 1), t.data)


def test_write_lists_nonzero_entries_one_based(tmp_path):
    t = sparse_tensor(3, 3, seed=4)
    path = tmp_path / "t.txt"
    write_tensor(t, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "3 3"
    assert len(lines) == 1 + int(np.count_nonzero(t.data))
    first = lines[1].split()
    assert all(1 <= int(i) <= 3 for i in first[:3])


def test_write_golden_is_byte_identical_to_the_golden_file():
    buffer = io.StringIO()
    write_tensor(golden_b(), buffer)
    assert buffer.getvalue() == golden_file_text()


class RecordingStream(io.StringIO):
    """Text stream that records the length of every ``write``."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


def test_write_passes_the_text_in_bounded_chunks():
    stream = RecordingStream()
    write_tensor(random_tensor(3, 70, 1), stream)
    text = stream.getvalue()
    # the bytes the single-string writer produced
    assert len(text) == 9_221_633
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "445be349a9a4739ea4e4f37eb2ca1537b08ac70a77fe7d832912e2273efc6634"
    )
    assert sum(stream.lengths) == len(text)
    assert max(stream.lengths) <= len(text) // 4


def test_write_opens_the_path_before_rendering_a_value(tmp_path, monkeypatch):
    rendered = []
    monkeypatch.setattr(
        specrad.tensorfile, "repr", lambda v: rendered.append(v) or repr(v), raising=False
    )
    path = tmp_path / "missing" / "x.txt"
    with pytest.raises(FileNotFoundError):
        write_tensor(random_tensor(3, 20, 1), path)
    assert not path.parent.exists()
    assert rendered == []
    # the spy is the one the writer calls
    write_tensor(golden_b(), io.StringIO())
    assert len(rendered) == 3


def written_text(writer, content):
    """The text ``writer`` gives for ``content`` on a ``StringIO``."""
    buffer = io.StringIO()
    writer(content, buffer)
    return buffer.getvalue()


def trace(length):
    return [TraceRow(k, 1.0 / k, 2.0 + k) for k in range(1, length + 1)]


def test_a_longer_file_is_overwritten_exactly(tmp_path):
    path = tmp_path / "t.txt"
    write_tensor(random_tensor(3, 12, 1), path)
    short = random_tensor(3, 5, 1)
    write_tensor(short, path)
    assert path.read_text() == written_text(write_tensor, short)
    assert read_tensor(path) == short
    csv_path = tmp_path / "tr.csv"
    write_trace_csv(trace(50), csv_path)
    write_trace_csv(trace(3), csv_path)
    assert csv_path.read_text() == written_text(write_trace_csv, trace(3))


def test_an_overwritten_file_keeps_its_mode(tmp_path):
    path = tmp_path / "t.txt"
    write_tensor(random_tensor(3, 6, 1), path)
    path.chmod(0o600)
    write_tensor(random_tensor(3, 5, 1), path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_a_symlink_is_written_through(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    write_tensor(random_tensor(3, 6, 1), target)
    link.symlink_to(target)
    short = random_tensor(3, 5, 1)
    write_tensor(short, link)
    assert link.is_symlink()
    assert target.read_text() == written_text(write_tensor, short)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_writing_to_dev_null_does_not_raise():
    # the device is seekable, but truncating it fails with EINVAL
    write_tensor(random_tensor(3, 5, 1), "/dev/null")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_named_pipe_gets_the_stream_text(tmp_path):
    path = tmp_path / "pipe"
    os.mkfifo(path)
    received = []

    def drain():
        with open(path, "rb") as pipe:
            received.append(pipe.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    t = random_tensor(3, 12, 1)
    write_tensor(t, path)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [written_text(write_tensor, t).encode()]


def test_the_old_bytes_stay_until_the_new_text_is_written(tmp_path):
    path = tmp_path / "t.txt"
    write_tensor(random_tensor(3, 12, 1), path)
    old_size = path.stat().st_size
    sizes = []

    def rows():
        sizes.append(os.path.getsize(path))
        yield "1 1 1 1.0"

    _write_lines("3 1", rows(), path)
    # a truncating open had emptied the file before the first row
    assert sizes == [old_size]
    assert path.read_text() == "3 1\n1 1 1 1.0\n"


def test_a_failing_row_leaves_no_old_tail(tmp_path):
    path = tmp_path / "t.txt"
    write_tensor(random_tensor(3, 12, 1), path)

    def rows():
        yield "1 1 1 1.0"
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        _write_lines("3 1", rows(), path)
    # the header and the row before the failure, then the cut
    assert path.read_text() == "3 1\n1 1 1 1.0\n"


@pytest.fixture(scope="module")
def large_file(tmp_path_factory):
    """The ``(70,3)`` tensor and its 9.2 MB file."""
    t = random_tensor(3, 70, 1)
    path = tmp_path_factory.mktemp("large") / "t.txt"
    write_tensor(t, path)
    return t, path


def traced_peak(call):
    """``call()`` and the peak bytes ``tracemalloc`` saw allocated during it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_path_holds_no_copy_of_the_lines(large_file):
    t, path = large_file
    back, peak = traced_peak(lambda: read_tensor(path))
    assert back == t
    # a list of the lines alone took 3.1 times the file's bytes
    assert peak < 3.5 * path.stat().st_size


def test_writing_renders_the_entries_in_bounded_chunks(large_file, tmp_path):
    t, path = large_file
    out = tmp_path / "t.txt"
    _, peak = traced_peak(lambda: write_tensor(t, out))
    assert out.read_bytes() == path.read_bytes()
    # rendering every label and value before the first row took 3.3 times
    assert peak < 2.5 * out.stat().st_size


def reference_write(tensor):
    """One line per nonzero entry, built by scalar loops."""
    lines = [f"{tensor.order} {tensor.dim}"]
    for index in zip(*np.nonzero(tensor.data)):
        coords = " ".join(str(int(i) + 1) for i in index)
        lines.append(f"{coords} {float(tensor.data[index])!r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(2, 1), (2, 7), (3, 4), (4, 3), (5, 2), (5, 3)]),
    seed=st.integers(min_value=0, max_value=10_000),
    density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
)
def test_sparse_roundtrip_matches_reference_writer(shape, seed, density):
    order, dim = shape
    t = sparse_tensor(order, dim, seed, density=density)
    buffer = io.StringIO()
    write_tensor(t, buffer)
    assert buffer.getvalue() == reference_write(t)
    back = read_tensor(io.StringIO(buffer.getvalue()))
    assert back.data.tobytes() == t.data.tobytes()


@pytest.mark.parametrize("count", [2**16, 2**16 + 1, 2 * 2**16])
def test_a_chunk_boundary_writes_the_reference_text(count):
    # the writer renders 2**16 nonzero entries per block
    rng = np.random.default_rng(count)
    flat = np.zeros(512**2)
    flat[rng.choice(flat.size, count, replace=False)] = rng.uniform(0.5, 2.0, count)
    t = DenseTensor(flat.reshape(512, 512))
    assert written_text(write_tensor, t) == reference_write(t)


def test_a_long_trace_writes_its_rows_joined_by_hand(tmp_path):
    rows = trace(2**16 + 1)
    path = tmp_path / "tr.csv"
    write_trace_csv(rows, path)
    lines = (f"{r.k},{r.lower:.6g},{r.upper:.6g},{r.gap:.6g},{r.midpoint:.6g}\n" for r in rows)
    assert path.read_text() == "k,r,R,gap,mid\n" + "".join(lines)


def per_line_read(text):
    """The per-line pass alone, as ``read_tensor`` falls back to it."""
    handle = io.StringIO(text, newline=None)
    order, dim = _parse_header(handle)
    return DenseTensor(_parse_lines(handle, order, dim))


def outcome(reader, text):
    try:
        t = reader(io.StringIO(text)) if reader is read_tensor else reader(text)
    except ParseError as exc:
        return ("error", exc.lineno, str(exc))
    return ("tensor", t.data.shape, t.data.tobytes())


@pytest.mark.parametrize("text", PARITY_CASES.values(), ids=PARITY_CASES.keys())
def test_bulk_parse_matches_per_line_parse(text):
    assert outcome(read_tensor, text) == outcome(per_line_read, text)


def test_bulk_pass_hands_odd_input_to_the_per_line_pass():
    def fast(text):
        handle = io.StringIO(text, newline=None)
        return DenseTensor._own(_parse_bulk(handle, *_parse_header(handle)))

    separators = [f"separator {c!r}" for c in SPLITLINES_ONLY]
    for name in ("plus sign", "negative zero", "crlf", "tabs", "blank lines", *separators):
        text = PARITY_CASES[name]
        assert fast(text).data.tobytes() == per_line_read(text).data.tobytes(), name
    for name in ("underscore index", "full-width digit", "float index", "nan value",
                 "short then long", "duplicate on last line", "comment line",
                 "zero index", "negative index", "index past the dimension"):
        with pytest.raises((ValueError, OverflowError, Warning)) as caught:
            fast(PARITY_CASES[name])
        assert not isinstance(caught.value, ParseError), name


ODD_INDICES = ["0", "-1", "+1", "1_0", "\uff12", "1.0", "1e0", str(2**64), "x"]
ODD_VALUES = ["-0.0", "5e-324", "1_0.5", "0x1p3", "nan", "inf", "-Infinity", "-3", "1e400", "abc"]
ODD_LINES = ["", "   ", "# note", "1", "1 1 1 1 1 1", *SPLITLINES_ONLY]


@st.composite
def tensor_texts(draw):
    """Tensor files mixing valid entry lines with every fault kind and with
    spellings only ``int``/``float`` accept; repeated tuples come from the
    small dimensions."""
    order = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(min_value=1, max_value=3))
    sep = draw(st.sampled_from([" ", "\t", "  ", *SPLITLINES_ONLY]))
    lines = [f"{order} {dim}"]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        fields = [str(draw(st.integers(min_value=1, max_value=dim))) for _ in range(order)]
        fields.append(repr(draw(st.floats(min_value=0.0, max_value=1e6))))
        spoil = draw(st.sampled_from([None] * 6 + ["index", "value", "line"]))
        if spoil == "index":
            k = draw(st.integers(min_value=0, max_value=order - 1))
            fields[k] = draw(st.sampled_from(ODD_INDICES + [str(dim + 1)]))
        elif spoil == "value":
            fields[-1] = draw(st.sampled_from(ODD_VALUES))
        lines.append(draw(st.sampled_from(ODD_LINES)) if spoil == "line" else sep.join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(text=tensor_texts())
def test_read_matches_per_line_read_on_generated_files(text):
    assert outcome(read_tensor, text) == outcome(per_line_read, text)
