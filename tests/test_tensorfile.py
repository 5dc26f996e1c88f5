import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_b, golden_file_text, sparse_tensor
from specrad import DenseTensor, ParseError, random_tensor, read_tensor, row_sums, write_tensor
from specrad.tensor import MAX_ORDER
from specrad.tensorfile import _parse_bulk, _parse_header, _parse_lines


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


def test_duplicate_tuple_is_error_with_line_number():
    text = "2 2\n1 1 3.0\n2 1 4.0\n1 1 5.0\n"
    with pytest.raises(ParseError, match="line 4.*duplicate"):
        read_tensor(io.StringIO(text))
    try:
        read_tensor(io.StringIO(text))
    except ParseError as exc:
        assert exc.lineno == 4


def test_parse_errors_do_not_chain_the_bulk_rejection():
    for text, lineno in (
        ("2 2\n1 1 1.0\n2 2 nan\n", 3),
        ("2 2\n1 1 3.0\n2 1 4.0\n1 1 5.0\n", 4),
    ):
        with pytest.raises(ParseError) as info:
            read_tensor(io.StringIO(text))
        assert info.value.lineno == lineno
        assert info.value.__context__ is None


def test_header_errors():
    with pytest.raises(ParseError, match="line 1"):
        read_tensor(io.StringIO(""))
    with pytest.raises(ParseError, match="two integers"):
        read_tensor(io.StringIO("3\n"))
    with pytest.raises(ParseError, match="integers"):
        read_tensor(io.StringIO("a b\n"))
    with pytest.raises(ParseError, match="order"):
        read_tensor(io.StringIO("1 3\n"))
    with pytest.raises(ParseError, match="dimension"):
        read_tensor(io.StringIO("2 0\n"))


def test_entry_line_errors_name_the_line():
    with pytest.raises(ParseError, match="line 2.*fields"):
        read_tensor(io.StringIO("2 2\n1 1\n"))
    with pytest.raises(ParseError, match="line 3.*out of range"):
        read_tensor(io.StringIO("2 2\n1 1 1.0\n1 3 2.0\n"))
    with pytest.raises(ParseError, match="line 2.*integers"):
        read_tensor(io.StringIO("2 2\nx 1 1.0\n"))
    with pytest.raises(ParseError, match="line 2.*value"):
        read_tensor(io.StringIO("2 2\n1 1 abc\n"))
    with pytest.raises(ParseError, match="line 2.*nonnegative"):
        read_tensor(io.StringIO("2 2\n1 1 -3.0\n"))
    with pytest.raises(ParseError, match="line 2.*finite"):
        read_tensor(io.StringIO("2 2\n1 1 inf\n"))


def test_header_cap():
    with pytest.raises(ParseError, match="cap"):
        read_tensor(io.StringIO("3 100000\n"))


def test_header_long_order_is_rejected_without_the_power():
    # 1000**20000000 has 60 million digits; the order cap comes first
    with pytest.raises(ParseError, match="line 1: order must be between 2 and the cap of 25"):
        read_tensor(io.StringIO("20000000 1000\n"))


def test_header_order_above_the_array_rank_limit():
    assert read_tensor(io.StringIO(f"{MAX_ORDER} 1\n")).order == MAX_ORDER
    with pytest.raises(ParseError, match=f"line 1: .*cap of {MAX_ORDER}, got {MAX_ORDER + 1}"):
        read_tensor(io.StringIO(f"{MAX_ORDER + 1} 1\n"))


def test_roundtrip_at_the_array_rank_limit():
    # the bulk pass indexes with one array per axis, MAX_ORDER of them here
    t = random_tensor(MAX_ORDER, 1, seed=6)
    buffer = io.StringIO()
    write_tensor(t, buffer)
    text = buffer.getvalue()
    assert read_tensor(io.StringIO(text)) == t
    assert np.array_equal(_parse_lines(text.splitlines(), MAX_ORDER, 1), t.data)


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


def per_line_read(text):
    """The per-line pass alone, as ``read_tensor`` falls back to it."""
    lines = text.splitlines()
    order, dim = _parse_header(lines)
    return DenseTensor(_parse_lines(lines, order, dim))


def outcome(reader, text):
    try:
        t = reader(io.StringIO(text)) if reader is read_tensor else reader(text)
    except ParseError as exc:
        return ("error", exc.lineno, str(exc))
    return ("tensor", t.data.shape, t.data.tobytes())


PARITY_CASES = {
    "plus sign": "2 2\n+1 1 1.5\n2 +2 2.5\n",
    "underscore index": "2 12\n1_0 1 1.5\n",
    "full-width digit": "2 2\n\uff12 1 1.5\n",
    "float index": "2 2\n1 1 1.0\n1.0 2 1.5\n",
    "exponent index": "2 2\n1e0 2 1.5\n",
    "nan value": "2 2\n1 1 1.0\n2 2 nan\n",
    "infinity value": "2 2\n1 1 Infinity\n",
    "negative zero": "2 2\n1 1 -0.0\n2 2 3.0\n",
    "crlf": "2 2\r\n1 1 1.5\r\n2 2 0.25\r\n",
    "tabs": "3 2\n1\t2\t1\t1.5\n2 1\t1 7e-3\n",
    "blank lines": "2 2\n\n1 1 1.5\n   \n2 2 2.5\n\n\n",
    "header only": "3 2\n",
    "short then long": "2 2\n1 1\n2 2 1.5 7\n",
    "duplicate on last line": "2 2\n1 1 1.5\n2 1 2.5\n1 1 3.5",
    "comment line": "2 2\n# entries\n1 1 1.5\n",
    "zero index": "2 2\n0 1 1.5\n",
    "negative index": "2 2\n-1 1 1.5\n",
    "index past the dimension": "2 2\n1 3 1.5\n",
}


@pytest.mark.parametrize("text", PARITY_CASES.values(), ids=PARITY_CASES.keys())
def test_bulk_parse_matches_per_line_parse(text):
    assert outcome(read_tensor, text) == outcome(per_line_read, text)


def test_bulk_pass_hands_odd_input_to_the_per_line_pass():
    def fast(text):
        lines = text.splitlines()
        return DenseTensor._own(_parse_bulk(lines, *_parse_header(lines)))

    for name in ("plus sign", "negative zero", "crlf", "tabs", "blank lines"):
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
ODD_LINES = ["", "   ", "# note", "1", "1 1 1 1 1 1"]


@st.composite
def tensor_texts(draw):
    """Tensor files mixing valid entry lines with every fault kind and with
    spellings only ``int``/``float`` accept; repeated tuples come from the
    small dimensions."""
    order = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(min_value=1, max_value=3))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
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
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(text=tensor_texts())
def test_read_matches_per_line_read_on_generated_files(text):
    assert outcome(read_tensor, text) == outcome(per_line_read, text)
