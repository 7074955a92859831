"""Byte-identity of the one-copy encode and wire-order reduce paths.

An ndarray field is cast to wire order straight into the packet's
frame, and the built-in reductions run the ufunc directly on
wire-order inputs.  Neither may change a single byte relative to the
tuple path (``struct.pack`` encode, exact Python fold), for any numeric
type code, array layout or size on either side of the vectorization
threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formats import FormatError, TypeCode
from repro.core.packet import _NUMPY_THRESHOLD, NATIVE_DTYPE, Packet
from repro.filters.base import FilterError, FilterState
from repro.filters.transform import avg_filter, max_filter, min_filter, sum_filter

NUMERIC = [
    TypeCode.CHAR, TypeCode.INT32, TypeCode.UINT32, TypeCode.INT64,
    TypeCode.UINT64, TypeCode.FLOAT32, TypeCode.FLOAT64,
]
LENGTHS = st.sampled_from([0, 1, _NUMPY_THRESHOLD, _NUMPY_THRESHOLD + 1, 150])


def elements(code: TypeCode, narrow: bool = False):
    """Values of *code*; *narrow* keeps four-way sums inside the type."""
    if code.is_float:
        width, top = (32, 2.0**100) if code is TypeCode.FLOAT32 else (64, 2.0**1000)
        # Finite and four-way summable within the type; no -0.0: Python's
        # min/max and numpy's disagree on which of two equal-comparing
        # operands to return.
        return st.floats(-top, top, width=width).map(lambda x: x + 0.0)
    lo, hi = code.bounds
    return st.integers(lo // 4, hi // 4) if narrow else st.integers(lo, hi)


@st.composite
def columns(draw, code, count=1, narrow=False):
    n = draw(LENGTHS)
    return [
        np.array(
            draw(st.lists(elements(code, narrow), min_size=n, max_size=n)),
            dtype=NATIVE_DTYPE[code],
        )
        for _ in range(count)
    ]


def tuple_path(code: TypeCode, values) -> bytes:
    return Packet(3, 100, f"%d %a{code.value} %s", (9, tuple(values), "x"), 5).to_bytes()


@pytest.mark.parametrize("code", NUMERIC, ids=lambda c: c.value)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ndarray_encode_equals_tuple_encode(code, data):
    (arr,) = data.draw(columns(code))
    want = tuple_path(code, arr.tolist())
    fmt = f"%d %a{code.value} %s"
    frozen = arr.copy()
    frozen.setflags(write=False)
    layouts = {
        "contiguous": arr,
        "strided": np.repeat(arr, 2)[::2],
        "read-only": frozen,
        "wire-order": arr.astype(arr.dtype.newbyteorder(">")),
    }
    for name, source in layouts.items():
        packet = Packet(3, 100, fmt, (9, source, "x"), 5)
        if source.flags.writeable and source.size:
            source[...] = 1  # the packet took its snapshot already
        assert bytes(packet.encoded_view()) == want, name
        assert packet.to_bytes() == want, name
        assert packet.nbytes == len(want)
    trusted = Packet.trusted(3, 100, fmt, (9, frozen, "x"), 5)
    assert bytes(trusted.encoded_view()) == want


@pytest.mark.parametrize("code", [TypeCode.FLOAT32, TypeCode.FLOAT64], ids=lambda c: c.value)
@settings(max_examples=40, deadline=None)
@given(ints=st.lists(st.integers(-(2**31), 2**31), max_size=150))
def test_int_array_into_float_field(code, ints):
    arr = np.array(ints, dtype=np.int64)
    packet = Packet(3, 100, f"%d %a{code.value} %s", (9, arr, "x"), 5)
    assert bytes(packet.encoded_view()) == tuple_path(code, ints)


FILTERS = [sum_filter, min_filter, max_filter, avg_filter]


@pytest.mark.parametrize("filt", FILTERS, ids=lambda f: f.name)
@pytest.mark.parametrize("code", NUMERIC, ids=lambda c: c.value)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reduce_is_byte_identical_across_input_kinds(filt, code, data):
    fan_in = data.draw(st.integers(1, 4))
    cols = data.draw(columns(code, fan_in, narrow=True))
    fmt = f"%a{code.value}"
    wires = [Packet(7, 100, fmt, (tuple(c.tolist()),), r).to_bytes()
             for r, c in enumerate(cols)]
    inputs = {
        "wire": [Packet.lazy_from_wire(w) for w in wires],
        "wire-view": [Packet.lazy_from_wire(memoryview(bytearray(w)).toreadonly())
                      for w in wires],
        "native": [Packet.trusted(7, 100, fmt, (c,), r) for r, c in enumerate(cols)],
        "tuple": [Packet(7, 100, fmt, (tuple(c.tolist()),), r)
                  for r, c in enumerate(cols)],
    }
    frames = {}
    for kind, packets in inputs.items():
        (out,) = filt(packets, FilterState())
        frames[kind] = bytes(out.encoded_view())
    assert frames["wire"] == frames["tuple"]
    assert frames["wire-view"] == frames["tuple"]
    assert frames["native"] == frames["tuple"]


@pytest.mark.parametrize("code", [TypeCode.CHAR, TypeCode.INT32, TypeCode.UINT32],
                         ids=lambda c: c.value)
def test_integer_overflow_still_raises_on_wire_inputs(code):
    lo, hi = code.bounds
    col = np.full(_NUMPY_THRESHOLD + 1, hi, dtype=NATIVE_DTYPE[code])
    wire = Packet(7, 100, f"%a{code.value}", (col,)).to_bytes()
    with pytest.raises(FormatError):
        sum_filter([Packet.lazy_from_wire(wire)] * 2, FilterState())


@pytest.mark.parametrize("filt", FILTERS, ids=lambda f: f.name)
def test_length_mismatch_still_raises_on_wire_inputs(filt):
    wires = [
        Packet(7, 100, "%alf", (np.zeros(n),)).to_bytes()
        for n in (_NUMPY_THRESHOLD + 1, _NUMPY_THRESHOLD + 2)
    ]
    with pytest.raises(FilterError):
        filt([Packet.lazy_from_wire(w) for w in wires], FilterState())
