"""Built-in transformation filters (paper §2.4).

The paper ships "basic scalar operations: min, max, sum and average on
integers or floats" and "concatenation: operation that inputs n scalars
and outputs a vector of length n of the same base type".  All are
reproduced here, plus the weighted-average variant needed for exact
averages over unbalanced trees (the plain average filter — like real
MRNet's ``TFILTER_AVG`` — averages its direct inputs, which is exact
only when every input summarises the same number of leaves).

Reduction filters operate *field-wise across the packets of one wave*:
a wave of packets with format ``"%d %f"`` reduces to a single packet
``"%d %f"`` whose first field is the reduction of all first fields and
so on.  Array fields reduce element-wise and must agree in length.

Array fields that arrived as numpy views (large wire arrays decode to
read-only ndarrays — see :mod:`repro.core.packet`) reduce *vectorized*:
one ufunc call per input instead of a Python-level loop per element,
and the output packet carries the result ndarray via
:meth:`Packet.trusted` so it re-encodes with a single byteswap copy.
Sums of 64-bit integer arrays keep the exact Python fold (numpy would
wrap on overflow where the scalar path raises); 32-bit-and-narrower
sums accumulate in int64, which cannot overflow, and are bounds-checked
against the field type exactly like the eager path.

Every filter here is associative in the tree sense: reducing partial
results of disjoint waves equals reducing the union (for ``avg`` this
holds only for balanced fan-in; use ``wavg`` otherwise), which is what
makes them usable at every level of the MRNet tree.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..core.formats import FormatError, FormatString, TypeCode, parse_format
from ..core.packet import NATIVE_DTYPE, Packet
from .base import FilterError, FilterState, FunctionFilter

__all__ = [
    "ReductionFilter",
    "ConcatenationFilter",
    "AverageFilter",
    "WeightedAverageFilter",
    "ScanFilter",
    "WindowFilter",
    "min_filter",
    "max_filter",
    "sum_filter",
    "avg_filter",
    "concat_filter",
    "wavg_filter",
    "scan_filter",
    "window_filter",
]

# 64-bit integer sums stay on the exact Python fold: an int64/uint64
# accumulator could silently wrap where Python ints cannot.
_WIDE_INTS = (TypeCode.INT64, TypeCode.UINT64)


def _reduce_field(op: Callable[[Any, Any], Any], values: Sequence[Any], is_array: bool):
    """Fold *op* over one field position of a wave (exact scalar path)."""
    if is_array:
        values = [v.tolist() if isinstance(v, np.ndarray) else v for v in values]
        lengths = {len(v) for v in values}
        if len(lengths) > 1:
            raise FilterError(
                f"array fields must agree in length to reduce, got {sorted(lengths)}"
            )
        it = iter(values)
        acc = list(next(it))
        for vec in it:
            for i, x in enumerate(vec):
                acc[i] = op(acc[i], x)
        return tuple(acc)
    it = iter(values)
    acc = next(it)
    for x in it:
        acc = op(acc, x)
    return acc


def _check_lengths(values: Sequence[Any]) -> None:
    lengths = {len(v) for v in values}
    if len(lengths) > 1:
        raise FilterError(
            f"array fields must agree in length to reduce, got {sorted(lengths)}"
        )


def _reduce_field_vector(
    ufunc: np.ufunc, code: TypeCode, values: Sequence[Any]
) -> np.ndarray:
    """Vectorized element-wise reduction of one ndarray-backed field."""
    _check_lengths(values)
    if code.is_float:
        dtype = np.dtype(np.float64)
    elif ufunc is np.add:
        dtype = np.dtype(np.int64)  # cannot overflow for <= 32-bit elements
    else:
        dtype = NATIVE_DTYPE[code]  # min/max stay in-type
    acc = _fold(ufunc, dtype, values)
    if code.is_integral and ufunc is np.add and acc.size:
        lo, hi = code.bounds
        if int(acc.min()) < lo or int(acc.max()) > hi:
            raise FormatError(f"array values out of range for {code}")
    if acc.flags.writeable:
        acc.setflags(write=False)
    return acc


def _fold(ufunc: np.ufunc, dtype: np.dtype, values: Sequence[Any]) -> np.ndarray:
    """``ufunc``-fold *values* in order, accumulating in *dtype*.

    ndarray inputs are consumed as they are — wire-order views
    included: the ufunc casts and byte-swaps block-wise inside its
    loop, so no input is first copied to native order.
    """
    values = [
        v if isinstance(v, np.ndarray) else np.asarray(v, dtype=dtype)
        for v in values
    ]
    if len(values) == 1:
        return np.asarray(values[0], dtype=dtype)
    # casting="unsafe" is what np.asarray(v, dtype=dtype) applies.
    acc = ufunc(values[0], values[1], dtype=dtype, casting="unsafe")
    for arr in values[2:]:
        ufunc(acc, arr, out=acc, dtype=dtype, casting="unsafe")
    return acc


def _emit(first: Packet, values: Sequence[Any]) -> List[Packet]:
    """Re-stamp *first* with computed *values*, keeping ndarrays lazy."""
    values = tuple(values)
    if any(isinstance(v, np.ndarray) for v in values):
        return [
            Packet.trusted(
                first.stream_id, first.tag, first.fmt, values, first.origin_rank
            )
        ]
    return [first.replace(values=values)]


class ReductionFilter(FunctionFilter):
    """Field-wise reduction of a wave into a single packet.

    Parameters
    ----------
    op:
        Associative, commutative binary operator.
    name:
        Registry name, e.g. ``"sum"``.
    fmt:
        Optional required format; ``None`` accepts any numeric format
        (the wave itself must still be format-homogeneous).
    ufunc:
        Optional numpy equivalent of *op*; when given, array fields
        that arrived as ndarrays reduce vectorized.
    """

    def __init__(
        self,
        op: Callable[[Any, Any], Any],
        name: str,
        fmt=None,
        ufunc: Optional[np.ufunc] = None,
    ):
        super().__init__(self._run, name, fmt)
        self._op = op
        self._ufunc = ufunc

    def _check_numeric(self, fmt: FormatString) -> None:
        for field in fmt.fields:
            if not (field.code.is_integral or field.code.is_float):
                raise FilterError(
                    f"filter {self.name!r} cannot reduce field {field.spec}"
                )

    def _vectorizable(self, field, vals: Sequence[Any]) -> bool:
        return (
            field.is_array
            and self._ufunc is not None
            and not (self._ufunc is np.add and field.code in _WIDE_INTS)
            and any(isinstance(v, np.ndarray) for v in vals)
        )

    def _run(self, packets: Sequence[Packet], state: FilterState) -> List[Packet]:
        if not packets:
            return []
        first = packets[0]
        for p in packets[1:]:
            if p.fmt != first.fmt:
                raise FilterError(
                    f"wave mixes formats {first.fmt.canonical!r} and "
                    f"{p.fmt.canonical!r}"
                )
        self._check_numeric(first.fmt)
        out_values = []
        for i, field in enumerate(first.fmt.fields):
            vals = [p.raw_values[i] for p in packets]
            if self._vectorizable(field, vals):
                out_values.append(
                    _reduce_field_vector(self._ufunc, field.code, vals)
                )
            else:
                out_values.append(_reduce_field(self._op, vals, field.is_array))
        return _emit(first, out_values)


class AverageFilter(FunctionFilter):
    """Arithmetic mean of direct inputs (real MRNet ``TFILTER_AVG``).

    Integer fields use floor division to stay in-type, mirroring the
    C implementation; float fields average exactly.  Over a multi-level
    tree this computes a *mean of partial means*, exact only when each
    input aggregates equally many leaves — use
    :class:`WeightedAverageFilter` when fan-in is uneven.
    """

    def __init__(self, name: str = "avg", fmt=None):
        super().__init__(self._run, name, fmt)

    def _run(self, packets: Sequence[Packet], state: FilterState) -> List[Packet]:
        if not packets:
            return []
        first = packets[0]
        for p in packets[1:]:
            if p.fmt != first.fmt:
                raise FilterError("wave mixes formats")
        n = len(packets)
        out_values = []
        for i, field in enumerate(first.fmt.fields):
            if not (field.code.is_integral or field.code.is_float):
                raise FilterError(f"avg cannot reduce field {field.spec}")
            vals = [p.raw_values[i] for p in packets]
            if (
                field.is_array
                and field.code not in _WIDE_INTS
                and any(isinstance(v, np.ndarray) for v in vals)
            ):
                # Vectorized: sum then divide element-wise.  The mean
                # of in-range values is in-range, so no bounds check.
                _check_lengths(vals)
                total = _fold(
                    np.add,
                    np.dtype(np.float64 if field.code.is_float else np.int64),
                    vals,
                )
                avg = total // n if field.code.is_integral else total / n
                avg.setflags(write=False)
                out_values.append(avg)
                continue
            total = _reduce_field(lambda a, b: a + b, vals, field.is_array)
            if field.is_array:
                if field.code.is_integral:
                    out_values.append(tuple(t // n for t in total))
                else:
                    out_values.append(tuple(t / n for t in total))
            else:
                out_values.append(total // n if field.code.is_integral else total / n)
        return _emit(first, out_values)


class WeightedAverageFilter(FunctionFilter):
    """Exact tree average over ``"%lf %ud"`` (partial mean, leaf count).

    Back-ends send ``(value, 1)``; every node outputs the count-weighted
    mean of its inputs together with the total count, so the value the
    front-end receives is the exact global mean regardless of tree
    shape.
    """

    FMT = parse_format("%lf %ud")

    def __init__(self, name: str = "wavg"):
        super().__init__(self._run, name, self.FMT)

    def _run(self, packets: Sequence[Packet], state: FilterState) -> List[Packet]:
        if not packets:
            return []
        total_count = sum(p.values[1] for p in packets)
        if total_count == 0:
            return [packets[0].replace(values=(0.0, 0))]
        weighted = sum(p.values[0] * p.values[1] for p in packets)
        return [packets[0].replace(values=(weighted / total_count, total_count))]


class ConcatenationFilter(FunctionFilter):
    """Concatenate scalar or array inputs into one array packet.

    "inputs n scalars and outputs a vector of length n of the same base
    type".  At upper tree levels the inputs are already vectors, so
    array inputs are accepted and flattened; ordering follows the wave
    order (i.e. child order), which preserves back-end rank order when
    used with a Wait-For-All synchronizer over an order-preserving
    tree.  Numeric inputs that arrived as ndarray views concatenate
    with one ``np.concatenate`` call and stay an ndarray end-to-end.
    """

    def __init__(self, name: str = "concat"):
        super().__init__(self._run, name, None)

    def _run(self, packets: Sequence[Packet], state: FilterState) -> List[Packet]:
        if not packets:
            return []
        first = packets[0]
        if len(first.fmt.fields) != 1:
            raise FilterError("concat requires single-field packets")
        code = first.fmt.fields[0].code
        for p in packets:
            if len(p.fmt.fields) != 1 or p.fmt.fields[0].code is not code:
                raise FilterError(
                    f"concat wave mixes base types "
                    f"({first.fmt.canonical!r} vs {p.fmt.canonical!r})"
                )
        out_fmt = parse_format(f"%a{code.value}")
        vals = [p.raw_values[0] for p in packets]
        if code is not TypeCode.STRING and any(
            isinstance(v, np.ndarray) for v in vals
        ):
            dtype = NATIVE_DTYPE[code]
            parts = [
                np.asarray(v, dtype=dtype)
                if p.fmt.fields[0].is_array
                else np.asarray([v], dtype=dtype)
                for p, v in zip(packets, vals)
            ]
            out_arr = np.concatenate(parts)
            out_arr.setflags(write=False)
            return [
                Packet.trusted(
                    first.stream_id,
                    first.tag,
                    out_fmt,
                    (out_arr,),
                    first.origin_rank,
                )
            ]
        out: List[Any] = []
        for p, v in zip(packets, vals):
            if p.fmt.fields[0].is_array:
                out.extend(v.tolist() if isinstance(v, np.ndarray) else v)
            else:
                out.append(v)
        return [
            Packet(
                first.stream_id,
                first.tag,
                out_fmt,
                (tuple(out),),
                origin_rank=first.origin_rank,
            )
        ]


class ScanFilter(FunctionFilter):
    """Prefix scan (running sum) across the wave, in child order.

    The tree-collective formulation of ``MPI_Scan`` (NetFPGA scan,
    arXiv:1408.4939): each back-end contributes one numeric block — a
    scalar or a single array field — and the front-end receives the
    element-by-element running sum over all contributions, ordered by
    wave (i.e. child/rank) order.

    Scan composes associatively across tree levels through a flagged
    output convention.  Raw contributions are single-field packets
    (``"%<code>"`` or ``"%a<code>"``); a node's output is
    ``"%d %a<code>"`` whose leading flag is 1, meaning "this block is
    already scanned".  When a node's inputs include flagged blocks
    from lower levels, they are used as-is; raw blocks are cumsum'd;
    then each block is offset by the running total of the blocks
    before it — ``A ∥ (B + last(A))`` — which is exactly how partial
    scans of disjoint rank ranges compose.

    Per-node partial state rides :class:`FilterState`: after every
    wave ``state["last_total"]`` holds the wave's final cumulative
    value, so a tool-side filter stacked on top can build running
    scans across waves.
    """

    #: Leading already-scanned flag prepended to every output block.
    FLAG_SCANNED = 1

    def __init__(self, name: str = "scan"):
        super().__init__(self._run, name, None)

    @staticmethod
    def _block(packet: Packet):
        """One input as ``(code, is_scanned, 1-D ndarray)``."""
        fields = packet.fmt.fields
        if (
            len(fields) == 2
            and not fields[0].is_array
            and fields[0].code is TypeCode.INT32
            and fields[1].is_array
        ):
            flag = packet.raw_values[0]
            if flag == ScanFilter.FLAG_SCANNED:
                return fields[1].code, True, packet.raw_values[1]
        if len(fields) != 1:
            raise FilterError(
                f"scan requires single-field contributions, got "
                f"{packet.fmt.canonical!r}"
            )
        spec = fields[0]
        if spec.code is TypeCode.STRING or spec.code is TypeCode.BYTES:
            raise FilterError(f"scan cannot scan field {spec.spec}")
        value = packet.raw_values[0]
        if not spec.is_array:
            value = (value,)
        return spec.code, False, value

    def _run(self, packets: Sequence[Packet], state: FilterState) -> List[Packet]:
        if not packets:
            return []
        blocks = [self._block(p) for p in packets]
        code = blocks[0][0]
        if any(b[0] is not code for b in blocks):
            raise FilterError("scan wave mixes base types")
        if code.is_float:
            acc_dtype = np.dtype(np.float64)
        elif code is TypeCode.UINT64:
            acc_dtype = np.dtype(np.uint64)
        else:
            acc_dtype = np.dtype(np.int64)
        out_parts: List[np.ndarray] = []
        carry = acc_dtype.type(0)
        for _code, scanned, value in blocks:
            arr = np.asarray(value, dtype=acc_dtype)
            if not scanned:
                arr = np.cumsum(arr, dtype=acc_dtype)
            if carry:
                arr = arr + carry
            if arr.size:
                carry = arr[-1]
            out_parts.append(arr)
        out_arr = np.concatenate(out_parts) if out_parts else np.empty(0, acc_dtype)
        if code.is_integral and out_arr.size:
            lo, hi = code.bounds
            if int(out_arr.min()) < lo or int(out_arr.max()) > hi:
                raise FormatError(f"array values out of range for {code}")
        out_arr = np.asarray(out_arr, dtype=NATIVE_DTYPE[code])
        out_arr.setflags(write=False)
        state["last_total"] = out_arr[-1].item() if out_arr.size else 0
        first = packets[0]
        out_fmt = parse_format(f"%d %a{code.value}")
        return [
            Packet.trusted(
                first.stream_id,
                first.tag,
                out_fmt,
                (self.FLAG_SCANNED, out_arr),
                first.origin_rank,
            )
        ]


class WindowFilter(FunctionFilter):
    """Windowed aggregation: mean of the last *window* wave sums.

    Each wave is first reduced element-wise across children (sum), and
    that per-wave total is pushed into a sliding window riding
    :class:`FilterState` (``state["window"]``, a bounded deque).  The
    emitted packet is the element-wise mean over the window — a
    smoothed time series of the tree-wide aggregate, one output per
    wave.  Integer fields floor-divide to stay in-type, mirroring
    :class:`AverageFilter`; contributions must be single numeric
    fields of equal length.
    """

    def __init__(self, name: str = "window", window: int = 4):
        super().__init__(self._run, name, None)
        if window < 1:
            raise FilterError("window must be >= 1")
        self.window = window

    def _run(self, packets: Sequence[Packet], state: FilterState) -> List[Packet]:
        if not packets:
            return []
        first = packets[0]
        fields = first.fmt.fields
        if len(fields) != 1:
            raise FilterError("window requires single-field contributions")
        code = fields[0].code
        if not (code.is_integral or code.is_float):
            raise FilterError(f"window cannot aggregate field {fields[0].spec}")
        for p in packets[1:]:
            if p.fmt != first.fmt:
                raise FilterError("wave mixes formats")
        acc_dtype = np.dtype(np.float64 if code.is_float else np.int64)
        vals = [
            np.atleast_1d(np.asarray(p.raw_values[0], dtype=acc_dtype))
            for p in packets
        ]
        _check_lengths(vals)
        total = vals[0]
        for arr in vals[1:]:
            total = total + arr
        window = state.get("window")
        if window is None or window.maxlen != self.window:
            from collections import deque

            window = state["window"] = deque(maxlen=self.window)
        window.append(total)
        items = list(window)
        mean = items[0].astype(acc_dtype)
        for arr in items[1:]:
            mean = mean + arr
        n = len(items)
        mean = mean // n if code.is_integral else mean / n
        if code.is_integral:
            lo, hi = code.bounds
            if mean.size and (int(mean.min()) < lo or int(mean.max()) > hi):
                raise FormatError(f"array values out of range for {code}")
        out = np.asarray(mean, dtype=NATIVE_DTYPE[code])
        out.setflags(write=False)
        if fields[0].is_array:
            return [
                Packet.trusted(
                    first.stream_id, first.tag, first.fmt, (out,), first.origin_rank
                )
            ]
        return [first.replace(values=(out[0].item(),))]


min_filter = ReductionFilter(min, "min", ufunc=np.minimum)
max_filter = ReductionFilter(max, "max", ufunc=np.maximum)
sum_filter = ReductionFilter(lambda a, b: a + b, "sum", ufunc=np.add)
avg_filter = AverageFilter()
wavg_filter = WeightedAverageFilter()
concat_filter = ConcatenationFilter()
scan_filter = ScanFilter()
window_filter = WindowFilter()

# Element-wise reductions commute with slicing the element index space,
# so these four may run incrementally over aligned pipeline fragments.
min_filter.chunkwise = True
max_filter.chunkwise = True
sum_filter.chunkwise = True
avg_filter.chunkwise = True
