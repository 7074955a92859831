"""MRNet data packets: typed payloads with a packed binary encoding.

A :class:`Packet` is the unit of data on a stream (paper §2.1).  Each
packet carries:

* ``stream_id`` — identifies the stream the packet belongs to, used by
  internal processes to demultiplex (paper §2.3);
* ``tag`` — an application-level message tag (MRNet's API lets tools
  tag messages; Paradyn uses tags to dispatch handlers);
* a format (see :mod:`repro.core.formats`) and a tuple of values
  matching that format;
* ``origin_rank`` — rank of the end-point that produced the packet,
  letting filters attribute data to back-ends.

The wire encoding ("efficient, packed binary representation", §1) is:

.. code-block:: text

   uint32 stream_id | int32 tag | uint32 origin_rank |
   uint32 fmt_len | fmt bytes (UTF-8, canonical) |
   packed fields ...

All multi-byte quantities are big-endian ("network order").

Zero-copy lazy data plane
-------------------------

The paper's internal processes forward packets "by reference whenever
possible" (§2.3).  Three constructors with different trust/laziness
levels make that literal:

* ``Packet(...)`` — the user-facing constructor: validates and
  normalises every value (``_normalise``).
* :meth:`Packet.trusted` — skips validation for values whose typing is
  already guaranteed (decoded off the wire, or computed by a built-in
  filter from decoded inputs).
* :meth:`Packet.lazy_from_wire` — parses *only* the fixed 12-byte
  header and keeps the rest of the frame as an undecoded
  ``bytes``/``memoryview`` slice.  ``fmt`` and ``values`` decode on
  first access; :meth:`to_bytes` returns the original frame
  byte-identically.  A relay hop that never touches ``values``
  therefore never decodes, validates, or re-encodes anything.

Large array fields (``> _NUMPY_THRESHOLD`` elements) decode to
read-only numpy views over the wire buffer instead of Python tuples;
:attr:`raw_values` exposes them for vectorized filters, while the
public :attr:`values` materialises plain tuples on demand (and caches
the result), so user-visible semantics — equality, hashing, indexing —
are unchanged.

Inside a process packets are passed by reference and never re-encoded;
:meth:`Packet.to_bytes` caches its result so a packet fanned out to
many children is serialized once (zero-copy path, §2.3).
"""

from __future__ import annotations

import struct
from typing import Any, Iterator, Sequence, Tuple

import numpy as np

from .formats import FieldSpec, FormatError, FormatString, TypeCode, parse_format
from .formats import _BOUNDS as _INT_BOUNDS
from .formats import _FLOAT_CODES

__all__ = ["Packet", "PacketDecodeError"]

_HEADER = struct.Struct(">IiI")
_U32 = struct.Struct(">I")

# Above this element count, array fields go through numpy's vectorized
# byte-swap/copy instead of struct.pack(*values) — an order of magnitude
# faster for the multi-thousand-element vectors concatenation builds.
# The same threshold gates decoding to an ndarray view vs. a tuple.
_NUMPY_THRESHOLD = 64

# Big-endian (wire) dtypes, used on the encode path.
_NP_DTYPE = {
    TypeCode.CHAR: np.dtype(">u1"),
    TypeCode.INT32: np.dtype(">i4"),
    TypeCode.UINT32: np.dtype(">u4"),
    TypeCode.INT64: np.dtype(">i8"),
    TypeCode.UINT64: np.dtype(">u8"),
    TypeCode.FLOAT32: np.dtype(">f4"),
    TypeCode.FLOAT64: np.dtype(">f8"),
}

# Native-order dtypes, used for in-memory vectorized computation.
NATIVE_DTYPE = {
    TypeCode.CHAR: np.dtype("u1"),
    TypeCode.INT32: np.dtype("i4"),
    TypeCode.UINT32: np.dtype("u4"),
    TypeCode.INT64: np.dtype("i8"),
    TypeCode.UINT64: np.dtype("u8"),
    TypeCode.FLOAT32: np.dtype("f4"),
    TypeCode.FLOAT64: np.dtype("f8"),
}


class PacketDecodeError(ValueError):
    """Raised when a byte buffer cannot be decoded as a packet."""


def _owns_buffer(value: np.ndarray) -> bool:
    """True when nobody else may write *value*'s backing memory.

    Walks the ``.base`` chain to the exporting object.  Arrays that own
    their data, views over ``bytes`` and views over a **read-only**
    ``memoryview`` are safe to keep: that is how links hand over a
    frame buffer they allocated for one frame and never touch again.
    A writable exporter — a shared-memory ring slice, an mmap, a
    bytearray — is borrowed and must be copied before the packet is
    parked (see :meth:`Packet.materialize`).
    """
    base = value.base
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview):
        return base.readonly
    return base is None or isinstance(base, bytes)


def _check_scalar(code: TypeCode, value: Any) -> Any:
    """Validate and normalise one scalar against its type code."""
    # Fast path for exact builtin types (note ``type(...) is int``
    # rejects bool, which is an int subclass we must not accept).
    kind = type(value)
    if kind is int:
        bounds = _INT_BOUNDS.get(code)
        if bounds is not None:
            if bounds[0] <= value <= bounds[1]:
                return value
            raise FormatError(f"value {value} out of range for {code}")
    elif kind is float and code in _FLOAT_CODES:
        return value
    elif kind is str and code is TypeCode.STRING:
        return value
    if isinstance(value, np.generic):
        # numpy scalars normalise to native Python numbers first.
        if isinstance(value, np.bool_):
            raise FormatError(f"expected number for {code}, got numpy bool")
        value = value.item()
    if code.is_integral:
        if isinstance(value, bool) or not isinstance(value, int):
            if code is TypeCode.CHAR and isinstance(value, str) and len(value) == 1:
                value = ord(value)
            else:
                raise FormatError(
                    f"expected int for {code}, got {type(value).__name__}"
                )
        lo, hi = code.bounds
        if not lo <= value <= hi:
            raise FormatError(f"value {value} out of range for {code}")
        return value
    if code.is_float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(
                f"expected float for {code}, got {type(value).__name__}"
            )
        return float(value)
    if code is TypeCode.STRING:
        if not isinstance(value, str):
            raise FormatError(f"expected str, got {type(value).__name__}")
        return value
    if code is TypeCode.BYTES:
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise FormatError(f"expected bytes, got {type(value).__name__}")
        return bytes(value)
    raise FormatError(f"unhandled type code {code}")  # pragma: no cover


def _normalise(
    fields: Tuple[FieldSpec, ...], values: Sequence[Any], copy: bool = True
) -> Tuple[Any, ...]:
    if len(values) != len(fields):
        raise FormatError(
            f"format has {len(fields)} fields but {len(values)} values given"
        )
    out = []
    for spec, value in zip(fields, values):
        if spec.is_array:
            if spec.code is TypeCode.STRING:
                if not isinstance(value, (list, tuple)) or not all(
                    isinstance(v, str) for v in value
                ):
                    raise FormatError("%as expects a sequence of str")
                out.append(tuple(value))
            elif spec.code is TypeCode.CHAR and isinstance(
                value, (bytes, bytearray, memoryview)
            ):
                out.append(tuple(bytes(value)))
            elif isinstance(value, np.ndarray):
                out.append(_normalise_ndarray(spec.code, value, copy))
            else:
                if isinstance(value, (str, bytes)):
                    raise FormatError(f"{spec.spec} expects a sequence of scalars")
                try:
                    items = list(value)
                except TypeError:
                    raise FormatError(
                        f"{spec.spec} expects a sequence, got {type(value).__name__}"
                    ) from None
                out.append(tuple(_check_scalar(spec.code, v) for v in items))
        else:
            out.append(_check_scalar(spec.code, value))
    return tuple(out)


def _normalise_ndarray(code: TypeCode, arr: np.ndarray, copy: bool) -> np.ndarray:
    """Vectorized validation of a numpy array field, in place.

    With *copy* the result is a *read-only private copy* taken directly
    in wire order, so later mutation by the caller cannot change the
    packet and encoding it is a plain block copy; without, *arr* itself
    (see ``Packet(..., copy=False)``).
    """
    if arr.ndim != 1:
        raise FormatError(f"array fields must be 1-D, got shape {arr.shape}")
    if code.is_integral:
        if arr.dtype.kind not in "iu":
            raise FormatError(
                f"expected integer array for {code}, got dtype {arr.dtype}"
            )
        lo, hi = code.bounds
        if arr.size and (int(arr.min()) < lo or int(arr.max()) > hi):
            raise FormatError(f"array values out of range for {code}")
    elif code.is_float:
        if arr.dtype.kind not in "iuf":
            raise FormatError(
                f"expected numeric array for {code}, got dtype {arr.dtype}"
            )
    else:
        raise FormatError(f"ndarray not supported for {code}")
    if not copy:
        return arr
    out = np.array(arr, dtype=_NP_DTYPE[code])
    out.setflags(write=False)
    return out


def _copy_readonly(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.setflags(write=False)
    return out


def _materialize(raw: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Convert any ndarray-backed fields to plain tuples."""
    if any(isinstance(v, np.ndarray) for v in raw):
        return tuple(
            tuple(v.tolist()) if isinstance(v, np.ndarray) else v for v in raw
        )
    return raw


class Packet:
    """One typed data packet.

    Parameters
    ----------
    stream_id:
        Id of the stream this packet travels on.
    tag:
        Application message tag.
    fmt:
        Format string or pre-parsed :class:`FormatString`.
    values:
        Field values matching *fmt*.
    origin_rank:
        Rank of the producing end-point (0 for the front-end).
    copy:
        ``False`` keeps ndarray values by reference (still validated):
        for send paths that encode the packet — the one copy, cast
        straight into the frame — before returning to the arrays' owner.
    """

    __slots__ = (
        "stream_id",
        "tag",
        "origin_rank",
        "_fmt",
        "_values",
        "_public",
        "_encoded",
        "_body",
    )

    def __init__(
        self,
        stream_id: int,
        tag: int,
        fmt: str | FormatString,
        values: Sequence[Any],
        origin_rank: int = 0,
        *,
        copy: bool = True,
    ):
        stream_id = int(stream_id)
        tag = int(tag)
        origin_rank = int(origin_rank)
        if not 0 <= stream_id < 2**32:
            raise ValueError(f"stream_id {stream_id} out of uint32 range")
        if not -(2**31) <= tag < 2**31:
            raise ValueError(f"tag {tag} out of int32 range")
        if not 0 <= origin_rank < 2**32:
            raise ValueError(f"origin_rank {origin_rank} out of uint32 range")
        self.stream_id = stream_id
        self.tag = tag
        self._fmt = fmt if isinstance(fmt, FormatString) else parse_format(fmt)
        self._values = _normalise(self._fmt.fields, values, copy)
        self._public = None
        self.origin_rank = origin_rank
        self._encoded: bytes | memoryview | None = None
        self._body: int | None = None

    # -- alternate constructors ------------------------------------------

    @classmethod
    def trusted(
        cls,
        stream_id: int,
        tag: int,
        fmt: FormatString | str,
        values: Sequence[Any],
        origin_rank: int = 0,
    ) -> "Packet":
        """Construct without value validation or normalisation.

        For values whose typing is already guaranteed: they were just
        decoded from the wire (the sender validated them), or computed
        by a built-in filter from decoded inputs.  ``values`` may
        contain read-only ndarrays for array fields; these stay
        vectorized until user code materialises :attr:`values`.
        """
        p = object.__new__(cls)
        p.stream_id = stream_id
        p.tag = tag
        p.origin_rank = origin_rank
        p._fmt = fmt if isinstance(fmt, FormatString) else parse_format(fmt)
        p._values = tuple(values)
        p._public = None
        p._encoded = None
        p._body = None
        return p

    @classmethod
    def lazy_from_wire(cls, frame: bytes | memoryview) -> "Packet":
        """Deferred decode: parse only the fixed header, keep the frame.

        The returned packet knows its ``stream_id``/``tag``/
        ``origin_rank`` (enough to demultiplex and route); ``fmt`` and
        ``values`` decode lazily on first access.  :meth:`to_bytes`
        returns *frame* byte-identically, so relay hops forward the
        inbound bytes without any decode/re-encode round trip.

        Raises :class:`PacketDecodeError` if *frame* is too short to
        hold a packet header; payload truncation is detected lazily,
        when (if ever) the values are first decoded.
        """
        try:
            stream_id, tag, origin = _HEADER.unpack_from(frame, 0)
        except struct.error as exc:
            raise PacketDecodeError(str(exc)) from exc
        p = object.__new__(cls)
        p.stream_id = stream_id
        p.tag = tag
        p.origin_rank = origin
        p._fmt = None
        p._values = None
        p._public = None
        p._encoded = frame if isinstance(frame, (bytes, memoryview)) else bytes(frame)
        p._body = None
        return p

    # -- lazy attributes --------------------------------------------------

    @property
    def fmt(self) -> FormatString:
        """The packet format (parsed from the wire frame on demand)."""
        if self._fmt is None:
            self._parse_wire_fmt()
        return self._fmt

    @property
    def values(self) -> Tuple[Any, ...]:
        """Field values as plain tuples (decoded/materialised on demand)."""
        public = self._public
        if public is None:
            raw = self._values
            if raw is None:
                raw = self._decode_values()
            public = self._public = _materialize(raw)
        return public

    @property
    def raw_values(self) -> Tuple[Any, ...]:
        """Field values without tuple materialisation.

        Array fields decoded from large wire frames (or produced by
        vectorized filters) appear as read-only 1-D ndarrays; everything
        else is the same objects :attr:`values` would contain.  Filters
        use this to reduce vectorized without paying for ``tolist``.
        """
        raw = self._values
        if raw is None:
            raw = self._decode_values()
        return raw

    @property
    def values_decoded(self) -> bool:
        """False while this is an undecoded lazy wire packet."""
        return self._values is not None

    def _parse_wire_fmt(self) -> None:
        view = self._encoded
        try:
            (fmt_len,) = _U32.unpack_from(view, _HEADER.size)
        except struct.error as exc:
            raise PacketDecodeError(str(exc)) from exc
        start = _HEADER.size + _U32.size
        raw = bytes(view[start : start + fmt_len])
        if len(raw) != fmt_len:
            raise PacketDecodeError("truncated format string")
        try:
            self._fmt = parse_format(raw.decode("utf-8"))
        except (UnicodeDecodeError, FormatError) as exc:
            raise PacketDecodeError(str(exc)) from exc
        self._body = start + fmt_len

    def _decode_values(self) -> Tuple[Any, ...]:
        fmt = self.fmt  # parses the wire fmt, setting _body
        view = self._encoded
        if isinstance(view, bytes):
            view = memoryview(view)
        offset = self._body
        values = []
        try:
            for spec in fmt.fields:
                value, offset = _decode_field(view, offset, spec)
                values.append(value)
        except (struct.error, UnicodeDecodeError) as exc:
            raise PacketDecodeError(str(exc)) from exc
        if offset != len(view):
            raise PacketDecodeError(
                f"{len(view) - offset} trailing bytes after packet"
            )
        self._values = tuple(values)
        return self._values

    # -- value access ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx: int) -> Any:
        return self.values[idx]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def unpack(self) -> Tuple[Any, ...]:
        """Return all field values as a tuple (scanf-style receive)."""
        return self.values

    def array(self, idx: int) -> np.ndarray:
        """Field *idx* as a (read-only) 1-D ndarray, without tuple cost.

        Only valid for numeric array fields; the cheap path when the
        packet was decoded from a large wire frame (the ndarray is a
        view over the frame), a conversion otherwise.
        """
        spec = self.fmt.fields[idx]
        if not spec.is_array or spec.code is TypeCode.STRING:
            raise FormatError(f"field {idx} ({spec.spec}) is not a numeric array")
        value = self.raw_values[idx]
        if isinstance(value, np.ndarray):
            return value
        arr = np.asarray(value, dtype=NATIVE_DTYPE[spec.code])
        arr.setflags(write=False)
        return arr

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return (
            self.stream_id == other.stream_id
            and self.tag == other.tag
            and self.fmt == other.fmt
            and self.values == other.values
            and self.origin_rank == other.origin_rank
        )

    def __hash__(self) -> int:
        return hash((self.stream_id, self.tag, self.fmt, self.values, self.origin_rank))

    def __repr__(self) -> str:
        if self._values is None and self._public is None:
            return (
                f"Packet(stream={self.stream_id}, tag={self.tag}, "
                f"<undecoded {len(self._encoded)}B frame>, "
                f"origin={self.origin_rank})"
            )
        vals = ", ".join(repr(v) for v in self.values[:4])
        if len(self.values) > 4:
            vals += ", ..."
        return (
            f"Packet(stream={self.stream_id}, tag={self.tag}, "
            f"fmt={self.fmt.canonical!r}, values=({vals}), "
            f"origin={self.origin_rank})"
        )

    def replace(self, **kwargs) -> "Packet":
        """Return a copy with some attributes replaced.

        Filters use this to re-stamp aggregated packets (e.g. new
        values, same stream) without mutating shared inputs.
        """
        return Packet(
            kwargs.get("stream_id", self.stream_id),
            kwargs.get("tag", self.tag),
            kwargs.get("fmt", self.fmt),
            kwargs.get("values", self.values),
            kwargs.get("origin_rank", self.origin_rank),
        )

    # -- codec -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The packed wire representation as ``bytes`` (cached).

        :meth:`encoded_view` plus, for a frame held as a view, the one
        copy a caller who insists on ``bytes`` pays.  For a packet built
        by :meth:`lazy_from_wire` this is the original inbound frame
        byte-identically — even if its format text was non-canonical —
        so a relayed packet is bit-exact.
        """
        enc = self.encoded_view()
        if not isinstance(enc, bytes):
            enc = self._encoded = bytes(enc)
        return enc

    def materialize(self) -> "Packet":
        """Ensure this packet owns every byte it references (in place).

        The zero-copy shm receive path delivers frames as
        ``memoryview`` slices aliasing the ring directly; once the read
        is committed the producer may overwrite those bytes.  Any
        packet that *parks* — output batching buffers, synchronization
        queues, chunk reassembly — calls this first.  A *writable*
        view is such a borrowed frame (links hand frames they allocated
        over as ``bytes`` or read-only views: owned): it is copied to
        ``bytes`` (decoded caches over the old buffer are dropped to
        re-decode lazily), and so are decoded/computed array values
        whose root exporter somebody else may write.
        Packets that are consumed before parking never pay the copy —
        that is the elision the ``shm_frames_zero_copy`` counter counts.
        Returns ``self`` for call-site convenience.
        """
        enc = self._encoded
        if isinstance(enc, memoryview) and not enc.readonly:
            self._encoded = bytes(enc)
            # Decoded ndarray fields were frombuffer views over the old
            # frame; forget them so access re-decodes from the copy.
            self._values = None
            self._public = None
            return self
        values = self._values
        if values is not None and any(
            isinstance(v, np.ndarray) and not _owns_buffer(v) for v in values
        ):
            self._values = tuple(
                _copy_readonly(v)
                if isinstance(v, np.ndarray) and not _owns_buffer(v)
                else v
                for v in values
            )
        return self

    def encoded_view(self) -> bytes | memoryview:
        """The wire frame, encoded once and cached, never copied.

        ``bytes``, or a ``memoryview`` for an undecoded wire packet
        (its slice of the inbound message: the zero-copy relay path)
        and for a packet with ndarray fields (a read-only view of the
        frame they were cast into).  Inside a process packets travel by
        reference, so one fanned out to many children is serialized
        once (§2.3).
        """
        enc = self._encoded
        if enc is None:
            fmt = self.fmt
            fmt_bytes = fmt.canonical_bytes
            scalar_struct = fmt.scalar_struct
            if scalar_struct is not None:
                # All-fixed-scalar format: one precompiled pack of the
                # whole value tuple instead of the per-field loop.
                enc = self._encoded = b"".join(
                    (
                        _HEADER.pack(self.stream_id, self.tag, self.origin_rank),
                        _U32.pack(len(fmt_bytes)),
                        fmt_bytes,
                        scalar_struct.pack(*self._values),
                    )
                )
                return enc
            parts = [
                _HEADER.pack(self.stream_id, self.tag, self.origin_rank),
                _U32.pack(len(fmt_bytes)),
                fmt_bytes,
            ]
            for spec, value in zip(fmt.fields, self._values):
                _encode_field(parts, spec, value)
            enc = self._encoded = _join_frame(parts)
        return enc

    @property
    def nbytes(self) -> int:
        """Encoded size in bytes (never decodes a lazy packet)."""
        enc = self._encoded
        if enc is not None:
            return len(enc)
        return len(self.encoded_view())

    @classmethod
    def from_bytes(cls, data: bytes | memoryview) -> "Packet":
        """Decode a packet from its wire representation (eagerly)."""
        packet, offset = cls.decode_from(data, 0)
        if offset != len(data):
            raise PacketDecodeError(
                f"{len(data) - offset} trailing bytes after packet"
            )
        return packet

    @classmethod
    def decode_from(
        cls, data: bytes | memoryview, offset: int, *, trusted: bool = True
    ) -> Tuple["Packet", int]:
        """Decode one packet starting at *offset*; return (packet, end).

        With ``trusted=True`` (the default) the decoded values skip
        re-validation: they came off the wire, where only well-typed
        values can be represented, so the per-element ``_check_scalar``
        pass is pure overhead.  ``trusted=False`` restores the
        validating constructor for frames from untrusted producers.
        """
        view = memoryview(data)
        try:
            stream_id, tag, origin = _HEADER.unpack_from(view, offset)
            offset += _HEADER.size
            (fmt_len,) = _U32.unpack_from(view, offset)
            offset += _U32.size
            fmt_text = bytes(view[offset : offset + fmt_len]).decode("utf-8")
            if len(fmt_text.encode("utf-8")) != fmt_len:
                raise PacketDecodeError("truncated format string")
            offset += fmt_len
            fmt = parse_format(fmt_text)
            values = []
            for spec in fmt.fields:
                value, offset = _decode_field(view, offset, spec)
                values.append(value)
        except (struct.error, UnicodeDecodeError, FormatError) as exc:
            raise PacketDecodeError(str(exc)) from exc
        if trusted:
            return cls.trusted(stream_id, tag, fmt, values, origin), offset
        return cls(stream_id, tag, fmt, _materialize(tuple(values)), origin), offset


def _join_frame(parts: list) -> bytes | memoryview:
    """Concatenate *parts*: ``bytes``, or ``(wire dtype, values)`` pairs
    written into the frame with one casting assignment each."""
    if not any(type(part) is tuple for part in parts):
        return b"".join(parts)
    sizes = [
        len(p[1]) * p[0].itemsize if type(p) is tuple else len(p) for p in parts
    ]
    # np.empty: bytearray(n) would zero-fill first.
    frame = memoryview(np.empty(sum(sizes), np.uint8))
    offset = 0
    for part, size in zip(parts, sizes):
        if type(part) is tuple:
            np.frombuffer(frame, part[0], len(part[1]), offset)[:] = part[1]
        else:
            frame[offset : offset + size] = part
        offset += size
    return frame.toreadonly()


def _encode_field(parts: list, spec: FieldSpec, value: Any) -> None:
    code = spec.code
    if spec.is_array:
        if code is TypeCode.STRING:
            parts.append(_U32.pack(len(value)))
            for s in value:
                raw = s.encode("utf-8")
                parts.append(_U32.pack(len(raw)))
                parts.append(raw)
        else:
            parts.append(_U32.pack(len(value)))
            if isinstance(value, np.ndarray) or len(value) > _NUMPY_THRESHOLD:
                # Vectorized encode: _join_frame casts the elements to
                # wire order straight into the frame.
                parts.append((_NP_DTYPE[code], value))
            elif len(value):
                parts.append(
                    struct.pack(f">{len(value)}{code.struct_char}", *value)
                )
        return
    if code is TypeCode.STRING:
        raw = value.encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    elif code is TypeCode.BYTES:
        parts.append(_U32.pack(len(value)))
        parts.append(value)
    else:
        parts.append(struct.pack(f">{code.struct_char}", value))


def _decode_field(view: memoryview, offset: int, spec: FieldSpec):
    code = spec.code
    if spec.is_array:
        (count,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        if code is TypeCode.STRING:
            items = []
            for _ in range(count):
                (slen,) = _U32.unpack_from(view, offset)
                offset += _U32.size
                raw = bytes(view[offset : offset + slen])
                if len(raw) != slen:
                    raise PacketDecodeError("truncated string element")
                items.append(raw.decode("utf-8"))
                offset += slen
            return tuple(items), offset
        fmt = f">{count}{code.struct_char}"
        size = struct.calcsize(fmt)
        if offset + size > len(view):
            raise PacketDecodeError("truncated array field")
        if count > _NUMPY_THRESHOLD:
            # Zero-copy: a read-only big-endian view over the wire
            # buffer.  Stays an ndarray through vectorized filters;
            # Packet.values materialises a tuple only if user code
            # asks for one.
            arr = np.frombuffer(view, dtype=_NP_DTYPE[code], count=count,
                                offset=offset)
            if arr.flags.writeable:  # e.g. the buffer is a bytearray
                arr.setflags(write=False)
            return arr, offset + size
        values = struct.unpack_from(fmt, view, offset)
        return tuple(values), offset + size
    if code is TypeCode.STRING:
        (slen,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        raw = bytes(view[offset : offset + slen])
        if len(raw) != slen:
            raise PacketDecodeError("truncated string field")
        return raw.decode("utf-8"), offset + slen
    if code is TypeCode.BYTES:
        (blen,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        raw = bytes(view[offset : offset + blen])
        if len(raw) != blen:
            raise PacketDecodeError("truncated bytes field")
        return raw, offset + blen
    fmt = f">{code.struct_char}"
    size = struct.calcsize(fmt)
    if offset + size > len(view):
        raise PacketDecodeError("truncated scalar field")
    (value,) = struct.unpack_from(fmt, view, offset)
    return value, offset + size
