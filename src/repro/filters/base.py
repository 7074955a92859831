"""Filter framework core (paper §2.4).

MRNet distinguishes two filter kinds:

* **Synchronization filters** organise asynchronously-arriving packets
  from a node's children into *waves*.  They are type-independent and
  perform no data transformation.
* **Transformation filters** consume a wave of packets and emit one or
  more output packets; they are bound to a packet format and may carry
  state between invocations ("using static storage structures").

The paper's C++ filter functions have the signature::

   void filter_func(std::vector<Packet*>& in,
                    std::vector<Packet*>& out,
                    void** clientData);

We express the same contract in Python: a *filter function* is any
callable ``f(packets: Sequence[Packet], state: FilterState) ->
list[Packet]``.  ``state`` plays the role of ``clientData`` — a
per-stream, per-node mutable mapping that persists across waves.
:class:`TransformationFilter` wraps a filter function together with its
format requirement; :func:`make_filter` adapts plain callables.
"""

from __future__ import annotations

from typing import Callable, List, MutableMapping, Optional, Protocol, Sequence

from ..core.formats import FormatString, parse_format
from ..core.packet import Packet

__all__ = [
    "FilterState",
    "FilterError",
    "FilterFunc",
    "TransformationFilter",
    "FunctionFilter",
    "make_filter",
]


class FilterError(RuntimeError):
    """Raised when a filter is misused (e.g. format mismatch)."""


class FilterState(dict, MutableMapping):
    """Per-stream, per-node filter state (the paper's ``clientData``).

    A plain dict subclass: distinct class so signatures read clearly
    and so tests can assert state objects are not shared across nodes.
    """


FilterFunc = Callable[[Sequence[Packet], FilterState], List[Packet]]


class TransformationFilter(Protocol):
    """Structural interface every transformation filter satisfies.

    Attributes
    ----------
    name:
        Human-readable filter name (unique within a registry).
    fmt:
        Required packet format, or ``None`` for format-agnostic
        filters (e.g. the null filter).
    """

    name: str
    fmt: Optional[FormatString]

    def make_state(self) -> FilterState:
        """Create fresh per-stream state for one node."""
        ...

    def __call__(
        self, packets: Sequence[Packet], state: FilterState
    ) -> List[Packet]:
        """Transform one wave of input packets into output packets."""
        ...


class FunctionFilter:
    """Adapter turning a plain filter function into a filter object.

    ``chunkwise`` marks filters whose reduction commutes with slicing
    the wave's array payload: running the filter once per aligned chunk
    (one fragment from every child) and concatenating the outputs
    equals running it once on the whole wave.  Element-wise reductions
    (min/max/sum/avg) qualify — chunks partition the element index
    space, so the cross-child reduction of each element range is final.
    Filters that mix elements across positions (concat, scan, window)
    or emit more than one packet per wave (null) do not; their chunked
    waves are reassembled before the filter runs.  Chunkwise filters
    are what :class:`~repro.core.stream_manager.StreamManager` runs
    *incrementally per chunk*, giving pipelined waves.
    """

    #: Default: reassemble chunked waves before running this filter.
    chunkwise: bool = False

    def __init__(
        self,
        func: FilterFunc,
        name: str,
        fmt: str | FormatString | None = None,
        state_factory: Callable[[], FilterState] = FilterState,
    ):
        self._func = func
        self.name = name
        self.fmt = (
            fmt
            if isinstance(fmt, FormatString) or fmt is None
            else parse_format(fmt)
        )
        self._state_factory = state_factory

    def make_state(self) -> FilterState:
        return self._state_factory()

    def check_packet(self, packet: Packet) -> None:
        """Enforce the paper's type requirement for transformation filters.

        "the data format string of the stream's packets and the filter
        must be the same" (§2.4).
        """
        if self.fmt is not None and packet.fmt != self.fmt:
            raise FilterError(
                f"filter {self.name!r} requires format "
                f"{self.fmt.canonical!r} but packet has "
                f"{packet.fmt.canonical!r}"
            )

    def __call__(
        self, packets: Sequence[Packet], state: FilterState
    ) -> List[Packet]:
        for packet in packets:
            self.check_packet(packet)
        out = self._func(packets, state)
        if out is None:
            return []
        return list(out)

    def __repr__(self) -> str:
        fmt = self.fmt.canonical if self.fmt is not None else "*"
        return f"<Filter {self.name} fmt={fmt!r}>"


def make_filter(
    func: FilterFunc,
    name: str | None = None,
    fmt: str | FormatString | None = None,
) -> FunctionFilter:
    """Wrap *func* as a :class:`FunctionFilter`.

    ``name`` defaults to the function's ``__name__``; ``fmt`` of
    ``None`` means the filter accepts packets of any format.
    """
    return FunctionFilter(func, name or func.__name__, fmt)


def null_filter(packets: Sequence[Packet], state: FilterState) -> List[Packet]:
    """Identity transformation: pass every packet through unchanged."""
    return list(packets)


NULL_FILTER = FunctionFilter(null_filter, "null", None)
