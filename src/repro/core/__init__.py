"""Core MRNet machinery: packets, streams, comm nodes, the Network API."""

from .backend import BackEnd, BackEndStream, NetworkShutdown
from .batching import PacketBuffer, decode_batch, encode_batch
from .commnode import CommNode, NodeCore, NodeHost
from .communicator import Communicator
from .failure import (
    DEGRADE,
    FAIL_FAST,
    REPAIR,
    InstantiationError,
    RanksChanged,
    RecoveryCoordinator,
)
from .formats import FormatError, FormatString, TypeCode, parse_format
from .network import Network, NetworkDownError, NetworkError
from .packet import Packet, PacketDecodeError
from .protocol import (
    CONTROL_STREAM_ID,
    FIRST_APP_TAG,
    FIRST_STREAM_ID,
    TAG_CLOSE_STREAM,
    TAG_ENDPOINT_REPORT,
    TAG_HEARTBEAT,
    TAG_RANKS_CHANGED,
    TAG_SHUTDOWN,
)
from .routing import RoutingTable
from .stream import Stream, StreamClosed
from .stream_manager import StreamManager

__all__ = [
    "Packet",
    "PacketDecodeError",
    "FormatString",
    "FormatError",
    "TypeCode",
    "parse_format",
    "PacketBuffer",
    "encode_batch",
    "decode_batch",
    "Network",
    "NetworkError",
    "NetworkDownError",
    "FAIL_FAST",
    "DEGRADE",
    "REPAIR",
    "InstantiationError",
    "RanksChanged",
    "RecoveryCoordinator",
    "Communicator",
    "Stream",
    "StreamClosed",
    "BackEnd",
    "BackEndStream",
    "NetworkShutdown",
    "CommNode",
    "NodeHost",
    "NodeCore",
    "StreamManager",
    "RoutingTable",
    "CONTROL_STREAM_ID",
    "FIRST_STREAM_ID",
    "FIRST_APP_TAG",
    "TAG_ENDPOINT_REPORT",
    "TAG_CLOSE_STREAM",
    "TAG_SHUTDOWN",
    "TAG_HEARTBEAT",
    "TAG_RANKS_CHANGED",
]
