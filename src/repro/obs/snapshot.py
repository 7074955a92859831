"""Serialization for the ``STATS_SNAPSHOT`` pull path.

The front-end gathers live metrics by broadcasting a
``TAG_STATS_REQUEST`` control packet down the tree; every internal
node answers with a ``TAG_STATS_REPLY`` whose string payload is the
JSON produced here.  Each hop relays replies toward the root on the
ordinary upstream control path, so the gather dogfoods the same
packet buffers and links that carry tool data.

The payload is deliberately tiny and versioned:

.. code-block:: json

    {
      "schema": "mrnet.stats/3",
      "node": "3:leaf-1",
      "rank": 3,
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
    }

``metrics`` is exactly :meth:`repro.obs.metrics.MetricsRegistry.snapshot`
— the wire format *is* the in-memory snapshot, so no translation layer
exists to drift.
"""

from __future__ import annotations

import json
from typing import Mapping, Optional

__all__ = ["STATS_SCHEMA", "dumps_snapshot", "loads_snapshot"]

#: Version marker carried in every STATS_REPLY payload.  Bump the
#: suffix when the snapshot shape changes incompatibly; readers reject
#: unknown schemas rather than mis-parse them.  ``/2`` added the
#: chunked-pipeline instruments (``chunks_in_flight``, ``chunk_bytes``,
#: ``chunk_waves_aborted``, ``shm_frames_zero_copy``); ``/3`` adds the
#: elastic-membership and crash-consistency counters
#: (``waves_recovered``, ``chunks_retransmitted``, ``members_joined``,
#: ``members_left``, ``checkpoint_bytes``).  Both bumps are additive,
#: so older payloads still load.
STATS_SCHEMA = "mrnet.stats/3"

#: Schemas this reader accepts: the current one plus older versions
#: whose shape is a strict subset of it.  ``/1`` acceptance (deprecated
#: in PR 4) was dropped one release later, as promised.
_ACCEPTED_SCHEMAS = ("mrnet.stats/2", "mrnet.stats/3")


def dumps_snapshot(node: str, rank: int, metrics: Mapping) -> str:
    """Encode one node's registry snapshot as a STATS_REPLY payload."""
    return json.dumps(
        {
            "schema": STATS_SCHEMA,
            "node": node,
            "rank": rank,
            "metrics": metrics,
        },
        separators=(",", ":"),
    )


def loads_snapshot(payload: str) -> Optional[dict]:
    """Decode a STATS_REPLY payload.

    Returns ``None`` (rather than raising) for payloads that are not
    valid JSON or carry an unknown schema — a gather should tolerate a
    mixed-version tree by skipping what it cannot read.
    """
    try:
        doc = json.loads(payload)
    except (ValueError, TypeError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") not in _ACCEPTED_SCHEMAS:
        return None
    if "node" not in doc or "metrics" not in doc:
        return None
    return doc
