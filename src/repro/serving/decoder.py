"""Decoder stage: fetched extents to :class:`CachedCluster` entries.

Splits a cluster's contiguous read extent into the serialized sub-HNSW
blob and the group's overflow area, deserializes both, and charges the
simulated CPU cost of doing so.  Owns the simulation-only decode
memoization and the per-request deserialize-cost accumulator the
executors drain.
"""

from __future__ import annotations

import dataclasses
import struct

from repro.core.cache import CachedCluster
from repro.errors import LayoutError, StaleReadError
from repro.layout.group_layout import (
    OVERFLOW_TAIL_BYTES,
    decode_overflow_tail,
    overflow_area_size,
)
from repro.layout.serializer import (
    deserialize_cluster,
    unpack_overflow_records,
)

__all__ = ["Decoder"]

_U64 = struct.Struct("<Q")


class Decoder:
    """Deserializes fetched extents, memoizing by content identity."""

    def __init__(self, host) -> None:
        self.host = host
        # Simulation-only memoization of blob decoding, keyed by
        # (cluster, metadata version, overflow tail).  The *simulated*
        # deserialization cost is charged on every fetch regardless; this
        # just keeps the simulator's wall-clock time proportional to
        # unique blobs rather than total fetches.
        self._decode_cache: dict[tuple[int, int, int], CachedCluster] = {}
        #: Simulated µs of deserialization accumulated since last drained
        #: (the executors decide which latency bucket it lands in).
        self.pending_deserialize_us = 0.0

    def drain_deserialize_us(self) -> float:
        """Return and reset the accumulated deserialization cost."""
        pending = self.pending_deserialize_us
        self.pending_deserialize_us = 0.0
        return pending

    def drop_memo(self) -> None:
        """Forget memoized decodes (no simulated-cost effect).

        Memoized entries hold zero-copy views over remote region memory;
        drop them when that memory is damaged or rewritten in place
        (chaos harness, replica repair) so stale bytes cannot resurface
        through the memo.
        """
        self._decode_cache.clear()

    def decode_extent(self, cluster_id: int, extent_offset: int,
                      payload: "bytes | memoryview") -> CachedCluster:
        """Deserialize a fetched extent, charging the simulated CPU cost.

        Decoding is memoized on (cluster, version, overflow tail) purely to
        keep simulator wall-clock bounded; the simulated cost is charged on
        every call, since a real compute instance re-parses every fetch.
        """
        host = self.host
        self.pending_deserialize_us += host.cost_model.deserialize_us(
            len(payload))
        cluster = host.metadata.clusters[cluster_id]
        group = host.metadata.groups[cluster.group_id]
        area = payload[group.overflow_offset - extent_offset:]
        (raw_tail,) = _U64.unpack_from(area, 0)
        count, sealed = decode_overflow_tail(raw_tail,
                                             group.capacity_records)
        if sealed:
            # A cutover sealed this extent between our metadata refresh
            # and the READ; the group has moved.  Surface a retryable
            # error instead of decoding against retired offsets.
            raise StaleReadError(
                f"extent of cluster {cluster_id} sealed by a concurrent "
                f"rebuild cutover; refresh metadata and re-plan",
                op="READ")
        key = (cluster_id, host.metadata.version, count)
        memoized = self._decode_cache.get(key)
        if memoized is None:
            memoized = self.parse_extent(cluster_id, extent_offset, payload)
            if len(self._decode_cache) > 2 * max(
                    64, host.metadata.num_clusters):
                self._decode_cache.clear()
            self._decode_cache[key] = memoized
        # Hand out a private copy of the mutable parts so cache-side
        # overflow refreshes never alias the memoized entry.
        return dataclasses.replace(memoized, overflow=list(memoized.overflow))

    def parse_extent(self, cluster_id: int, extent_offset: int,
                     payload: "bytes | memoryview") -> CachedCluster:
        """Split a fetched extent into blob + overflow and deserialize.

        Zero-copy: a ``memoryview`` payload is sliced, never materialized
        — the decoded index's vector store is a frozen NumPy view over
        the payload's memory (see :func:`deserialize_cluster`).
        """
        host = self.host
        cluster = host.metadata.clusters[cluster_id]
        group = host.metadata.groups[cluster.group_id]
        blob_start = cluster.blob_offset - extent_offset
        blob = payload[blob_start:blob_start + cluster.blob_length]
        index, parsed_cid = deserialize_cluster(blob, host.config.sub_params)
        if parsed_cid != cluster_id:
            raise LayoutError(
                f"extent for cluster {cluster_id} contained blob of "
                f"cluster {parsed_cid} — stale offsets?")
        overflow_start = group.overflow_offset - extent_offset
        area = payload[overflow_start:
                       overflow_start + overflow_area_size(
                           host.metadata.dim, group.capacity_records)]
        (raw_tail,) = _U64.unpack_from(area, 0)
        count, sealed = decode_overflow_tail(raw_tail,
                                             group.capacity_records)
        if sealed:
            raise StaleReadError(
                f"extent of cluster {cluster_id} sealed by a concurrent "
                f"rebuild cutover; refresh metadata and re-plan",
                op="READ")
        records = unpack_overflow_records(
            area[OVERFLOW_TAIL_BYTES:], host.metadata.dim, count)
        own = [record for record in records
               if record.cluster_id == cluster_id]
        return CachedCluster(cluster_id=cluster_id, index=index,
                             overflow=own, overflow_tail=count,
                             metadata_version=host.metadata.version,
                             nbytes=len(payload))
