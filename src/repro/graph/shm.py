"""Shared-memory broadcast of distance rows and array bundles across processes.

A parallel Monte Carlo campaign on a fixed topology recomputes the same
distance rows in every worker.  :class:`RowsBroadcast` exports the
materialized rows of a :class:`~repro.graph.backends.LazyRowBackend` once
into a ``multiprocessing.shared_memory`` segment and lets workers *map*
them: the pool initializer attaches the segment by name and registers the
resulting :class:`~repro.graph.backends.RowStore` in a process-local
registry keyed by a topology fingerprint (:func:`graph_signature`).
``SolverContext.from_problem`` consults the registry, so any solver running
inside a worker transparently starts from the broadcast rows — and the
per-task pickle payload stays O(1) in the row block (only the segment
*name* and node labels cross the process boundary, once per pool, via the
initializer).  :class:`BundleBroadcast` is the generic carrier underneath:
any named set of numpy arrays in one segment (the serving engine ships its
alias tables with it).

Lifecycle and cleanup rules (also documented in DESIGN.md):

- the *owner* (the process that created the broadcast) is the only one
  that unlinks the segment; it must call ``close()`` in a ``finally``
  block so the segment never outlives the campaign, even when the pool
  breaks (``BrokenProcessPool``) or a worker is abandoned on timeout —
  POSIX keeps the mapping alive for attached processes after unlink, so
  early unlink is safe;
- workers attach read-only and *never* unlink; on Python 3.11 the
  ``SharedMemory`` constructor has no ``track`` parameter, so
  :func:`attach_bundle` explicitly unregisters the segment from the
  ``resource_tracker`` to keep a worker's exit from destroying the segment
  under the other workers;
- registry lookups are free when nothing is registered (the signature is
  only computed once a broadcast exists), so the serial path pays nothing.

Reuse is sound because the fingerprint pins everything a distance row
depends on: the node *order* (row/column layout follows graph insertion
order), the edge set, and the exact link costs (``float.hex``).  Campaigns
whose scenario builder re-draws link costs per seed simply never match the
signature and fall back to local rows — correct, just not accelerated.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Hashable
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import networkx as nx
import numpy as np

from repro.graph.network import COST

Node = Hashable

__all__ = [
    "graph_signature",
    "ArraySpec",
    "BundleHandle",
    "BundleBroadcast",
    "attach_bundle",
    "SharedRowsHandle",
    "RowsBroadcast",
    "attach_rows",
    "attach_and_register_rows",
    "register_rows",
    "unregister_rows",
    "lookup_rows",
]


def graph_signature(graph: nx.DiGraph, *, weight: str = COST) -> str:
    """Deterministic fingerprint of (node order, edges, exact link costs).

    Two graphs share a signature only if they produce bit-identical
    distance rows: node iteration order fixes the row/column layout and
    ``float.hex`` pins the costs exactly.  (Edge insertion order is also
    hashed — distances do not depend on it, so this is conservative: a
    reordered but equal graph misses the reuse, never the correctness.)
    """
    h = hashlib.blake2b(digest_size=16)
    for v in graph.nodes:
        h.update(repr(v).encode())
        h.update(b"\x00")
    h.update(b"\x01")
    for u, v, data in graph.edges(data=True):
        w = float(data.get(weight, 1.0))
        h.update(repr(u).encode())
        h.update(b"\x00")
        h.update(repr(v).encode())
        h.update(b"\x00")
        h.update(w.hex().encode())
        h.update(b"\x00")
    return h.hexdigest()


# ----------------------------------------------------------------------
# Generic array-bundle broadcast
# ----------------------------------------------------------------------
#
# ``BundleBroadcast`` packs any named collection of numpy arrays into a
# single segment; ``attach_bundle`` maps them back as read-only views.  The
# row-store broadcast below and the serving engine (``repro.serving``: alias
# tables, path CSR layouts, rate vectors) both ride on it.

#: Keeps attached segments referenced so their buffers outlive the arrays.
_ATTACHED: list[shared_memory.SharedMemory] = []

#: Segment layout alignment; keeps every array's view aligned for any dtype.
_ALIGN = 64


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one array inside a bundle segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    offset: int


@dataclass(frozen=True)
class BundleHandle:
    """Picklable description of an exported array bundle.

    O(#arrays) to pickle, independent of the array payloads; crosses the
    process boundary once per pool via the initializer.
    """

    shm_name: str
    specs: tuple[ArraySpec, ...]
    #: PID of the exporting process — the only one allowed to unlink.
    owner_pid: int = field(default_factory=os.getpid)


class BundleBroadcast:
    """Owner side of one exported array bundle.

    Copies every array of ``arrays`` into a fresh shared-memory segment
    (64-byte aligned so any dtype maps cleanly).  The owner must call
    :meth:`close` (idempotent) when done — it closes the local mapping and
    unlinks the segment.
    """

    def __init__(self, arrays: "dict[str, np.ndarray]") -> None:
        specs: list[ArraySpec] = []
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = -(-offset // _ALIGN) * _ALIGN  # round up
            specs.append(
                ArraySpec(
                    name=name,
                    shape=tuple(arr.shape),
                    dtype=arr.dtype.str,
                    offset=offset,
                )
            )
            offset += int(arr.nbytes)
        self._shm: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            create=True, size=max(1, offset)
        )
        for spec, arr in zip(specs, arrays.values()):
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=self._shm.buf,
                offset=spec.offset,
            )
            view[...] = np.ascontiguousarray(arr)
        self.handle = BundleHandle(shm_name=self._shm.name, specs=tuple(specs))

    def close(self) -> None:
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass

    def __enter__(self) -> "BundleBroadcast":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Row-store broadcast (see repro.graph.backends)
# ----------------------------------------------------------------------
#
# ``RowsBroadcast`` ships the *materialized* rows of a ``LazyRowBackend``
# (cache nodes, pinned holders, requesters: the rows any solver actually
# consults) as one ``BundleBroadcast`` segment, plus the row-id map.  Workers
# attach the block read-only and build their own ``LazyRowBackend`` on top
# of it: preloaded rows are zero-copy views into the segment, and a row
# outside the store falls back to a local Dijkstra.


@dataclass(frozen=True)
class SharedRowsHandle:
    """Picklable description of an exported row store.

    O(#rows + |V|) to pickle (bundle specs + node labels), independent of
    the O(#rows · |V|) block payload.
    """

    bundle: BundleHandle
    nodes: tuple[Node, ...]
    signature: str


class RowsBroadcast:
    """Owner side of one exported lazy-row store.

    ``store`` is a :class:`repro.graph.backends.RowStore` (typically
    ``backend.row_store()``).  The owner must call :meth:`close`
    (idempotent) when the campaign ends.
    """

    def __init__(self, store, nodes: tuple[Node, ...], signature: str) -> None:
        self._bundle: BundleBroadcast | None = BundleBroadcast(
            {"row_ids": store.row_ids, "rows": store.block}
        )
        self.handle = SharedRowsHandle(
            bundle=self._bundle.handle, nodes=nodes, signature=signature
        )

    def close(self) -> None:
        bundle, self._bundle = self._bundle, None
        if bundle is not None:
            bundle.close()

    def __enter__(self) -> "RowsBroadcast":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Registered row stores keyed by graph signature (process-local).
_ROW_REGISTRY: dict[str, object] = {}


def register_rows(signature: str, store) -> None:
    """Offer a :class:`~repro.graph.backends.RowStore` for in-process reuse."""
    _ROW_REGISTRY[signature] = store


def unregister_rows(signature: str) -> None:
    _ROW_REGISTRY.pop(signature, None)


def lookup_rows(graph: nx.DiGraph):
    """Registered row store for ``graph``, or ``None``.

    Free when nothing is registered — the signature is only computed while
    a broadcast is actually live.
    """
    if not _ROW_REGISTRY:
        return None
    return _ROW_REGISTRY.get(graph_signature(graph))


def attach_rows(handle: SharedRowsHandle):
    """Map an exported row store into this process (read-only views)."""
    from repro.graph.backends import RowStore

    arrays = attach_bundle(handle.bundle)
    return RowStore(arrays["row_ids"], arrays["rows"])


def attach_and_register_rows(handle: SharedRowsHandle) -> None:
    """Pool-initializer entry point: attach the store and register it."""
    register_rows(handle.signature, attach_rows(handle))


def attach_bundle(handle: BundleHandle) -> "dict[str, np.ndarray]":
    """Map an exported bundle into this process as read-only arrays.

    A worker (non-owner) unregisters the segment from the
    ``resource_tracker`` (Python 3.11 has no ``track=False``) so its exit
    cannot unlink the owner's segment; in the owner's own process the
    tracker entry is left for ``close()`` to consume.  The mapping is kept
    alive for the process lifetime via the module-level reference list.
    """
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    if os.getpid() != handle.owner_pid:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    _ATTACHED.append(shm)
    out: dict[str, np.ndarray] = {}
    for spec in handle.specs:
        arr = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=shm.buf,
            offset=spec.offset,
        )
        arr.setflags(write=False)
        out[spec.name] = arr
    return out
