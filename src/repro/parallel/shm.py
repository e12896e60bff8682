"""Zero-copy shared-memory shipment of the factory substrate.

PR 3 measured the sharded path's dominant overhead on shipment: every shard
re-pickles its :class:`~repro.core.greca.GrecaIndexFactory`, and the dense
float64 arrays inside (the ``(members × items)`` apref matrix, the columnar
tie-break ranking, the item-id column) dominate that payload.  This module
deletes the copy: the large arrays are placed in
:mod:`multiprocessing.shared_memory` segments *once per environment*, and
shards ship only :class:`SharedArraySpec` descriptors — ``(segment_name,
shape, dtype, offset)`` tuples a few hundred bytes long — which workers
reattach zero-copy.

Three layers:

* :class:`SharedArraySpec` + :func:`attach_array` — a picklable descriptor
  of one ndarray inside a segment, and the worker-side reattachment (a
  read-only ``np.frombuffer`` view over the mapped segment, no copy).
* :class:`SharedArrayRegistry` — the context-managed owner of every segment
  a parent process creates.  ``export(factory)`` packs a factory's substrate
  arrays into one segment (memoised per factory, so repeated dispatches of
  the same memoised factory ship the *same* segment) and returns the
  picklable :class:`ShmFactoryHandle`.  ``close()`` — reached via ``with``,
  an explicit call, or the ``weakref.finalize`` backstop at garbage
  collection / interpreter exit — unlinks every segment, so ``/dev/shm``
  entries cannot outlive the registry even when a worker raised or the run
  was interrupted.  (POSIX semantics: workers that already mapped a segment
  keep their mapping after the unlink; only *new* attaches fail.)
* :class:`ShmFactoryHandle` + :func:`materialise_factory` — the worker side.
  ``materialise_factory`` rebuilds a :class:`GrecaIndexFactory` around the
  attached arrays through :meth:`GrecaIndexFactory.from_columns` — sharing
  the mapped matrix, never copying it — and memoises the result per process,
  so a persistent worker pool re-serves every later shard of the same
  factory from its warm cache (including the factory's own memo of
  column-sliced substrates).
* :class:`ShmAffinityHandle` + :func:`materialise_affinity` — the same
  treatment for the per-(group, period) affinity inputs: one
  :class:`~repro.core.affinity.AffinityColumns` set per (group, affinity
  model) covers the full timeline, tasks reference a period prefix, and the
  dictionaries that used to pickle into every task become three descriptors.

All worker-side memos (factories, affinity columns, and the finished
indexes of :func:`cached_index`/:func:`store_index`) are LRU-bounded —
``FACTORY_CACHE_MAX`` / ``AFFINITY_CACHE_MAX`` / ``INDEX_CACHE_MAX`` — so
arbitrarily long sweeps on a warm persistent pool hold worker memory flat;
eviction is transparent (the next use reattaches zero-copy).

Bit-identity: the shared matrix holds the exact bytes of the parent's
matrix, the tie-break ranking ships alongside it, and ``max_apref`` ships
resolved — so a materialised factory builds indexes bit-identical to the
pickled factory (enforced by ``tests/test_parallel_equivalence.py``'s shm
axes).

Sizing caveat: segments live in ``/dev/shm`` (a tmpfs typically capped at
half the host's RAM, and at 64 MB in a default Docker container).  The
registry keeps one float64 copy of each exported substrate for the lifetime
of the environment — the same order of memory the pickle path peaked at per
dispatch, but held flat instead of re-allocated per shard.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker, shared_memory
from typing import Sequence

import numpy as np

from repro.core.affinity import AffinityColumns
from repro.core.greca import GrecaIndex, GrecaIndexFactory
from repro.exceptions import ConfigurationError

#: Byte alignment of arrays packed into one segment.
_ALIGNMENT = 16

#: Process-wide export generation counter.  Every export (and every healing
#: re-export) stamps its handle with the next value, so two exports can
#: never produce equal handles even when the OS recycles a segment name for
#: a same-shape layout — which is guaranteed to happen once epochs re-export
#: refreshed substrates over identical shapes.  Worker-side caches key on
#: handles, so the token versions every cache entry for free.
_GENERATION_LOCK = threading.Lock()
_GENERATION_COUNTER = 0


def next_generation() -> int:
    """The next process-wide export generation (monotonic, never reused)."""
    global _GENERATION_COUNTER
    with _GENERATION_LOCK:
        _GENERATION_COUNTER += 1
        return _GENERATION_COUNTER

#: Segment names created by *this* process (fork children inherit a copy).
_OWNED_NAMES: set[str] = set()

#: ``True`` once this process had to launch a resource tracker of its own to
#: attach a segment.  On POSIX, fork, spawn and forkserver children all
#: report to the tracker their parent was running when they started, so an
#: attachment's registration is an idempotent repeat of the creator's there,
#: and undoing it would strip the creator's own registration.  Only a
#: process whose attach launched a fresh tracker — a fork child started
#: before the parent ran one — must undo its attachments, or its tracker
#: would unlink the parent's segments when it exits.
_PRIVATE_TRACKER = False

#: Process-local cache of attached segments (name → mapped segment).  Entries
#: stay mapped for the life of the process so numpy views handed out by
#: :func:`attach_array` never lose their buffer.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}

#: Newest export generation observed per attached segment name.  A mapping
#: attached for generation g is stale the moment a handle for the same name
#: arrives with generation > g: the name was unlinked and recycled in the
#: meantime, and the old mapping still shows the dead segment's bytes.
_ATTACHED_GENERATIONS: dict[str, int] = {}

#: Process-local memo of materialised factories (handle → factory), the
#: warm-cache that makes persistent pools pay shipment once per factory.
#: Bounded LRU: long sweeps over many groups on a warm persistent pool must
#: not grow worker memory without limit, so the least-recently-served
#: factory is evicted past the cap (re-materialising later is just a new
#: zero-copy attach).
_FACTORY_CACHE: OrderedDict["ShmFactoryHandle", GrecaIndexFactory] = OrderedDict()
FACTORY_CACHE_MAX = 32

#: Process-local memo of attached affinity columns (handle → columns); same
#: LRU bound rationale as the factory cache.
_AFFINITY_CACHE: OrderedDict["ShmAffinityHandle", AffinityColumns] = OrderedDict()
AFFINITY_CACHE_MAX = 256

#: Process-local memo of fully built worker-side indexes, keyed by the
#: content-stable shipment handles (factory handle, affinity handle,
#: period-prefix length, item restriction, time model).  This is what lets a
#: batched multi-query payload — and a warm persistent pool across payloads
#: — evaluate a k/consensus sweep against one memoised index instead of
#: rebuilding it per task.  Bounded LRU: restricted-item indexes hold sliced
#: matrix copies, so the cap also bounds worker memory.
_INDEX_CACHE: OrderedDict[tuple, GrecaIndex] = OrderedDict()
INDEX_CACHE_MAX = 64


def _cache_get(cache: OrderedDict, key):
    """LRU lookup: a hit is moved to the most-recently-used end."""
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
    return value


def _cache_put(cache: OrderedDict, key, value, max_entries: int) -> None:
    """LRU insert: evict from the least-recently-used end past the cap."""
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > max_entries:
        cache.popitem(last=False)

#: Forgotten-but-still-mapped segments: entries whose numpy views were still
#: alive when their registry unlinked.  Kept referenced so the mapping (and
#: the views into it) stay valid and ``SharedMemory.__del__`` never fires
#: mid-run with exported buffers; the OS reclaims everything at process exit.
_ZOMBIES: list[shared_memory.SharedMemory] = []


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable descriptor of one ndarray inside a shared-memory segment."""

    segment: str
    shape: tuple[int, ...]
    dtype: str
    offset: int = 0


def _attached_segment(name: str) -> shared_memory.SharedMemory:
    """Attach (once per process) to a named segment and keep it mapped."""
    segment = _ATTACHED.get(name)
    if segment is None:
        global _PRIVATE_TRACKER
        if resource_tracker._resource_tracker._fd is None:
            # No tracker yet: the attach below launches one for this process.
            _PRIVATE_TRACKER = True
        segment = shared_memory.SharedMemory(name=name)
        if _PRIVATE_TRACKER and name not in _OWNED_NAMES:
            # Python < 3.13 registers *attachments* with the resource
            # tracker too.  Attachments are not ownership: keep this
            # process's own tracker from unlinking the segment at exit.
            try:  # pragma: no cover - depends on interpreter internals
                resource_tracker.unregister(
                    getattr(segment, "_name", segment.name), "shared_memory"
                )
            except Exception:
                pass
        _ATTACHED[name] = segment
    return segment


def _refresh_attachments(names: set[str], generation: int) -> None:
    """Drop attached mappings that predate a handle's export generation.

    A persistent worker keeps segments mapped for the life of the process;
    if the parent unlinked one and the OS later recycled its name for a new
    export, the stale mapping would silently serve the dead segment's bytes.
    A handle stamped with a newer generation than the mapping's recorded one
    proves exactly that happened — re-attach before serving.  Mappings with
    live numpy views cannot be closed; they are parked in ``_ZOMBIES``.
    """
    if generation <= 0:
        return
    for name in names:
        if _ATTACHED_GENERATIONS.get(name, 0) >= generation:
            continue
        segment = _ATTACHED.pop(name, None)
        _ATTACHED_GENERATIONS.pop(name, None)
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # live views — keep the mapping alive
                _ZOMBIES.append(segment)


def _record_attachment_generation(names: set[str], generation: int) -> None:
    """Remember the newest export generation served through these names."""
    for name in names:
        if generation > _ATTACHED_GENERATIONS.get(name, 0):
            _ATTACHED_GENERATIONS[name] = generation


def attach_array(spec: SharedArraySpec) -> np.ndarray:
    """A read-only ndarray view over the described segment region (no copy)."""
    segment = _attached_segment(spec.segment)
    count = 1
    for extent in spec.shape:
        count *= extent
    array = np.frombuffer(
        segment.buf, dtype=np.dtype(spec.dtype), count=count, offset=spec.offset
    ).reshape(spec.shape)
    array.flags.writeable = False
    return array


def _forget_segments(names: Sequence[str]) -> None:
    """Drop process-local caches referencing the given (unlinked) segments.

    Mappings whose numpy views are still alive cannot be closed (that would
    invalidate live arrays); they are parked in ``_ZOMBIES`` so the views
    stay valid and no destructor fires against an exported buffer.
    """
    names = set(names)
    for handle in [h for h in _FACTORY_CACHE if h.segment_names() & names]:
        _FACTORY_CACHE.pop(handle, None)
    for handle in [h for h in _AFFINITY_CACHE if h.segment_names() & names]:
        _AFFINITY_CACHE.pop(handle, None)
    for key in [
        k
        for k in _INDEX_CACHE
        if (k[0].segment_names() | k[1].segment_names()) & names
    ]:
        _INDEX_CACHE.pop(key, None)
    for name in names:
        _OWNED_NAMES.discard(name)
        _ATTACHED_GENERATIONS.pop(name, None)
        segment = _ATTACHED.pop(name, None)
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # live views — keep the mapping alive
                _ZOMBIES.append(segment)


def _release_segments(segments: list[shared_memory.SharedMemory], names: list[str]) -> None:
    """Unlink every created segment (idempotent; the finalizer backstop)."""
    _forget_segments(names)
    while segments:
        segment = segments.pop()
        try:
            segment.unlink()
        except FileNotFoundError:  # already unlinked
            pass
        try:
            segment.close()
        except BufferError:
            # A live numpy view still maps the creator's handle; park it so
            # the view stays valid.  The /dev/shm entry is gone either way.
            _ZOMBIES.append(segment)


@dataclass(frozen=True)
class ShmFactoryHandle:
    """Picklable zero-copy stand-in for one memoised :class:`GrecaIndexFactory`.

    Ships descriptors instead of arrays: the apref matrix, the ``repr``
    tie-break ranking and (when the item ids are plain ints, which is the
    int64-roundtrip-exact case) the item-id column.  ``items`` carries the
    literal tuple only in the fallback case of non-integer item ids.

    ``generation`` versions the handle: segment names + shapes alone do not
    identify content, because an unlinked name can be recycled by the OS for
    a later export of the same layout.  The export generation is part of
    dataclass equality, so worker-side caches keyed on handles can never
    alias a recycled name to a stale cached object.
    """

    members: tuple[int, ...]
    matrix: SharedArraySpec
    repr_rank: SharedArraySpec
    max_apref: float
    items_spec: SharedArraySpec | None = None
    items: tuple | None = None
    generation: int = 0

    def __post_init__(self) -> None:
        if (self.items_spec is None) == (self.items is None):
            raise ConfigurationError(
                "exactly one of items_spec / items must describe the item universe"
            )

    def segment_names(self) -> set[str]:
        """Every segment this handle references."""
        names = {self.matrix.segment, self.repr_rank.segment}
        if self.items_spec is not None:
            names.add(self.items_spec.segment)
        return names


def materialise_factory(handle: ShmFactoryHandle) -> GrecaIndexFactory:
    """Rebuild (once per process, LRU-bounded) the factory around the attached arrays."""
    factory = _cache_get(_FACTORY_CACHE, handle)
    if factory is None:
        _refresh_attachments(handle.segment_names(), handle.generation)
        matrix = attach_array(handle.matrix)
        repr_rank = attach_array(handle.repr_rank)
        if handle.items_spec is not None:
            items = tuple(int(value) for value in attach_array(handle.items_spec))
        else:
            items = handle.items
        factory = GrecaIndexFactory.from_columns(
            handle.members, items, matrix, handle.max_apref, repr_rank=repr_rank
        )
        _record_attachment_generation(handle.segment_names(), handle.generation)
        _cache_put(_FACTORY_CACHE, handle, factory, FACTORY_CACHE_MAX)
    return factory


def resolve_factory(factory: GrecaIndexFactory | ShmFactoryHandle) -> GrecaIndexFactory:
    """Worker-side: a usable factory, whether shipped by value or by handle."""
    if isinstance(factory, ShmFactoryHandle):
        return materialise_factory(factory)
    return factory


@dataclass(frozen=True)
class ShmAffinityHandle:
    """Picklable zero-copy stand-in for one :class:`AffinityColumns` set.

    Ships the ``(n_pairs,)`` static column, the ``(n_periods, n_pairs)``
    periodic matrix and the ``(n_periods,)`` averages vector as segment
    descriptors; only the small canonical pair tuple travels by value.  One
    handle covers a group's *full* timeline — tasks select their query
    period's prefix via :attr:`~repro.parallel.worker.GroupEvalTask
    .n_periods` — so a whole period sweep references a single export.

    ``generation`` versions the handle exactly as on
    :class:`ShmFactoryHandle`: recycled segment names must never alias a
    stale cached columns object.
    """

    pairs: tuple[tuple[int, int], ...]
    static: SharedArraySpec
    periodic: SharedArraySpec
    averages: SharedArraySpec
    generation: int = 0

    def segment_names(self) -> set[str]:
        """Every segment this handle references."""
        return {self.static.segment, self.periodic.segment, self.averages.segment}


def materialise_affinity(handle: ShmAffinityHandle) -> AffinityColumns:
    """Reattach (once per process, LRU-bounded) the columns behind a handle."""
    columns = _cache_get(_AFFINITY_CACHE, handle)
    if columns is None:
        _refresh_attachments(handle.segment_names(), handle.generation)
        columns = AffinityColumns(
            pairs=handle.pairs,
            static=attach_array(handle.static),
            periodic=attach_array(handle.periodic),
            averages=attach_array(handle.averages),
        )
        _record_attachment_generation(handle.segment_names(), handle.generation)
        _cache_put(_AFFINITY_CACHE, handle, columns, AFFINITY_CACHE_MAX)
    return columns


def resolve_affinity_columns(
    columns: AffinityColumns | ShmAffinityHandle,
) -> AffinityColumns:
    """Worker-side: usable columns, whether shipped by value or by handle."""
    if isinstance(columns, ShmAffinityHandle):
        return materialise_affinity(columns)
    if isinstance(columns, AffinityColumns):
        return columns
    raise ConfigurationError(
        f"expected AffinityColumns or ShmAffinityHandle, got {type(columns).__name__}"
    )


def rewrite_spec(spec: SharedArraySpec, mapping: "dict[str, str]") -> SharedArraySpec:
    """The same descriptor pointed at a (possibly) re-exported segment."""
    new_name = mapping.get(spec.segment)
    if new_name is None:
        return spec
    return replace(spec, segment=new_name)


def rewrite_factory_handle(
    handle: ShmFactoryHandle, mapping: "dict[str, str]"
) -> ShmFactoryHandle:
    """A factory handle with every segment reference passed through ``mapping``.

    Used by the supervisor's self-healing path: when the registry re-exports
    a vanished segment under a fresh name, pending retry payloads must ship
    handles that reference the replacement.
    """
    if not mapping or not (handle.segment_names() & mapping.keys()):
        return handle
    return replace(
        handle,
        matrix=rewrite_spec(handle.matrix, mapping),
        repr_rank=rewrite_spec(handle.repr_rank, mapping),
        items_spec=(
            None if handle.items_spec is None else rewrite_spec(handle.items_spec, mapping)
        ),
    )


def rewrite_affinity_handle(
    handle: ShmAffinityHandle, mapping: "dict[str, str]"
) -> ShmAffinityHandle:
    """An affinity handle with every segment reference passed through ``mapping``."""
    if not mapping or not (handle.segment_names() & mapping.keys()):
        return handle
    return replace(
        handle,
        static=rewrite_spec(handle.static, mapping),
        periodic=rewrite_spec(handle.periodic, mapping),
        averages=rewrite_spec(handle.averages, mapping),
    )


def purge_stale(min_generation: int) -> int:
    """Drop worker-side cache entries from exports older than ``min_generation``.

    The epoch-adoption contract: when the parent retires an epoch's exports
    (unlinking their segments), warm persistent workers are *not* restarted —
    they learn about the retirement from the ``min_generation`` stamped on
    the next payload they run.  Everything below the floor — materialised
    factories, affinity columns, finished indexes, and the attached mappings
    behind them — is provably dead for the stamping registry, so it is
    dropped here before any task of the new dispatch runs.  Returns the
    number of cache entries removed (attachments not counted).
    """
    if min_generation <= 0:
        return 0
    stale_factories = [h for h in _FACTORY_CACHE if h.generation < min_generation]
    stale_affinities = [h for h in _AFFINITY_CACHE if h.generation < min_generation]
    stale_keys = [
        k
        for k in _INDEX_CACHE
        if k[0].generation < min_generation or k[1].generation < min_generation
    ]
    stale_names: set[str] = set()
    for handle in stale_factories:
        stale_names |= handle.segment_names()
        _FACTORY_CACHE.pop(handle, None)
    for handle in stale_affinities:
        stale_names |= handle.segment_names()
        _AFFINITY_CACHE.pop(handle, None)
    for key in stale_keys:
        stale_names |= key[0].segment_names() | key[1].segment_names()
        _INDEX_CACHE.pop(key, None)
    # Keep mappings that a still-live (>= floor) cached handle references:
    # a recycled name can be shared between a stale entry and a live one.
    live_names: set[str] = set()
    for handle in _FACTORY_CACHE:
        live_names |= handle.segment_names()
    for handle in _AFFINITY_CACHE:
        live_names |= handle.segment_names()
    for name in stale_names - live_names:
        if _ATTACHED_GENERATIONS.get(name, 0) >= min_generation:
            continue
        _ATTACHED_GENERATIONS.pop(name, None)
        segment = _ATTACHED.pop(name, None)
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # live views — keep the mapping alive
                _ZOMBIES.append(segment)
    return len(stale_factories) + len(stale_affinities) + len(stale_keys)


def cached_index(key: tuple) -> GrecaIndex | None:
    """The per-process memoised index for a content-stable shipment key."""
    return _cache_get(_INDEX_CACHE, key)


def store_index(key: tuple, index: GrecaIndex) -> None:
    """Memoise a worker-built index (LRU-bounded)."""
    _cache_put(_INDEX_CACHE, key, index, INDEX_CACHE_MAX)


class SharedArrayRegistry:
    """Context-managed owner of the shared-memory segments a parent creates.

    ``export`` is memoised per factory object, so every dispatch of the same
    memoised factory — across shards, figure drivers and persistent-pool
    calls — references one segment.  Unlink-on-exit is guaranteed three ways:
    the ``with`` block, an explicit :meth:`close`, and a ``weakref.finalize``
    backstop that fires at garbage collection or interpreter shutdown even
    after an exception or a ``KeyboardInterrupt``.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._names: list[str] = []
        self._handles: dict[int, tuple[GrecaIndexFactory, ShmFactoryHandle]] = {}
        self._affinity_handles: dict[int, tuple[AffinityColumns, ShmAffinityHandle]] = {}
        self._closed = False
        # Reentrant: export() calls share_arrays() under the same lock.  The
        # serving layer exports from concurrent dispatch threads; without
        # serialisation, two threads racing the id()-memo check both pack the
        # same factory into segments, and the loser's segment lingers as an
        # unmemoised duplicate until close().
        self._lock = threading.RLock()
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments, self._names
        )

    # -- lifecycle -----------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """``True`` once the registry's segments have been unlinked."""
        return self._closed

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Names of every segment created (and owned) by this registry."""
        return tuple(self._names)

    def close(self) -> None:
        """Unlink every owned segment; idempotent, thread-safe."""
        with self._lock:
            self._closed = True
            self._handles.clear()
            self._affinity_handles.clear()
            self._finalizer()

    def __enter__(self) -> "SharedArrayRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- self-healing --------------------------------------------------------------------

    def reexport_missing(self) -> dict[str, str]:
        """Recreate any owned segment whose system entry has vanished.

        A segment can disappear from under a live registry — a foreign
        unlink, an over-eager resource tracker on an abnormal worker death —
        while the registry's own mapping (and its byte content) stays valid.
        This probes every owned name, copies the bytes of each vanished
        segment into a fresh one, rewrites the memoised export handles, and
        returns ``{old_name: new_name}`` so the caller (the dispatch
        supervisor's self-healing rebuild) can rewrite pending payloads via
        :func:`rewrite_factory_handle` / :func:`rewrite_affinity_handle`.
        An empty mapping means every segment is still attachable — the
        normal case, and the cheap one (one probe attach per segment).
        """
        with self._lock:
            return self._reexport_missing_locked()

    def _reexport_missing_locked(self) -> dict[str, str]:
        if self._closed:
            return {}
        mapping: dict[str, str] = {}
        for position, name in enumerate(list(self._names)):
            old = self._segments[position]
            try:
                probe = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                fresh = shared_memory.SharedMemory(create=True, size=old.size)
            else:
                # Still attachable — just drop the probe mapping.  No tracker
                # unregister here: the name is *owned* by this process, so
                # the probe's attach-registration was an idempotent no-op on
                # the already-tracked name, and unregistering would strip the
                # ownership registration the eventual unlink pairs with.
                probe.close()
                continue
            fresh.buf[: old.size] = old.buf[: old.size]
            # The OS may hand back a *recycled* name — one an earlier
            # (since unlinked) segment used while this process cached
            # attachments or indexes derived from it.  Purge those stale
            # entries before anything can alias the recycled name to the
            # dead segment's content.  Must run before the ownership
            # registration below (_forget_segments drops owned names).
            _forget_segments([fresh.name])
            _OWNED_NAMES.add(fresh.name)
            # In-place index assignment: the finalizer backstop holds
            # references to these exact list objects.
            self._segments[position] = fresh
            self._names[position] = fresh.name
            mapping[name] = fresh.name
            # Forget parent-side caches of the dead name.  No tracker
            # unregister: every unlink path (a foreign unlink, a tracker
            # cleanup) already unregistered the name when it removed the
            # file, so the registration is gone along with the segment.
            _forget_segments([name])
            try:
                old.close()
            except BufferError:  # live views — keep the mapping alive
                _ZOMBIES.append(old)
        if mapping:
            self._handles = {
                key: (factory, rewrite_factory_handle(handle, mapping))
                for key, (factory, handle) in self._handles.items()
            }
            self._affinity_handles = {
                key: (columns, rewrite_affinity_handle(handle, mapping))
                for key, (columns, handle) in self._affinity_handles.items()
            }
        return mapping

    # -- epoch retirement ----------------------------------------------------------------

    @property
    def generation_floor(self) -> int:
        """The smallest export generation still live in this registry.

        Every handle below the floor belongs to a retired (or never-made)
        export of this registry; :func:`repro.parallel.evaluate_tasks` stamps
        the floor onto payloads so warm workers can purge retired-epoch cache
        entries (:func:`purge_stale`) without a pool restart.  ``0`` while
        nothing has been exported (no purge).
        """
        with self._lock:
            generations = [handle.generation for _, handle in self._handles.values()]
            generations += [
                handle.generation for _, handle in self._affinity_handles.values()
            ]
            return min(generations, default=0)

    def retire_stale(
        self,
        live_factories: Sequence[object] = (),
        live_columns: Sequence[object] = (),
    ) -> tuple[str, ...]:
        """Unlink segments backing exports absent from the caller's live sets.

        The epoch-adoption primitive: after an incremental update replaces
        some of the environment's memoised factories / affinity columns, the
        old objects' exports are dead weight — their segments hold the
        retired epoch's bytes.  The caller passes the objects it still
        serves; every memoised export whose object is not among them is
        dropped and its segment unlinked (raising :attr:`generation_floor`).
        POSIX semantics keep in-flight attachments valid: workers that
        already mapped a retired segment finish their current dispatch on
        it, and only new attaches fail (healed by the supervisor if ever
        raced).  Returns the unlinked segment names.
        """
        with self._lock:
            return self._retire_stale_locked(live_factories, live_columns)

    def _retire_stale_locked(
        self, live_factories: Sequence[object], live_columns: Sequence[object]
    ) -> tuple[str, ...]:
        if self._closed:
            return ()
        live_factory_ids = {id(factory) for factory in live_factories}
        live_column_ids = {id(columns) for columns in live_columns}
        victim_names: set[str] = set()
        for key in [k for k in self._handles if k not in live_factory_ids]:
            _, handle = self._handles.pop(key)
            victim_names |= handle.segment_names()
        for key in [k for k in self._affinity_handles if k not in live_column_ids]:
            _, handle = self._affinity_handles.pop(key)
            victim_names |= handle.segment_names()
        retired = []
        for name in sorted(victim_names):
            if name not in self._names:
                continue
            # In-place removal: the finalizer backstop holds references to
            # these exact list objects.
            position = self._names.index(name)
            segment = self._segments.pop(position)
            del self._names[position]
            _forget_segments([name])
            try:
                segment.unlink()
            except FileNotFoundError:  # already unlinked
                pass
            try:
                segment.close()
            except BufferError:  # live views — keep the mapping alive
                _ZOMBIES.append(segment)
            retired.append(name)
        return tuple(retired)

    # -- export --------------------------------------------------------------------------

    def share_arrays(self, arrays: Sequence[np.ndarray]) -> list[SharedArraySpec]:
        """Pack arrays into one fresh segment; one descriptor per array."""
        with self._lock:
            return self._share_arrays_locked(arrays)

    def _share_arrays_locked(self, arrays: Sequence[np.ndarray]) -> list[SharedArraySpec]:
        if self._closed:
            raise ConfigurationError("the shared-array registry is closed")
        arrays = [np.ascontiguousarray(array) for array in arrays]
        offsets = []
        total = 0
        for array in arrays:
            total = (total + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
            offsets.append(total)
            total += array.nbytes
        segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
        # A fresh segment can land on a recycled name (one a since-unlinked
        # segment used while this process cached attachments or indexes for
        # it) — drop any such stale process-local state before the name can
        # alias.  Ordering matters: _forget_segments drops owned names, so
        # the ownership registration follows it.
        _forget_segments([segment.name])
        _OWNED_NAMES.add(segment.name)
        self._segments.append(segment)
        self._names.append(segment.name)
        specs = []
        for array, offset in zip(arrays, offsets):
            if array.size:
                view = np.frombuffer(
                    segment.buf, dtype=array.dtype, count=array.size, offset=offset
                ).reshape(array.shape)
                view[...] = array
            specs.append(
                SharedArraySpec(
                    segment=segment.name,
                    shape=tuple(array.shape),
                    dtype=array.dtype.str,
                    offset=offset,
                )
            )
        return specs

    def export(
        self, factory: GrecaIndexFactory | ShmFactoryHandle
    ) -> ShmFactoryHandle:
        """A picklable handle for a factory, its arrays placed in shared memory.

        Memoised per factory object: exporting the same memoised factory
        twice (the normal case — one environment, many dispatches) returns
        the same handle over the same segment.
        """
        if isinstance(factory, ShmFactoryHandle):
            return factory
        with self._lock:
            return self._export_locked(factory)

    def _export_locked(self, factory: GrecaIndexFactory) -> ShmFactoryHandle:
        cached = self._handles.get(id(factory))
        if cached is not None:
            return cached[1]
        members, items, matrix, repr_rank, max_apref = factory.columnar_substrate()
        items_array = None
        if all(type(item) is int for item in items):
            candidate = np.asarray(items, dtype=np.int64)
            if tuple(int(value) for value in candidate) == tuple(items):
                items_array = candidate
        arrays = [matrix, repr_rank] + ([items_array] if items_array is not None else [])
        specs = self.share_arrays(arrays)
        handle = ShmFactoryHandle(
            members=tuple(members),
            matrix=specs[0],
            repr_rank=specs[1],
            max_apref=float(max_apref),
            items_spec=specs[2] if items_array is not None else None,
            items=None if items_array is not None else tuple(items),
            generation=next_generation(),
        )
        # The strong factory reference keeps id(factory) stable for the memo.
        self._handles[id(factory)] = (factory, handle)
        return handle

    def export_affinity(
        self, columns: AffinityColumns | ShmAffinityHandle
    ) -> ShmAffinityHandle:
        """A picklable handle for one affinity-column set, arrays in shared memory.

        Memoised per columns object: the environment holds one full-timeline
        :class:`AffinityColumns` per (group, affinity model), so every sweep
        point of every dispatch references the same segment.
        """
        if isinstance(columns, ShmAffinityHandle):
            return columns
        with self._lock:
            return self._export_affinity_locked(columns)

    def _export_affinity_locked(self, columns: AffinityColumns) -> ShmAffinityHandle:
        cached = self._affinity_handles.get(id(columns))
        if cached is not None:
            return cached[1]
        specs = self.share_arrays([columns.static, columns.periodic, columns.averages])
        handle = ShmAffinityHandle(
            pairs=tuple(columns.pairs),
            static=specs[0],
            periodic=specs[1],
            averages=specs[2],
            generation=next_generation(),
        )
        # The strong columns reference keeps id(columns) stable for the memo.
        self._affinity_handles[id(columns)] = (columns, handle)
        return handle
