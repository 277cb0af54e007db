"""Persistent, content-addressed verification result cache.

Every decided job (verified or falsified) is recorded under a sha256 key of
``(network digest, property digest, config digest, policy digest, seed)``:

- the **network digest** (:func:`repro.nn.serialize.network_digest`) covers
  architecture and every parameter bit, so retraining or editing a network
  can never serve stale results;
- the **property digest** covers the region's float64 bit patterns and the
  target label;
- the **config digest** covers every outcome-relevant knob — δ, depth cap,
  split fraction, PGD budget, and ``batch_size`` (chunk width changes which
  witness a falsified run reports) — but deliberately *not* the wall-clock
  timeout: a cached Verified/Falsified record is a proof or a concrete
  witness, both valid under any budget.  Wall-clock timeouts are never
  cached for the same reason in reverse — they are budget artifacts, not
  results.  *Deterministic* timeouts (``"split depth"``, ``"degenerate
  region"``) are a different animal: they are pure functions of the keyed
  configuration (the depth cap is in the digest), reproduce bit-for-bit
  under any wall-clock budget, and so cache soundly — which is what lets
  depth-budgeted workloads (the ``work`` training cost model) re-run with
  zero fresh kernel work.

Records live one-per-file under a two-level fan-out directory (like git's
object store), written atomically (temp file + rename) so concurrent
scheduler runs can share a cache directory.  A record carries no clock
reading, so identical runs write identical bytes.

**Prefix records.**  Next to the result records lives a second family:
``<key>.px.npz`` files holding
:class:`~repro.abstract.checkpoint.PrefixBounds` checkpoints — abstract
states at layer boundaries, keyed by (prefix digest, region-batch digest,
domain, backend) via :func:`prefix_key`.  Because prefix digests are
links of the per-layer chain (:func:`repro.nn.serialize.layer_digests`),
checkpoints written while verifying one network are found verbatim when a
fine-tuned successor probes with its own chain (the scheduler's
incremental mode probes its boundaries deepest first).  Both families
share the LRU budget accounting: :meth:`ResultCache.prune` sees ``.json``
and ``.px.npz`` entries through one mtime-ordered scan, so a burst of
prefix captures ages out stale result records and vice versa, and the
byte budget means what it says for the whole directory.

**Eviction.**  A cache may carry size budgets (``max_entries`` /
``max_bytes``); :meth:`ResultCache.prune` removes records
least-recently-used first until both budgets hold.  Recency is file
mtime at nanosecond resolution (``st_mtime_ns``; second-granularity
``st_mtime`` would let records written within the same second evict in
arbitrary order), with the record path as a stable tiebreak so eviction
order is deterministic even for same-instant writes.  Every
:meth:`ResultCache.get` hit touches its record, so entries that keep
serving results stay resident while stale ones age out.  Budgeted caches
track an in-memory size estimate and prune once a budget is crossed
(down to 7/8 of it, so eviction cost amortizes over many puts); because
several processes may share one cache directory — each only observing
its *own* puts — the estimate is re-scanned from disk every
:attr:`ResultCache.ESTIMATE_REFRESH` puts (and by every prune),
bounding how far a concurrent writer can push the directory past
budget.  Unbudgeted caches never evict (``python -m repro cache prune``
covers one-off housekeeping).

Beyond exact-key lookups the cache answers **certified-radius queries**:
jobs created from L∞ manifests record ``center_digest`` and ``epsilon``
metadata, and :meth:`ResultCache.radius_bounds` folds every cached record
for a (network, center) pair into the tightest known bracket — the largest
verified radius and the smallest falsified radius.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import VerifierConfig
from repro.core.policy import VerificationPolicy
from repro.core.property import RobustnessProperty
from repro.core.results import (
    Falsified,
    Timeout,
    Verified,
    VerificationStats,
)
from repro.nn.network import Network
from repro.nn.serialize import network_digest
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import span as _span

#: Cache observability (``cache.*`` in snapshots).  ``hits``/``misses``
#: count :meth:`ResultCache.get` outcomes (any unreadable record is a
#: miss), ``evictions`` counts pruned records, ``rescans`` counts
#: directory re-scans of the size estimate, and the byte counters track
#: record payloads served and written.
_CACHE_COUNTERS = _metrics_registry().group(
    "cache",
    (
        "hits",
        "misses",
        "puts",
        "evictions",
        "rescans",
        "read_bytes",
        "write_bytes",
        "evicted_bytes",
    ),
)


#: Timeout reasons that are pure functions of the cache key (the depth cap
#: and split-width floor live in the config digest), as opposed to
#: ``"wall clock"``, which depends on the machine and the budget.
DETERMINISTIC_TIMEOUT_REASONS = ("split depth", "degenerate region")

#: What reading a damaged prefix record can raise.  A truncated or
#: byte-flipped ``.px.npz`` fails inside ``zipfile`` (a bad central
#: directory or CRC, a short read, an unknown compression method) or in
#: the decoders behind it (``np.load``, the JSON meta, the record
#: fields); every one of them makes the probe a miss.
_DAMAGED_PREFIX_ERRORS = (
    OSError,
    ValueError,
    TypeError,
    KeyError,
    EOFError,
    NotImplementedError,
    zipfile.BadZipFile,
)


#: A writer's temp file: ``tmp<pid>-<random>.tmp`` for a result record,
#: ``.tmp.npz`` for a prefix record.
_TEMP_NAME = re.compile(r"tmp(\d+)-.*\.tmp(\.npz)?")


def _writer_temp(directory: Path, suffix: str) -> tuple[int, str]:
    """``mkstemp`` in ``directory``, named after the writing process.

    A writer killed between writing its temp file and renaming it into
    place leaves the file behind; the PID in the name is how
    :meth:`ResultCache.prune` tells such an orphan from a live writer's
    file in progress.
    """
    return tempfile.mkstemp(
        dir=directory, prefix=f"tmp{os.getpid()}-", suffix=suffix
    )


def _writer_alive(pid: int) -> bool:
    """Whether process ``pid`` still runs (on POSIX hosts; elsewhere
    every writer counts as alive, so no temp file is ever swept)."""
    if os.name != "posix":
        return True
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:
        pass  # another user's live process
    return True


def cacheable(outcome) -> bool:
    """Whether an outcome is a result (cacheable) or a budget artifact."""
    if outcome.kind in ("verified", "falsified"):
        return True
    return (
        outcome.kind == "timeout"
        and outcome.reason in DETERMINISTIC_TIMEOUT_REASONS
    )


def _sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        digest.update(b"\x00")
    return digest.hexdigest()


def property_digest(prop: RobustnessProperty) -> str:
    """Content address of a property: region bit patterns plus label."""
    return _sha256(
        np.ascontiguousarray(prop.region.low, dtype=np.float64).tobytes(),
        np.ascontiguousarray(prop.region.high, dtype=np.float64).tobytes(),
        str(prop.label).encode(),
    )


def point_digest(x: np.ndarray) -> str:
    """Content address of a concrete input point (for radius queries)."""
    return _sha256(np.ascontiguousarray(x, dtype=np.float64).tobytes())


def policy_digest(policy: VerificationPolicy) -> str:
    """Content address of a policy's decision function.

    Parameterized policies (anything exposing ``to_vector``) hash their
    exact parameter bits; hand-crafted policies hash their ``describe()``
    string, which encodes every constructor knob.
    """
    to_vector = getattr(policy, "to_vector", None)
    if callable(to_vector):
        vec = np.ascontiguousarray(to_vector(), dtype=np.float64)
        return _sha256(type(policy).__name__.encode(), vec.tobytes())
    return _sha256(type(policy).__name__.encode(), policy.describe().encode())


def config_digest(config: VerifierConfig) -> str:
    """Content address of the outcome-relevant verifier knobs.

    Excludes ``timeout`` (see the module docstring); includes the PGD
    budget and ``batch_size`` because both shape which witness a falsified
    run returns.
    """
    payload = json.dumps(
        {
            "delta": config.delta,
            "max_depth": config.max_depth,
            "min_split_fraction": config.min_split_fraction,
            "batch_size": config.batch_size,
            "pgd": {
                "steps": config.pgd.steps,
                "restarts": config.pgd.restarts,
                "step_fraction": config.pgd.step_fraction,
            },
        },
        sort_keys=True,
    )
    return _sha256(payload.encode())


def job_key(
    net_digest: str,
    prop: RobustnessProperty,
    config: VerifierConfig,
    policy: VerificationPolicy,
    seed: int,
    backend: str = "numpy64",
) -> str:
    """The cache key of one verification job.

    The key identifies the *decision procedure instance* — network,
    property, knobs, policy, seed, array backend.  It deliberately
    carries no run-option tag: a job's result does not depend on its
    batch mates, the round width or the executor (the reproducibility
    contract), so a one-job run and a many-job run may serve each
    other.  The **backend** is keyed because it changes the decision
    procedure itself — a float32 run takes different splits and may
    decide differently than the float64 reference — so mixed-precision
    runs can never poison (or be served) reference entries.  For
    compatibility with every pre-backend cache, the ``numpy64``
    reference omits the tag and keeps its historical keys.
    """
    parts = [
        net_digest.encode(),
        property_digest(prop).encode(),
        config_digest(config).encode(),
        policy_digest(policy).encode(),
        str(int(seed)).encode(),
    ]
    if backend != "numpy64":
        parts.append(f"backend={backend}".encode())
    return _sha256(*parts)


def prefix_key(
    prefix_digest: str,
    regions_digest: str,
    base: str,
    disjuncts: int,
    backend: str,
) -> str:
    """The cache key of one prefix checkpoint.

    Keys the *abstract state*, which is a pure function of (prefix ops,
    ordered region batch, domain, backend/dtype).  The leading ``prefix``
    part keeps the family disjoint from :func:`job_key` addresses even
    though both share the fan-out directory.  The backend is always
    keyed (no numpy64 legacy omission — there are no pre-existing prefix
    keys to stay warm for), because a float32 checkpoint's bit patterns
    can never seed a float64 resume.
    """
    return _sha256(
        b"prefix",
        prefix_digest.encode(),
        regions_digest.encode(),
        f"{base}:{int(disjuncts)}".encode(),
        backend.encode(),
    )


@dataclass(frozen=True)
class CacheRecord:
    """One decided outcome, with enough context for radius queries.

    Attributes:
        kind: ``"verified"`` or ``"falsified"``.
        margin: the witness margin for falsified records.
        counterexample: the witness point for falsified records.
        stats: the recorded run's counters (pgd/analyze/splits/...).
        network_digest: content address of the analyzed network.
        label: the property's target class.
        metadata: caller-provided job metadata (e.g. ``center_digest`` and
            ``epsilon`` for L∞ jobs).

    A record carries no clock reading (no creation time, no run time),
    so its bytes are a function of the outcome it records.
    """

    kind: str
    margin: float | None = None
    counterexample: list | None = None
    stats: dict = field(default_factory=dict)
    network_digest: str = ""
    label: int = 0
    metadata: dict = field(default_factory=dict)
    reason: str = ""

    def to_outcome(self):
        """Reconstruct a verification outcome from the record.

        The stats carry the recorded run's work counters but zero
        ``time_seconds`` — a cache hit spends no verification time.
        """
        stats = VerificationStats(
            pgd_calls=int(self.stats.get("pgd_calls", 0)),
            analyze_calls=int(self.stats.get("analyze_calls", 0)),
            splits=int(self.stats.get("splits", 0)),
            max_depth_reached=int(self.stats.get("max_depth_reached", 0)),
        )
        for name, count in self.stats.get("domains_used", {}).items():
            stats.domains_used[name] = int(count)
        if self.kind == "verified":
            return Verified(stats)
        if self.kind == "falsified":
            return Falsified(
                np.asarray(self.counterexample, dtype=np.float64),
                float(self.margin),
                stats,
            )
        if self.kind == "timeout" and self.reason:
            return Timeout(self.reason, stats)
        raise ValueError(f"cannot reconstruct outcome of kind {self.kind!r}")

    @staticmethod
    def from_outcome(
        outcome, net_digest: str, label: int, metadata: dict | None = None
    ) -> "CacheRecord":
        """Build a record from a decided outcome.

        Raises ``ValueError`` for wall-clock timeouts — budget artifacts
        are not cacheable results (deterministic depth-cap timeouts are,
        see :func:`cacheable`).
        """
        if not cacheable(outcome):
            raise ValueError(f"cannot cache outcome of kind {outcome.kind!r}")
        stats = {
            "pgd_calls": outcome.stats.pgd_calls,
            "analyze_calls": outcome.stats.analyze_calls,
            "splits": outcome.stats.splits,
            "max_depth_reached": outcome.stats.max_depth_reached,
            "domains_used": dict(outcome.stats.domains_used),
        }
        margin = None
        counterexample = None
        if isinstance(outcome, Falsified):
            margin = float(outcome.margin)
            counterexample = [float(v) for v in outcome.counterexample]
        return CacheRecord(
            kind=outcome.kind,
            margin=margin,
            counterexample=counterexample,
            stats=stats,
            network_digest=net_digest,
            label=label,
            metadata=dict(metadata or {}),
            reason=getattr(outcome, "reason", ""),
        )


@dataclass(frozen=True)
class PruneResult:
    """What one :meth:`ResultCache.prune` pass did."""

    removed: int
    freed_bytes: int
    remaining: int
    remaining_bytes: int


class ResultCache:
    """A directory of content-addressed :class:`CacheRecord` files.

    Args:
        root: cache directory (created on demand).
        max_entries: optional record-count budget enforced by
            :meth:`prune` (and opportunistically after every :meth:`put`).
        max_bytes: optional total-size budget, same discipline.
    """

    #: Re-scan the directory after this many estimate-only puts.  The
    #: in-memory size estimate counts only *this instance's* puts, so
    #: when several processes share a cache directory each one's estimate
    #: drifts below the true size; the periodic scan picks up the other
    #: writers' records and bounds the overshoot.
    ESTIMATE_REFRESH = 64

    def __init__(
        self,
        root: str | Path,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # In-memory (entries, bytes) estimate so budgeted puts don't
        # re-scan the directory; initialized lazily, refreshed by every
        # prune and every `ESTIMATE_REFRESH` puts, and only ever used to
        # decide *whether* to prune (a stale estimate from a concurrent
        # writer delays eviction, never corrupts it).
        self._estimate: tuple[int, int] | None = None
        self._puts_since_scan = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> CacheRecord | None:
        """The record stored under ``key``, or ``None`` (including on any
        unreadable/corrupt file — a broken entry is a miss, never an
        error).  A hit refreshes the record's mtime, which is what keeps
        frequently-served entries out of LRU eviction's way."""
        path = self._path(key)
        with _span("cache.probe", cat="cache"):
            try:
                payload = path.read_bytes()
                record = CacheRecord(**json.loads(payload))
            except (OSError, ValueError, TypeError):
                _CACHE_COUNTERS["misses"] += 1
                return None
            self._hit(path, len(payload))
        return record

    def put(self, key: str, record: CacheRecord) -> None:
        """Store ``record`` under ``key`` atomically (temp file + rename)."""
        with _span("cache.put", cat="cache"):
            payload = json.dumps(record.__dict__, sort_keys=True)
            self._write(self._path(key), payload.encode(), ".tmp")

    def _hit(self, path: Path, size: int) -> None:
        """Count a hit of ``size`` bytes (both families) and refresh the
        record's mtime, the LRU recency every hit keeps current."""
        try:
            os.utime(path)
        except OSError:
            pass  # recency refresh is best-effort
        _CACHE_COUNTERS["hits"] += 1
        _CACHE_COUNTERS["read_bytes"] += size

    def _write(self, path: Path, payload, suffix: str) -> None:
        """Write one record file of either family atomically (temp file +
        rename) and count it.

        Budgeted caches track an in-memory size estimate and prune once
        it crosses a budget — down to 7/8 of the budget, so a steady
        stream of puts pays the directory scan once per batch of
        evictions instead of once per record."""
        path.parent.mkdir(parents=True, exist_ok=True)
        size = memoryview(payload).nbytes
        fd, tmp = _writer_temp(path.parent, suffix)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _CACHE_COUNTERS["puts"] += 1
        _CACHE_COUNTERS["write_bytes"] += size
        if self.max_entries is not None or self.max_bytes is not None:
            self._note_put(size)

    # ------------------------------------------------------------------
    # Prefix records (see repro.abstract.checkpoint.PrefixBounds)
    # ------------------------------------------------------------------

    def _prefix_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.px.npz"

    def put_prefix(self, record) -> None:
        """Persist a :class:`~repro.abstract.checkpoint.PrefixBounds`.

        The record's descriptor fields become a JSON ``__meta__`` entry
        and its arrays ride as named ``.npz`` members (float bit patterns
        preserved exactly — the bitwise-resume contract depends on it).
        The archive is built in memory and written in one call
        (``np.savez`` straight to a file pays a header write and seek per
        member).  Atomic temp-file + rename, same as result records, and
        the same budget accounting: a prefix put can trigger mixed-family
        LRU eviction.
        """
        key = prefix_key(
            record.prefix_digest,
            record.regions_digest,
            record.domain[0],
            record.domain[1],
            record.backend,
        )
        path = self._prefix_path(key)
        with _span("cache.put_prefix", cat="cache"):
            meta = json.dumps(
                {
                    "boundary": record.boundary,
                    "op_count": record.op_count,
                    "prefix_digest": record.prefix_digest,
                    "regions_digest": record.regions_digest,
                    "domain": list(record.domain),
                    "backend": record.backend,
                    "kind": record.kind,
                    "meta": record.meta,
                },
                sort_keys=True,
            )
            archive = io.BytesIO()
            np.savez(archive, __meta__=np.array(meta), **record.arrays)
            self._write(path, archive.getbuffer(), ".tmp.npz")

    def get_prefix(
        self,
        prefix_digest: str,
        regions_digest: str,
        domain,
        backend: str,
    ):
        """The stored checkpoint for this exact (prefix, batch, domain,
        backend), or ``None``.  The file is read in one call and the
        archive opened from memory (over a path, ``np.load`` reads each
        array's zip member from disk).  Unreadable files are misses;
        hits refresh the file's mtime like result-record hits."""
        from repro.abstract.checkpoint import PrefixBounds

        key = prefix_key(
            prefix_digest, regions_digest, domain[0], domain[1], backend
        )
        path = self._prefix_path(key)
        with _span("cache.probe_prefix", cat="cache"):
            try:
                payload = path.read_bytes()
                buffer = io.BytesIO(payload)
                with np.load(buffer, allow_pickle=False) as archive:
                    meta = json.loads(str(archive["__meta__"]))
                    arrays = {
                        name: archive[name]
                        for name in archive.files
                        if name != "__meta__"
                    }
                record = PrefixBounds(
                    boundary=int(meta["boundary"]),
                    op_count=int(meta["op_count"]),
                    prefix_digest=meta["prefix_digest"],
                    regions_digest=meta["regions_digest"],
                    domain=tuple(meta["domain"]),
                    backend=meta["backend"],
                    kind=meta["kind"],
                    meta=meta["meta"],
                    arrays=arrays,
                )
            except _DAMAGED_PREFIX_ERRORS:
                _CACHE_COUNTERS["misses"] += 1
                return None
            self._hit(path, len(payload))
        return record

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    #: Both record families, one glob per family (result records first
    #: purely for readability — eviction order is mtime, not family).
    _FAMILY_GLOBS = ("*/*.json", "*/*.px.npz")

    def _entries(self) -> list[tuple[Path, int, int]]:
        """``(path, mtime_ns, size)`` for every record file still on disk,
        across **both** families (result ``.json`` and prefix
        ``.px.npz``) — the budgets govern the whole directory.

        Nanosecond mtimes keep LRU recency honest on filesystems whose
        ``st_mtime`` floats truncate to whole seconds; sorting callers
        tiebreak on the path so same-instant records evict
        deterministically.
        """
        entries = []
        for pattern in self._FAMILY_GLOBS:
            for path in self.root.glob(pattern):
                try:
                    stat = path.stat()
                except OSError:
                    continue  # concurrently evicted by another run
                entries.append((path, stat.st_mtime_ns, stat.st_size))
        return entries

    def _sweep_orphans(self) -> int:
        """Delete the temp files of writers that have exited (killed
        between write and rename); returns the bytes freed.  A live
        writer's temp file is never touched."""
        freed = 0
        for path in self.root.glob("*/tmp*.tmp*"):
            match = _TEMP_NAME.fullmatch(path.name)
            if match is None or _writer_alive(int(match[1])):
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue  # renamed or swept concurrently
            freed += size
        return freed

    def _scan_estimate(self) -> None:
        """Refresh the size estimate from disk (sees other writers' puts)."""
        entries = self._entries()
        self._estimate = (len(entries), sum(size for _, _, size in entries))
        self._puts_since_scan = 0
        _CACHE_COUNTERS["rescans"] += 1

    def _note_put(self, payload_bytes: int) -> None:
        """Update the size estimate after a put; prune when over budget.

        Every :attr:`ESTIMATE_REFRESH` puts the estimate is re-scanned from
        disk instead of incremented: an instance only observes its own
        puts, so on a shared cache directory the increment-only estimate
        drifts below the true size and would delay eviction indefinitely.
        """
        if (
            self._estimate is None
            or self._puts_since_scan >= self.ESTIMATE_REFRESH
        ):
            self._scan_estimate()
        else:
            count, total = self._estimate
            self._estimate = (count + 1, total + payload_bytes)
            self._puts_since_scan += 1
        count, total = self._estimate
        over_entries = self.max_entries is not None and count > self.max_entries
        over_bytes = self.max_bytes is not None and total > self.max_bytes
        if over_entries or over_bytes:
            self.prune(_hysteresis=True)

    def prune(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        _hysteresis: bool = False,
    ) -> PruneResult:
        """Evict least-recently-used records until the budgets hold.

        Explicit arguments override the instance budgets for this pass
        (the ``repro cache prune`` subcommand's one-off mode).  With no
        budget from either source no record is evicted.  Every pass
        first deletes the temp files of writers that died between write
        and rename (invisible to the budgets, which count records only);
        their bytes count in ``freed_bytes``.  Put-triggered prunes
        evict down to 7/8 of each budget so consecutive puts don't
        re-scan the directory every time.  Eviction order is
        least-recently-used by nanosecond mtime with a stable path
        tiebreak, so same-instant records evict deterministically.
        Unlink races are graceful: a record another process already
        removed counts as gone, not as an error.  The pass's full scan
        also resets the in-memory size estimate, so any drift a
        concurrent writer caused is corrected here regardless of the
        periodic re-scan cadence.
        """
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        max_entries = self.max_entries if max_entries is None else max_entries
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        if _hysteresis:
            if max_entries is not None:
                max_entries = max(1, max_entries * 7 // 8)
            if max_bytes is not None:
                max_bytes = max(1, max_bytes * 7 // 8)
        swept = self._sweep_orphans()
        entries = sorted(
            self._entries(), key=lambda entry: (entry[1], str(entry[0]))
        )
        count = len(entries)
        total = sum(size for _, _, size in entries)
        removed = 0
        freed = 0
        for path, _, size in entries:
            over_entries = max_entries is not None and count > max_entries
            over_bytes = max_bytes is not None and total > max_bytes
            if not (over_entries or over_bytes):
                break
            try:
                path.unlink()
            except OSError:
                continue
            count -= 1
            total -= size
            removed += 1
            freed += size
        self._estimate = (count, total)
        self._puts_since_scan = 0
        _CACHE_COUNTERS["evictions"] += removed
        _CACHE_COUNTERS["evicted_bytes"] += freed
        return PruneResult(
            removed=removed,
            freed_bytes=freed + swept,
            remaining=count,
            remaining_bytes=total,
        )

    def __len__(self) -> int:
        """Record files across both families (what ``max_entries`` caps)."""
        return sum(
            1
            for pattern in self._FAMILY_GLOBS
            for _ in self.root.glob(pattern)
        )

    def family_counts(self) -> tuple[int, int]:
        """``(result_records, prefix_records)`` currently on disk."""
        return (
            sum(1 for _ in self.root.glob("*/*.json")),
            sum(1 for _ in self.root.glob("*/*.px.npz")),
        )

    def records(self):
        """Iterate over every readable record in the cache."""
        for path in sorted(self.root.glob("*/*.json")):
            try:
                yield CacheRecord(**json.loads(path.read_text()))
            except (OSError, ValueError, TypeError):
                continue

    # ------------------------------------------------------------------
    # Certified-radius queries
    # ------------------------------------------------------------------

    def radius_table(
        self, network: Network | str
    ) -> dict[str, tuple[float, float]]:
        """Every cached L∞ radius bracket of one network, in one scan.

        Maps ``center_digest`` to ``(certified, falsified)`` — the
        largest ε any cached *verified* record proves and the smallest ε
        any cached *falsified* record refutes for that center.  One pass
        over the cache serves arbitrarily many centers (the manifest
        ``radius`` command's shape); :meth:`radius_bounds` is the
        single-center convenience wrapper.
        """
        net_digest = (
            network if isinstance(network, str) else network_digest(network)
        )
        table: dict[str, tuple[float, float]] = {}
        for record in self.records():
            if record.network_digest != net_digest:
                continue
            meta = record.metadata
            target = meta.get("center_digest")
            if target is None or "epsilon" not in meta:
                continue
            epsilon = float(meta["epsilon"])
            certified, falsified = table.get(target, (0.0, float("inf")))
            if record.kind == "verified":
                certified = max(certified, epsilon)
            elif record.kind == "falsified":
                falsified = min(falsified, epsilon)
            table[target] = (certified, falsified)
        return table

    def radius_bounds(
        self, network: Network | str, center: np.ndarray
    ) -> tuple[float, float]:
        """The tightest cached L∞ radius bracket around ``center``.

        Returns ``(certified, falsified)`` (``0.0`` / ``inf`` when
        nothing is known).  Only records carrying
        ``center_digest``/``epsilon`` metadata participate; callers must
        attach that metadata only to jobs whose target label is the
        network's own prediction at the center (the CLI's manifest
        loader enforces this), since a pinned-label job answers a
        different question and would corrupt the bracket.
        """
        target = point_digest(np.asarray(center, dtype=np.float64).reshape(-1))
        return self.radius_table(network).get(target, (0.0, float("inf")))
