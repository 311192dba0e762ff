"""Content-addressed result cache + checkpoint store for sweep sessions.

Every report a sweep produces is a deterministic function of (spec, model,
data recipe, engine state) — the executors are *proven* bit-identical to
serial recomputation — so a completed :class:`CompressionReport` can be
stored under a content address and replayed for free when the same
submission arrives again:

* :class:`CacheKey` — the address: ``CompressionSpec.digest()`` (canonical
  JSON), :func:`~repro.api.digests.model_digest` (parameter-byte hash) and
  :func:`~repro.api.digests.data_digest` (the ``repro-job/1`` base64-npy
  data recipe), combined into one SHA-256.
* :class:`FileReportCache` — the persistent store: one atomic
  ``repro-cache-entry/1`` JSON file per report (digest-guarded; a corrupt,
  truncated, non-UTF-8 or unknown-version entry is a warning and a *miss*,
  never a crash), an ``.npz`` checkpoint of the finalized compressed
  model's parameters, and a ``seq`` file holding the store-wide recency
  counter, so a hit costs O(1) whatever the store's size.  The root
  defaults to ``~/.cache/repro`` and is overridden by the
  ``REPRO_CACHE_DIR`` environment variable.
* :class:`MemoryReportCache` — the same contract over one dict of bytes,
  through the same JSON and npz codecs, for tests and single-process warm
  layers.
* Warm starts — :meth:`ReportCache.nearest_checkpoint` finds the entry with
  the same (method, model, data) whose spec payload is *closest* to a new
  near-miss submission, so its checkpoint can seed fine-tuning instead of
  training from dense.
* Plan artifacts — :meth:`ReportCache.put_plan` / :meth:`get_plan` store
  serialized ``repro-plan/1`` compiled-inference payloads next to the
  checkpoints, so :func:`~repro.api.plan.compile_report` can serve a plan
  from the store instead of re-tracing and re-lowering the model.

:class:`~repro.api.session.SweepSession` consults the store through the
``cache=`` policy knob (``"off"`` / ``"read"`` / ``"write"`` /
``"readwrite"``, a :class:`ReportCache` instance, or an explicit
``(store, policy)`` pair); see :func:`resolve_cache`.

Maintenance from the command line::

    python -m repro.api.cache stats            # entries / checkpoints / bytes
    python -m repro.api.cache gc --max-entries 100
    python -m repro.api.cache gc --clear
"""

from __future__ import annotations

import fcntl
import io
import json
import os
import tempfile
import threading
import warnings
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple, Union)

import numpy as np

from .digests import data_digest, model_digest, payload_digest
from .pipeline import CompressionReport
from .spec import CompressionSpec

#: Wire-format identifier of stored cache entries.
CACHE_ENTRY_SCHEMA = "repro-cache-entry/1"
#: Environment variable overriding the default filesystem cache root.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"
#: Accepted values of the session-level ``cache=`` policy knob.
CACHE_POLICIES = ("off", "read", "write", "readwrite")

CacheArg = Union[None, str, "ReportCache", Tuple["ReportCache", str]]


class CacheIntegrityWarning(UserWarning):
    """A stored cache entry failed validation and was treated as a miss."""


class CacheEntryError(ValueError):
    """Internal: why an entry failed validation (surfaced as a warning)."""


# --------------------------------------------------------------------------- #
# Keys
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CacheKey:
    """The content address of one submission.

    ``spec`` / ``model`` / ``data`` are the three component digests;
    ``method`` rides along (it is already encoded in ``spec``) so stores
    can group entries for near-miss lookups without re-parsing spec
    payloads.
    """

    method: str
    spec: str
    model: str
    data: str

    @property
    def combined(self) -> str:
        """One SHA-256 over the three component digests — the store address."""
        return payload_digest(
            {"spec": self.spec, "model": self.model, "data": self.data})

    def to_dict(self) -> Dict[str, str]:
        return {"method": self.method, "spec": self.spec, "model": self.model,
                "data": self.data, "combined": self.combined}


def cache_key(spec: CompressionSpec, model: Any,
              plan: Any = None) -> Optional[CacheKey]:
    """Build the :class:`CacheKey` of (validated spec, built model, loader plan).

    ``None`` when the submission has no sound content address: the spec
    carries a live ``Module`` (no canonical payload) or the data plan wraps
    live user loaders (no canonical recipe).
    """
    try:
        spec_part = spec.digest()
    except TypeError:
        return None
    data_part = data_digest(plan) if plan is not None else payload_digest(None)
    if data_part is None:
        return None
    return CacheKey(method=spec.method, spec=spec_part,
                    model=model_digest(model), data=data_part)


@dataclass
class WarmStart:
    """A cached checkpoint selected to seed a near-miss run's fine-tuning.

    ``source`` is the providing entry's combined key (recorded on the
    warm-started run's own cache entry as ``warm_source``); ``spec`` is the
    providing entry's spec; ``state`` the stored parameter/buffer arrays.
    """

    source: str
    spec: CompressionSpec
    state: Dict[str, np.ndarray]


@dataclass
class CacheStats:
    """Store contents plus this instance's traffic counters."""

    entries: int = 0
    checkpoints: int = 0
    plans: int = 0
    total_bytes: int = 0
    hits: int = 0
    misses: int = 0
    writes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"entries": self.entries, "checkpoints": self.checkpoints,
                "plans": self.plans, "total_bytes": self.total_bytes,
                "hits": self.hits, "misses": self.misses,
                "writes": self.writes}


# --------------------------------------------------------------------------- #
# Spec nearness (for warm-start selection)
# --------------------------------------------------------------------------- #
_MISSING = object()


def _flatten(payload: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    if isinstance(payload, Mapping):
        for key, value in payload.items():
            yield from _flatten(value, f"{prefix}{key}.")
    elif isinstance(payload, (list, tuple)):
        for index, value in enumerate(payload):
            yield from _flatten(value, f"{prefix}{index}.")
    else:
        yield prefix[:-1], payload


def spec_distance(a: Mapping[str, Any], b: Mapping[str, Any]) -> float:
    """How far apart two spec payloads are (0 = identical).

    Each differing leaf contributes 1, except numeric pairs, which
    contribute their relative difference in ``(0, 1)`` — so among cached
    candidates that differ in the same knob (say the pruning ratio), the
    numerically *nearest* operating point wins.
    """
    flat_a, flat_b = dict(_flatten(a)), dict(_flatten(b))
    score = 0.0
    for path in set(flat_a) | set(flat_b):
        va = flat_a.get(path, _MISSING)
        vb = flat_b.get(path, _MISSING)
        if va is _MISSING or vb is _MISSING:
            score += 1.0
            continue
        numeric = (isinstance(va, (int, float)) and not isinstance(va, bool)
                   and isinstance(vb, (int, float)) and not isinstance(vb, bool))
        if numeric:
            score += min(1.0, abs(va - vb) / (1.0 + abs(va) + abs(vb)))
        elif va != vb:
            score += 1.0
    return score


# --------------------------------------------------------------------------- #
# Byte codecs shared by every store
# --------------------------------------------------------------------------- #
#: The artifact kinds every store holds, with their on-disk file suffixes.
_KINDS = {"entries": ".json", "checkpoints": ".npz", "plans": ".json"}


def _dump(payload: Mapping[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _parse(data: Union[bytes, str], what: str) -> Any:
    """UTF-8 + JSON decode; any failure is a :class:`CacheEntryError`."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes)
                          else data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise CacheEntryError(f"unreadable {what} JSON ({exc})") from None


def _encode_state(state: Mapping[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **{name: np.ascontiguousarray(array)
                        for name, array in state.items()})
    return buffer.getvalue()


def _decode_state(data: bytes) -> Dict[str, np.ndarray]:
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


# --------------------------------------------------------------------------- #
# The store contract
# --------------------------------------------------------------------------- #
class ReportCache:
    """Content-addressed report + checkpoint + plan store.

    Subclasses implement five byte-level primitives over the artifact kinds
    ``"entries"``, ``"checkpoints"`` and ``"plans"`` (``_read`` /
    ``_write`` / ``_names`` / ``_remove`` / ``_nbytes``) plus
    ``_next_seq``, the store-wide recency counter.  The codecs, validation,
    traffic counters and near-miss search are shared here, and every read
    goes through :meth:`_load`, which decodes and validates an artifact
    once.  No read raises on a damaged artifact: a non-UTF-8 byte,
    truncated JSON or npz, unknown schema version or digest mismatch is
    reported as a :class:`CacheIntegrityWarning` and treated as a miss.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0

    # -- primitives (subclass responsibility) ---------------------------- #
    def _read(self, kind: str, name: str) -> Optional[bytes]:
        """One artifact's stored bytes, or ``None`` when absent."""
        raise NotImplementedError

    def _write(self, kind: str, name: str, data: bytes) -> None:
        """Store one artifact atomically, replacing any previous one."""
        raise NotImplementedError

    def _names(self, kind: str) -> List[str]:
        """Names of every stored artifact of ``kind`` (no particular order).

        Recency does **not** live here: filesystem mtimes are too coarse
        (1 s on some filesystems) to order same-second writes, so age is
        tracked by the ``seq`` stamp persisted inside each entry — see
        :meth:`_lru_keys`.
        """
        raise NotImplementedError

    def _remove(self, kind: str, name: str) -> None:
        """Drop one artifact (missing artifacts are fine)."""
        raise NotImplementedError

    def _nbytes(self, kind: str, name: str) -> int:
        """Stored size of one artifact (0 when absent)."""
        raise NotImplementedError

    def _next_seq(self) -> int:
        """Mint the next store-wide recency stamp; never the same twice."""
        raise NotImplementedError

    # -- codecs ------------------------------------------------------------ #
    @staticmethod
    def _encode(key: CacheKey, report: CompressionReport,
                has_checkpoint: bool,
                warm_source: Optional[str]) -> Dict[str, Any]:
        report_payload = report.to_dict()
        return {
            "schema": CACHE_ENTRY_SCHEMA,
            "key": key.to_dict(),
            "spec": report_payload["spec"],
            "report": report_payload,
            "report_digest": payload_digest(report_payload),
            "checkpoint": bool(has_checkpoint),
            "warm_source": warm_source,
        }

    @staticmethod
    def _decode(data: Union[bytes, str]) -> Dict[str, Any]:
        """Parse + validate one entry; raises :class:`CacheEntryError`."""
        payload = _parse(data, "entry")
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema != CACHE_ENTRY_SCHEMA:
            raise CacheEntryError(
                f"unsupported cache-entry schema {schema!r}: expected "
                f"'{CACHE_ENTRY_SCHEMA}'")
        report_payload = payload.get("report")
        if payload.get("report_digest") != payload_digest(report_payload):
            raise CacheEntryError(
                "report digest mismatch: the stored entry was corrupted")
        return payload

    @staticmethod
    def _decode_plan(data: Union[bytes, str]) -> Dict[str, Any]:
        """Parse + validate one plan; raises :class:`CacheEntryError`."""
        payload = _parse(data, "plan")
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if not (isinstance(schema, str) and schema.startswith("repro-plan/")):
            raise CacheEntryError(f"unsupported plan schema {schema!r}")
        body = {k: v for k, v in payload.items() if k != "digest"}
        if payload.get("digest") != payload_digest(body):
            raise CacheEntryError(
                "plan payload digest mismatch: the stored artifact was "
                "corrupted")
        return payload

    def _warn(self, name: str, error: Exception) -> None:
        warnings.warn(
            f"report-cache entry {name[:12]}… is unusable and was "
            f"treated as a miss: {error}", CacheIntegrityWarning,
            stacklevel=4)

    def _load(self, kind: str, name: str, decode: Callable[[bytes], Any],
              count: bool = False) -> Any:
        """Read, decode and validate one artifact; ``None`` on a miss.

        A damaged artifact is a :class:`CacheIntegrityWarning` plus a miss.
        ``count=True`` records the outcome in the hit / miss counters.
        """
        data = self._read(kind, name)
        value = None
        if data is not None:
            try:
                value = decode(data)
            except Exception as exc:
                self._warn(name, exc)
        if count:
            with self._lock:
                if value is None:
                    self._misses += 1
                else:
                    self._hits += 1
        return value

    # -- recency ----------------------------------------------------------- #
    def _entry_seq(self, combined: str) -> int:
        """The persisted ``seq`` of one entry; ``-1`` for damaged/legacy."""
        payload = self._load("entries", combined,
                             lambda data: _parse(data, "entry"))
        seq = payload.get("seq") if isinstance(payload, dict) else None
        return seq if isinstance(seq, int) and not isinstance(seq, bool) else -1

    def _lru_keys(self) -> List[str]:
        """Combined keys, least recently used first.

        Ordered by the persisted ``seq`` (minted by :meth:`_next_seq` on
        :meth:`put` and on every :meth:`get` hit) with the combined digest
        as a deterministic tie-break; legacy entries without a ``seq`` sort
        first and are evicted before anything stamped.
        """
        return sorted(self._names("entries"),
                      key=lambda combined: (self._entry_seq(combined),
                                            combined))

    # -- public API -------------------------------------------------------- #
    def get(self, key: CacheKey) -> Optional[CompressionReport]:
        """The stored report for ``key``, or ``None`` (miss) — never raises."""
        def decode(data: bytes) -> Tuple[Dict[str, Any], CompressionReport]:
            entry = self._decode(data)
            return entry, CompressionReport.from_dict(entry["report"])

        loaded = self._load("entries", key.combined, decode, count=True)
        if loaded is None:
            return None
        entry, report = loaded
        try:
            # Touch: refresh the entry's seq so gc eviction is genuinely
            # least-recently-*used*, not write-order.  Best effort — a
            # read-only store must not turn a hit into a crash.
            entry["seq"] = self._next_seq()
            self._write("entries", key.combined, _dump(entry))
        except Exception:
            pass
        return report

    def entry(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        """The validated raw entry payload, or ``None`` — never raises."""
        return self._load("entries", key.combined, self._decode)

    def put(self, key: CacheKey, report: CompressionReport,
            checkpoint: Optional[Mapping[str, np.ndarray]] = None,
            warm_source: Optional[str] = None) -> None:
        """Store ``report`` (and optionally its checkpoint) under ``key``.

        The entry is written after the checkpoint so a reader never sees an
        entry advertising a checkpoint that does not exist yet; writes are
        atomic per artifact.
        """
        if checkpoint is not None:
            self._write("checkpoints", key.combined, _encode_state(checkpoint))
        entry = self._encode(key, report, checkpoint is not None, warm_source)
        entry["seq"] = self._next_seq()
        self._write("entries", key.combined, _dump(entry))
        with self._lock:
            self._writes += 1

    def checkpoint(self, key: CacheKey) -> Optional[Dict[str, np.ndarray]]:
        """The stored parameter/buffer arrays for ``key``, or ``None``."""
        return self._load("checkpoints", key.combined, _decode_state)

    def nearest_checkpoint(self, key: CacheKey,
                           spec_payload: Mapping[str, Any]
                           ) -> Optional[WarmStart]:
        """The closest same-(method, model, data) checkpoint to a new spec.

        Candidates must share the method, model digest and data digest
        (a checkpoint from another model or data recipe cannot seed this
        run), must not *be* the queried key, and must actually carry a
        checkpoint.  Among those, the entry whose stored spec payload has
        the smallest :func:`spec_distance` to ``spec_payload`` wins;
        distance ties break on the combined digest, so the winner is a
        deterministic function of the store *contents* rather than of
        write order or filesystem timestamps.
        """
        best: Optional[Tuple[float, str, Dict[str, Any]]] = None
        for combined in self._names("entries"):
            if combined == key.combined:
                continue
            entry = self._load("entries", combined, self._decode)
            if entry is None:
                continue  # damaged entries never seed anything
            entry_key = entry.get("key") or {}
            if (entry_key.get("method") != key.method
                    or entry_key.get("model") != key.model
                    or entry_key.get("data") != key.data
                    or not entry.get("checkpoint")):
                continue
            distance = spec_distance(spec_payload, entry.get("spec") or {})
            if best is None or (distance, combined) < (best[0], best[1]):
                best = (distance, combined, entry)
        if best is None:
            return None
        _, combined, entry = best
        state = self._load("checkpoints", combined, _decode_state)
        if state is None:
            return None
        return WarmStart(source=combined,
                         spec=CompressionSpec.from_dict(entry["spec"]),
                         state=state)

    # -- plan artifacts ----------------------------------------------------- #
    def get_plan(self, address: str) -> Optional[Dict[str, Any]]:
        """The stored ``repro-plan/1`` payload at ``address`` — never raises.

        Validation mirrors :meth:`get`: unreadable JSON, a non-plan schema
        or a payload-digest mismatch is a :class:`CacheIntegrityWarning`
        plus a miss, so a corrupt artifact can only cost a recompile.
        """
        return self._load("plans", address, self._decode_plan, count=True)

    def put_plan(self, address: str, payload: Mapping[str, Any]) -> None:
        """Store one serialized plan payload under ``address``."""
        if not isinstance(payload, Mapping):
            raise TypeError(
                f"plan payload must be a mapping, got {type(payload).__name__}")
        self._write("plans", address, _dump(dict(payload)))
        with self._lock:
            self._writes += 1

    # -- maintenance ------------------------------------------------------- #
    def stats(self) -> CacheStats:
        sizes = {kind: [self._nbytes(kind, name) for name in self._names(kind)]
                 for kind in _KINDS}
        with self._lock:
            return CacheStats(entries=len(sizes["entries"]),
                              checkpoints=len(sizes["checkpoints"]),
                              plans=len(sizes["plans"]),
                              total_bytes=sum(map(sum, sizes.values())),
                              hits=self._hits, misses=self._misses,
                              writes=self._writes)

    def gc(self, max_entries: Optional[int] = None,
           clear: bool = False) -> int:
        """Evict entries (least recently used first) down to ``max_entries``.

        Recency is the persisted per-entry ``seq``, not filesystem mtime —
        a :meth:`get` hit protects an entry from eviction, and same-second
        writes still evict in a deterministic order.  ``clear=True``
        empties the store, plan artifacts included.  Checkpoints are
        removed with their entries.  Returns the number of entries
        removed.
        """
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        keys = self._lru_keys()
        if clear:
            doomed = keys
            for address in self._names("plans"):
                self._remove("plans", address)
        elif max_entries is not None and len(keys) > max_entries:
            doomed = keys[:len(keys) - max_entries]
        else:
            doomed = []
        for combined in doomed:
            self._remove("entries", combined)
            self._remove("checkpoints", combined)
        return len(doomed)

    def __len__(self) -> int:
        return len(self._names("entries"))


# --------------------------------------------------------------------------- #
# In-memory store (tests / single-process warm layer)
# --------------------------------------------------------------------------- #
class MemoryReportCache(ReportCache):
    """The store contract over one ``{(kind, name): bytes}`` dict.

    Nothing touches the filesystem, but every artifact goes through the
    same byte codecs as :class:`FileReportCache` (JSON entries and plans,
    ``.npz`` checkpoints), so everything the persistent store guarantees
    (schema validation, digest guarding, wire-format fidelity of replayed
    reports and checkpoints) holds here too.
    """

    def __init__(self) -> None:
        super().__init__()
        self._blobs: Dict[Tuple[str, str], bytes] = {}
        self._last_seq = -1

    def _read(self, kind: str, name: str) -> Optional[bytes]:
        with self._lock:
            return self._blobs.get((kind, name))

    def _write(self, kind: str, name: str, data: bytes) -> None:
        with self._lock:
            self._blobs[kind, name] = data

    def _names(self, kind: str) -> List[str]:
        with self._lock:
            return [name for stored, name in self._blobs if stored == kind]

    def _remove(self, kind: str, name: str) -> None:
        with self._lock:
            self._blobs.pop((kind, name), None)

    def _nbytes(self, kind: str, name: str) -> int:
        with self._lock:
            return len(self._blobs.get((kind, name), b""))

    def _next_seq(self) -> int:
        with self._lock:
            self._last_seq += 1
            return self._last_seq


# --------------------------------------------------------------------------- #
# Filesystem store
# --------------------------------------------------------------------------- #
class FileReportCache(ReportCache):
    """Persistent content-addressed store under one root directory.

    Layout::

        <root>/entries/<combined>.json       repro-cache-entry/1 payloads
        <root>/checkpoints/<combined>.npz    finalized model parameters
        <root>/plans/<address>.json          repro-plan/1 compiled plans
        <root>/seq                           the last recency stamp minted

    Artifacts are written atomically (temp file + ``os.replace``) so
    concurrent sessions — or a crash mid-write — can never leave a
    half-written artifact that parses; anything damaged on disk is handled
    by the read-side validation (warning + miss).  The ``seq`` counter is
    read and advanced under an exclusive ``flock``, so writers sharing a
    root — threads or processes — never mint the same stamp.
    """

    def __init__(self, root: Union[str, "os.PathLike[str]"]):
        super().__init__()
        self.root = os.path.abspath(os.fspath(root))

    # -- paths ------------------------------------------------------------- #
    def _path(self, kind: str, name: str) -> str:
        return os.path.join(self.root, kind, name + _KINDS[kind])

    def _entry_path(self, combined: str) -> str:
        return self._path("entries", combined)

    def _plan_path(self, address: str) -> str:
        return self._path("plans", address)

    # -- primitives -------------------------------------------------------- #
    def _read(self, kind: str, name: str) -> Optional[bytes]:
        try:
            with open(self._path(kind, name), "rb") as stream:
                return stream.read()
        except (FileNotFoundError, NotADirectoryError):
            return None
        except OSError as exc:
            self._warn(name, exc)
            return None

    def _write(self, kind: str, name: str, data: bytes) -> None:
        path = self._path(kind, name)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        handle, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                                            suffix=_KINDS[kind])
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def _names(self, kind: str) -> List[str]:
        suffix = _KINDS[kind]
        try:
            names = os.listdir(os.path.join(self.root, kind))
        except (FileNotFoundError, NotADirectoryError):
            return []
        return sorted(name[:-len(suffix)] for name in names
                      if name.endswith(suffix) and not name.startswith("."))

    def _remove(self, kind: str, name: str) -> None:
        try:
            os.unlink(self._path(kind, name))
        except OSError:
            pass

    def _nbytes(self, kind: str, name: str) -> int:
        try:
            return os.path.getsize(self._path(kind, name))
        except OSError:
            return 0

    def _next_seq(self) -> int:
        os.makedirs(self.root, exist_ok=True)
        fd = os.open(os.path.join(self.root, "seq"), os.O_RDWR | os.O_CREAT,
                     0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # released by os.close
            try:
                seq = int(os.read(fd, 32)) + 1
            except ValueError:
                # No counter yet (or a torn one): seed it once from the
                # highest stamp on any stored entry.
                seq = max(map(self._entry_seq, self._names("entries")),
                          default=-1) + 1
            data = str(seq).encode("ascii")
            os.pwrite(fd, data, 0)
            os.ftruncate(fd, len(data))
            return seq
        finally:
            os.close(fd)


# --------------------------------------------------------------------------- #
# Defaults + the session-facing policy knob
# --------------------------------------------------------------------------- #
def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro`` when unset."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def default_cache() -> FileReportCache:
    """The process-default persistent store (honours ``REPRO_CACHE_DIR``)."""
    return FileReportCache(default_cache_dir())


def resolve_cache(cache: CacheArg) -> Tuple[Optional[ReportCache], str]:
    """Normalize the ``cache=`` knob into ``(store, policy)``.

    * ``None`` / ``"off"`` → no store, policy ``"off"``;
    * ``"read"`` / ``"write"`` / ``"readwrite"`` → the
      :func:`default_cache` store under that policy;
    * a :class:`ReportCache` instance → that store, ``"readwrite"``;
    * an explicit ``(store, policy)`` pair → as given, except that
      ``(store, "off")`` is ``"off"``: no store.
    """
    if cache is None or cache == "off":
        return None, "off"
    if isinstance(cache, str):
        if cache not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {cache!r}: expected one of "
                f"{list(CACHE_POLICIES)}")
        return default_cache(), cache
    if isinstance(cache, ReportCache):
        return cache, "readwrite"
    if isinstance(cache, tuple) and len(cache) == 2:
        store, policy = cache
        if not isinstance(store, ReportCache):
            raise TypeError(
                f"cache=(store, policy) requires a ReportCache store, got "
                f"{type(store).__name__}")
        if policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}: expected one of "
                f"{list(CACHE_POLICIES)}")
        return (None, "off") if policy == "off" else (store, policy)
    raise TypeError(
        "cache must be None, a policy string ('off'/'read'/'write'/"
        "'readwrite'), a ReportCache, or a (ReportCache, policy) tuple; "
        f"got {type(cache).__name__}")


# --------------------------------------------------------------------------- #
# ``python -m repro.api.cache`` — stats / gc maintenance
# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.api.cache",
        description="Inspect or prune the content-addressed report cache.")
    parser.add_argument("--dir", default=None,
                        help="cache root (default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro)")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("stats", help="print entry / checkpoint / byte counts")
    gc_parser = commands.add_parser(
        "gc", help="evict entries (least recently used first)")
    gc_parser.add_argument("--max-entries", type=int, default=None,
                           help="keep at most this many entries")
    gc_parser.add_argument("--clear", action="store_true",
                           help="remove every entry, checkpoint and plan")
    args = parser.parse_args(argv)

    store = FileReportCache(args.dir) if args.dir else default_cache()
    if args.command == "stats":
        stats = store.stats()
        print(json.dumps({"root": store.root,
                          **{k: v for k, v in stats.to_dict().items()
                             if k in ("entries", "checkpoints", "plans",
                                      "total_bytes")}},
                         indent=2, sort_keys=True))
        return 0
    if args.command == "gc" and not args.clear and args.max_entries is None:
        parser.error("gc needs --max-entries or --clear")
    removed = store.gc(max_entries=args.max_entries, clear=args.clear)
    remaining = len(store)
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
          f"({remaining} remaining) from {store.root}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
