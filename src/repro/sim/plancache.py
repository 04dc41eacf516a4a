"""Persistent cross-run superblock translation cache.

Hot-plan translation costs an emission + ``compile`` pass per plan
(~0.3 ms); a benchmark with a few hundred hot blocks pays ~0.1 s of
pure translation on every run, and every worker of ``kahrisma
parallel`` pays it again for the *same* program.  This module keeps
translated plan sources and code objects on disk so warm starts skip
translation entirely.

Keying has two levels, mirroring the two ways a cached function can go
stale:

* the **file** key folds in everything that changes the emitted code
  globally: the plan-cache format version, the Python bytecode magic
  number and version (``marshal`` output is CPython-version specific),
  the ELF image digest, the architecture-description digest and
  :data:`~repro.sim.superblock.MAX_BLOCK_LEN`.  Any mismatch selects a
  different file — stale files are simply never read again.
* each **entry** (one plan, keyed by ``isa:entry_ip``) stores a digest
  of the instruction bytes the plan covered.  The engine recomputes
  the digest from live memory at lookup, so plans built over
  self-modified or relocated code miss instead of resurrecting stale
  translations.

Within an entry, variants are namespaced by the observing
configuration (``""`` for purely functional plans, the cycle model's
``config_signature()`` for fused ones) so one file serves functional
fast-forwarding, AIE and DOE runs side by side.

Besides per-plan entries the cache stores **whole-program modules**:
the ahead-of-time tier (:mod:`repro.sim.aot`) translates every plan
a replay of the program executes into a single generated module per
variant namespace
and persists it under the same digest key, so ``kahrisma compile``
output and warm ``--engine aot`` runs share the cache with the
interactive engine's entries.  Modules are megabyte-scale (one source
string plus marshalled bytecode for the whole program), so they live
in *side files* next to the JSON (``plans-<key>.mod-<ns>.bin``,
plain ``marshal``) — warm superblock runs never parse module blobs,
and warm aot runs load them without JSON/base64 overhead.

Writes are atomic (tempfile + ``os.replace``) and merge with the
on-disk state first, under a sidecar file lock (``<file>.lock``,
``flock`` where available, an ``O_EXCL`` spin elsewhere), so any
number of concurrent writers — ``kahrisma parallel`` shard workers,
``kahrisma serve`` worker processes — serialize their
read-merge-write cycles and never corrupt *or drop* each other's
entries.  Lock contention is counted (:attr:`PlanCache.lock_waits`,
exported as ``sim.plancache.lock_waits``); a writer that cannot take
the lock within a bounded wait falls back to the old merge-and-hope
write rather than stalling the simulation.  An optional entry cap
(``limit``, the CLI's ``--plan-cache-limit``) evicts
least-recently-used plan entries at save time so the file cannot grow
unboundedly across runs; evictions are counted for telemetry.
Failures to read or write the cache are silently ignored — the cache
is a pure accelerator, never load-bearing.
"""

from __future__ import annotations

import base64
import importlib.util
import hashlib
import json
import marshal
import os
import sys
import tempfile
from typing import Dict, Optional, Tuple

from ..targetgen.behavior_compiler import SIM_GLOBALS

try:
    import fcntl
except ImportError:  # non-POSIX: O_EXCL spin-lock fallback
    fcntl = None

#: Bump when the on-disk layout, the generated-function calling
#: convention or the behaviour compiler's lowering changes.
FORMAT_VERSION = 4

#: Longest a writer waits for the sidecar lock before degrading to an
#: unlocked (merge-and-hope) write.  Generous: the critical section is
#: one JSON read + dump, milliseconds even for big caches.
LOCK_TIMEOUT = 10.0


class _FileLock:
    """Sidecar advisory lock serializing cache-file writers.

    ``flock`` on POSIX (kernel-cleaned on process death); an
    ``O_CREAT|O_EXCL`` spin with a staleness bound elsewhere.  Used as
    a context manager; :attr:`acquired` reports whether the lock was
    actually taken (callers degrade gracefully when it was not) and
    :attr:`contended` whether another writer held it first.
    """

    def __init__(self, path: str, timeout: float = LOCK_TIMEOUT) -> None:
        self.path = path + ".lock"
        self.timeout = timeout
        self.acquired = False
        self.contended = False
        self._fd: Optional[int] = None

    def __enter__(self) -> "_FileLock":
        import time

        deadline = time.monotonic() + self.timeout
        try:
            if fcntl is not None:
                while True:
                    fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    except OSError:
                        self.contended = True
                        stop = False
                        while True:
                            try:
                                fcntl.flock(
                                    fd, fcntl.LOCK_EX | fcntl.LOCK_NB
                                )
                                break
                            except OSError:
                                if time.monotonic() >= deadline:
                                    stop = True
                                    break
                                time.sleep(0.005)
                        if stop:
                            os.close(fd)
                            return self
                    # The holder unlinks the sidecar on release, so the
                    # inode we opened may be orphaned by the time our
                    # flock lands — a lock on it excludes nobody.
                    # Verify the path still names our inode; reopen
                    # otherwise.
                    try:
                        live = (os.stat(self.path).st_ino
                                == os.fstat(fd).st_ino)
                    except OSError:
                        live = False
                    if live:
                        break
                    os.close(fd)
                    if time.monotonic() >= deadline:
                        return self
                self._fd = fd
                self.acquired = True
            else:  # pragma: no cover - non-POSIX fallback
                while True:
                    try:
                        fd = os.open(
                            self.path,
                            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                            0o644,
                        )
                        self._fd = fd
                        self.acquired = True
                        return self
                    except FileExistsError:
                        self.contended = True
                        try:
                            if (time.time() - os.path.getmtime(self.path)
                                    > self.timeout * 3):
                                os.unlink(self.path)  # stale holder died
                                continue
                        except OSError:
                            pass
                        if time.monotonic() >= deadline:
                            return self
                        time.sleep(0.005)
        except OSError:
            return self  # unlockable filesystem: degrade to unlocked
        return self

    def __exit__(self, *exc) -> None:
        fd = self._fd
        self._fd = None
        if fd is None:
            return
        try:
            if fcntl is not None:
                # Unlink the sidecar *while still holding* the lock so
                # no ``*.lock`` litter outlives the writer; waiters that
                # locked the now-orphaned inode detect it via the inode
                # check in ``__enter__`` and reopen the live path.
                if self.acquired:
                    try:
                        os.unlink(self.path)
                    except OSError:
                        pass
                fcntl.flock(fd, fcntl.LOCK_UN)
                os.close(fd)
            else:  # pragma: no cover
                os.close(fd)
                os.unlink(self.path)
        except OSError:
            pass


def default_cache_dir() -> str:
    """Resolve the cache directory (override: ``KAHRISMA_CACHE_DIR``)."""
    override = os.environ.get("KAHRISMA_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "kahrisma")


class PlanCache:
    """Digest-keyed store of translated superblock functions.

    Create via :meth:`open`; attach to a
    :class:`~repro.sim.superblock.SuperblockEngine` through the
    interpreter's ``plan_cache`` argument.  ``save()`` is cheap when
    nothing changed, so callers flush unconditionally after a run.
    """

    def __init__(self, path: str, *, limit: Optional[int] = None) -> None:
        self.path = path
        self._entries: Dict[str, dict] = {}
        self._dirty = False
        #: Per-plan entry cap (``--plan-cache-limit``).  ``save()``
        #: evicts least-recently-used entries beyond it so the cache
        #: file cannot grow unboundedly across runs.  None = unlimited.
        self.limit = limit
        #: Entries evicted by this process (telemetry counter).
        self.evictions = 0
        #: Times a save/side-file write found the file lock held by a
        #: concurrent writer and had to wait (``sim.plancache.lock_waits``).
        self.lock_waits = 0
        #: Times the lock could not be taken within :data:`LOCK_TIMEOUT`
        #: and the write proceeded unlocked (best-effort degradation).
        self.lock_timeouts = 0
        #: Logical LRU clock: bumped on every lookup hit and record.
        #: Persisted per entry as ``"t"``; approximate across
        #: concurrent writers, which is all LRU needs.
        self._tick = 0
        #: Per-process cache of deserialised callables (marshal is
        #: cheap but not free; shard loops hit the same entries).
        self._fns: Dict[Tuple[str, str], Dict[str, object]] = {}
        self._load()

    # -- construction -------------------------------------------------------

    @classmethod
    def open(
        cls,
        *,
        elf_digest: str,
        arch_digest: str,
        directory: Optional[str] = None,
        block_len: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> "PlanCache":
        """Open (creating lazily) the cache file for one program/arch."""
        if block_len is None:
            from .superblock import MAX_BLOCK_LEN
            block_len = MAX_BLOCK_LEN
        key = hashlib.sha256(
            "\n".join(
                [
                    f"v{FORMAT_VERSION}",
                    base64.b16encode(importlib.util.MAGIC_NUMBER).decode(),
                    sys.version.split()[0],
                    elf_digest,
                    arch_digest,
                    str(block_len),
                ]
            ).encode()
        ).hexdigest()[:16]
        directory = directory if directory else default_cache_dir()
        return cls(os.path.join(directory, f"plans-{key}.json"),
                   limit=limit)

    # -- persistence --------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return
        if data.get("version") != FORMAT_VERSION:
            return
        entries = data.get("entries")
        if isinstance(entries, dict):
            self._entries = entries
        self._tick = max(
            (int(e.get("t", 0)) for e in self._entries.values()),
            default=0,
        )

    def save(self) -> None:
        """Atomically merge-and-write; no-op when nothing was recorded.

        The read-merge-write cycle runs under the sidecar file lock so
        simultaneous writers (shard workers, serve workers) serialize:
        without it, two writers reading the same base file and
        replacing it in turn silently drop whichever entries the loser
        translated.  When the lock cannot be taken within
        :data:`LOCK_TIMEOUT` the write still happens (merge-and-hope,
        the pre-lock behaviour) — the cache must never stall a run.
        """
        if not self._dirty:
            return
        directory = os.path.dirname(self.path)
        try:
            os.makedirs(directory, exist_ok=True)
            with _FileLock(self.path) as lock:
                if lock.contended:
                    self.lock_waits += 1
                if not lock.acquired:
                    self.lock_timeouts += 1
                self._merge_write()
        except OSError:
            return  # read-only HOME, full disk, ...: run uncached

    def _merge_write(self) -> None:
        """The locked critical section of :meth:`save`."""
        directory = os.path.dirname(self.path)
        try:
            # Merge with the on-disk state: last writer wins per
            # entry, which is fine — every writer compiled from the
            # same bytes.
            merged: Dict[str, dict] = {}
            try:
                with open(self.path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
                if data.get("version") == FORMAT_VERSION:
                    on_disk = data.get("entries")
                    if isinstance(on_disk, dict):
                        merged.update(on_disk)
            except (OSError, ValueError):
                pass
            for key, entry in self._entries.items():
                existing = merged.get(key)
                if (
                    existing is not None
                    and existing.get("digest") == entry.get("digest")
                ):
                    variants = dict(existing.get("variants", {}))
                    variants.update(entry["variants"])
                    entry = dict(entry, variants=variants)
                merged[key] = entry
            limit = self.limit
            if limit is not None and len(merged) > limit:
                # LRU eviction: drop the stalest plan entries (lowest
                # logical timestamp) until the cap holds.  Modules are
                # exempt — they are the aot engine's working set.
                victims = sorted(
                    merged, key=lambda k: int(merged[k].get("t", 0))
                )[: len(merged) - limit]
                for key in victims:
                    del merged[key]
                self.evictions += len(victims)
            fd, tmp = tempfile.mkstemp(
                dir=directory, prefix=".plans-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(
                        {"version": FORMAT_VERSION, "entries": merged},
                        fh,
                    )
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._entries = merged
            self._dirty = False
        except OSError:
            return  # read-only HOME, full disk, ...: run uncached

    # -- engine interface ---------------------------------------------------

    def lookup(
        self, isa_id: int, entry_ip: int, namespace: str, digest: str
    ) -> Optional[Dict[str, object]]:
        """Return ``{variant: callable}`` or None on a miss.

        A hit may be empty — meaning a previous run attempted
        translation and compiled nothing — which still tells the
        engine not to retry.  ``digest`` must match the bytes the
        entry was built over.
        """
        key = f"{isa_id}:{entry_ip}"
        entry = self._entries.get(key)
        if entry is None or entry.get("digest") != digest:
            return None
        # LRU touch.  Deliberately does not mark the cache dirty: the
        # refreshed timestamps persist whenever a translation (or an
        # eviction) forces a write anyway, which is all the
        # approximate recency order needs.
        self._tick += 1
        entry["t"] = self._tick
        variants = entry.get("variants", {}).get(namespace)
        if variants is None:
            return None
        cached = self._fns.get((key, namespace))
        if cached is not None:
            return cached
        fns: Dict[str, object] = {}
        for name, payload in variants.items():
            fn = _revive(payload, isa_id, entry_ip)
            if fn is None:
                return None  # undecodable payload: treat as a miss
            fns[name] = fn
        self._fns[(key, namespace)] = fns
        return fns

    def record(
        self,
        isa_id: int,
        entry_ip: int,
        span: Tuple[int, int],
        digest: str,
        namespace: str,
        variants: Dict[str, Tuple[str, object]],
    ) -> None:
        """Store freshly translated variants (possibly none) for a plan."""
        key = f"{isa_id}:{entry_ip}"
        entry = self._entries.get(key)
        if entry is None or entry.get("digest") != digest:
            entry = {
                "span": [span[0], span[1]],
                "digest": digest,
                "variants": {},
            }
            self._entries[key] = entry
        self._tick += 1
        entry["t"] = self._tick
        payloads: Dict[str, dict] = {}
        for name, (source, code) in variants.items():
            payloads[name] = {
                "src": source,
                "code": base64.b64encode(marshal.dumps(code)).decode(),
            }
        entry["variants"][namespace] = payloads
        self._fns.pop((key, namespace), None)
        self._dirty = True

    # -- whole-module (ahead-of-time) interface -----------------------------

    def _module_path(self, namespace: str) -> str:
        """Side-file path for one module namespace.

        Namespaces are configuration signatures with arbitrary
        characters, so the filename carries a short digest instead.
        """
        stem = self.path[:-5] if self.path.endswith(".json") else self.path
        tag = hashlib.sha256(namespace.encode()).hexdigest()[:12]
        return f"{stem}.mod-{tag}.bin"

    def module_stamp(self, namespace: str) -> Optional[Tuple[int, int]]:
        """Cheap identity stamp of the stored module: (size, mtime_ns).

        Lets :func:`repro.sim.aot.prepare` serve its per-process memo
        without re-reading (and re-``exec``-ing) a megabyte module on
        every run; None when no module is stored.
        """
        try:
            st = os.stat(self._module_path(namespace))
        except OSError:
            return None
        return (st.st_size, st.st_mtime_ns)

    def lookup_module(self, namespace: str) -> Optional[dict]:
        """Return the stored AOT module payload for ``namespace``.

        The payload is the dict :meth:`record_module` stored (source,
        marshalled code, per-entry metadata); :mod:`repro.sim.aot`
        revives it.  The file key already pins the ELF image, the
        architecture and the block cap, so the namespace — the cycle
        model's configuration signature, ``""`` for functional — is
        the only remaining coordinate.
        """
        try:
            with open(self._module_path(namespace), "rb") as fh:
                payload = marshal.load(fh)
        except (OSError, ValueError, EOFError, TypeError):
            return None
        return payload if isinstance(payload, dict) else None

    def record_module(self, namespace: str, payload: dict) -> None:
        """Store one compiled AOT module (overwriting any old one).

        Written immediately (atomic tempfile + rename): module
        compilation is expensive enough that deferring the write to
        :meth:`save` buys nothing, and an exclusive side file per
        namespace cannot conflict with concurrent entry writers.
        """
        path = self._module_path(namespace)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            # Same sidecar lock as save(): concurrent compiles of the
            # same namespace (e.g. two serve workers racing a cold
            # cache) write identical payloads, so serializing them is
            # about avoiding wasted temp files and torn mtime stamps
            # (module_stamp feeds the per-process revival memo).
            with _FileLock(path) as lock:
                if lock.contended:
                    self.lock_waits += 1
                if not lock.acquired:
                    self.lock_timeouts += 1
                fd, tmp = tempfile.mkstemp(
                    dir=directory, prefix=".mod-", suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "wb") as fh:
                        marshal.dump(payload, fh)
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        except (OSError, ValueError):
            return  # best effort, same contract as save()

    def __len__(self) -> int:
        return len(self._entries)


def _revive(payload: dict, isa_id: int, entry_ip: int):
    """Rebuild a callable from a cached payload; None when impossible."""
    code = None
    raw = payload.get("code")
    if raw:
        try:
            code = marshal.loads(base64.b64decode(raw))
        except (ValueError, EOFError, TypeError):
            code = None
    if code is None:
        source = payload.get("src")
        if not source:
            return None
        try:
            code = compile(
                source, f"<plancache:{isa_id}:{entry_ip:#x}>", "exec"
            )
        except SyntaxError:
            return None
    namespace = dict(SIM_GLOBALS)
    try:
        exec(code, namespace)
    except Exception:
        return None
    return namespace.get("_superblock_body")
