"""Content-addressed on-disk cache for experiment results.

A cache entry is keyed by everything that can change an experiment's
numbers:

* the experiment id and its canonicalized kwargs;
* a *code salt* — a digest over the source of the whole ``repro``
  package, so any code change invalidates every entry (coarse but
  impossible to under-invalidate);
* the kernel dispatch mode (fast / reference). The modes
  are bit-identical by contract, but a cache must never be the thing
  that hides a parity break;
* an optional extra fingerprint (the sweep runner passes the format
  configuration fingerprint).

Entries are JSON files under ``<cache_dir>/<key>.json`` (default
``results/cache/``, overridable via ``REPRO_CACHE_DIR``); writes are
atomic (temp file + ``os.replace``) so concurrent runners on the same
tree can only ever observe complete entries. ``REPRO_NO_RESULT_CACHE=1``
disables the cache globally. (Both knobs are listed in the README's
environment-knob table.)

Example::

    from repro.runner.cache import ResultCache, cache_key

    cache = ResultCache()                      # REPRO_CACHE_DIR-aware
    key = cache_key("tbl3", {"fast": True})
    if (hit := cache.get(key)) is None:
        payload = expensive_compute()
        cache.put(key, {"payload": payload})
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

__all__ = ["CACHE_DIR_ENV", "NO_RESULT_CACHE_ENV", "ResultCache",
           "atomic_write_text", "cache_key", "canonical_dumps", "code_salt"]

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the result cache entirely.
NO_RESULT_CACHE_ENV = "REPRO_NO_RESULT_CACHE"

DEFAULT_CACHE_DIR = os.path.join("results", "cache")

_code_salt: str | None = None


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via temp file + ``os.replace``.

    Concurrent readers (or a writer crashing mid-write) can only ever
    observe a complete file; used for cache entries and artifacts alike.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def canonical_dumps(payload) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variance.

    Python's shortest-repr float serialization is itself deterministic,
    so two payloads with bit-identical numbers dump to identical bytes —
    the property the runner's ``--jobs`` determinism contract rests on.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ": "),
                      indent=1, allow_nan=True)


def code_salt() -> str:
    """Digest of every ``.py`` file in the installed ``repro`` package.

    Computed once per process. Hashing content (not mtimes) makes the
    salt reproducible across checkouts: the same source tree always maps
    to the same cache namespace.
    """
    global _code_salt
    if _code_salt is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_salt = digest.hexdigest()[:16]
    return _code_salt


def _dispatch_mode() -> bool:
    from ..kernels.dispatch import use_reference
    return bool(use_reference())


def cache_key(experiment_id: str, kwargs: dict, extra=()) -> str:
    """Content-addressed key for one experiment (or sweep arm) run."""
    payload = {
        "experiment": experiment_id,
        "kwargs": {k: _keyable(v) for k, v in sorted(kwargs.items())},
        "code": code_salt(),
        "dispatch": _dispatch_mode(),
        "extra": _keyable(extra),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _keyable(v):
    """Reduce a kwarg value to a JSON-stable form for key derivation."""
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    if isinstance(v, (list, tuple, set, frozenset)):
        items = sorted(v, key=repr) if isinstance(v, (set, frozenset)) else v
        return [_keyable(i) for i in items]
    if isinstance(v, dict):
        return {str(k): _keyable(val) for k, val in sorted(v.items(), key=lambda kv: str(kv[0]))}
    return repr(v)


class ResultCache:
    """One directory of content-addressed experiment result payloads."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.enabled = os.environ.get(NO_RESULT_CACHE_ENV, "0") != "1"
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        """The cached entry for ``key``, or None (counts hit/miss).

        Anything unreadable, unparsable, or shaped wrong (a hand-edited
        file, a foreign format sharing the directory) degrades to a
        miss and is recomputed — a cache must never abort a run.
        """
        if not self.enabled:
            self.misses += 1
            return None
        path = self.path(key)
        try:
            with open(path) as f:
                payload = json.load(f)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if not isinstance(payload, dict) or "payload" not in payload:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload) -> None:
        """Atomically persist ``payload`` under ``key``."""
        if not self.enabled:
            return
        atomic_write_text(self.path(key), canonical_dumps(payload))

    @property
    def stats(self) -> dict:
        """Hit/miss counters for this cache handle's lifetime."""
        return {"hits": self.hits, "misses": self.misses}
