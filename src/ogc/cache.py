"""Content-addressed result cache: one file per key, versioned header.

Keys and code versions are 32-byte BLAKE2b digests (64 hex characters)
from ``_blake2``, the builtin module behind ``hashlib.blake2b``.
Importing ``hashlib`` would load OpenSSL, about 3.5 MB of a ``homology``
command's peak memory, though the cache needs no OpenSSL digest.
``hashlib`` never takes OpenSSL's blake2, so an interpreter without
``_blake2`` has no ``hashlib.blake2b`` either, and no other import is
tried.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

CACHE_FORMAT = 1


@lru_cache(maxsize=None)
def code_hash() -> str:
    """BLAKE2b of the package's own sources, the code version of a record:
    each file's name, then the digest of its bytes.

    Any edit to ``ogc/*.py``, such as a change of canonical
    representatives, changes the hash, so no record computed by other code
    replays.  Computed on first use, and ``_blake2`` is imported here and
    in ``record_key`` only: only cached commands pay for either.
    """
    from _blake2 import blake2b

    digest = blake2b(digest_size=32)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0")
        digest.update(blake2b(path.read_bytes(), digest_size=32).digest())
    return digest.hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def record_key(command: str, params: dict, code_version: str) -> str:
    """BLAKE2b of the command, its keyed flags and the code version."""
    from _blake2 import blake2b

    payload = canonical_json({"command": command, "params": params, "version": code_version})
    return blake2b(payload.encode(), digest_size=32).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get("OGC_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ogc"


def entry_path(cache_dir: Path, key: str) -> Path:
    return Path(cache_dir) / f"{key}.json"


class CacheCorruption(RuntimeError):
    def __init__(self, key, path, reason):
        super().__init__(f"cache entry {key} at {path} is corrupt: {reason}")
        self.key = key


def load(cache_dir: Path, key: str, code_version: str):
    path = entry_path(cache_dir, key)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CacheCorruption(key, path, str(exc))
    if not isinstance(data, dict) or data.get("cache_format") != CACHE_FORMAT:
        raise CacheCorruption(key, path, "unknown cache format")
    if data.get("code_version") != code_version or data.get("key") != key:
        raise CacheCorruption(key, path, "header mismatch")
    if "record" not in data:
        raise CacheCorruption(key, path, "missing record")
    return data["record"]


def store(cache_dir: Path, key: str, code_version: str, record: dict):
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    body = {
        "cache_format": CACHE_FORMAT,
        "code_version": code_version,
        "key": key,
        "record": record,
    }
    path = entry_path(cache_dir, key)
    # a temp name of this writer's own, so concurrent writers of one key
    # never move each other's file; the last replace wins whole
    tmp = cache_dir / f"{key}.{os.getpid()}.tmp"
    try:
        tmp.write_text(canonical_json(body))
        tmp.replace(path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
