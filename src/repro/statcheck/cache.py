"""Per-file lint result cache.

Lint results are a pure function of (file content, rule set, lint engine
version), so they cache perfectly: the key is a SHA-256 over the raw file
bytes, the normalized path, the ids of the rules being run, a fingerprint
of the rule *implementations* (the source of every module defining a
registered rule — editing a rule invalidates the cache without a manual
schema bump), and a schema constant bumped whenever cache semantics
change.  Entries are tiny JSON documents under ``.statcheck-cache/`` (one
file per key, two-level fanout to keep directories small).

The cache is safe under concurrent writers (``--jobs N``): entries are
written to a temp file and ``os.replace``-d into place, and a corrupt or
truncated entry is treated as a miss and deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from typing import Iterable, List, Optional

from .core import Violation, all_rules

__all__ = ["LintCache", "CACHE_SCHEMA_VERSION", "DEFAULT_CACHE_DIR"]

#: bump when cache entry *semantics* change (rule edits are covered by the
#: rule-source fingerprint below)
CACHE_SCHEMA_VERSION = 2

DEFAULT_CACHE_DIR = ".statcheck-cache"

#: memoized module-source digests; workers build one LintCache per file,
#: so the fingerprint must not re-read rule sources on every construction
_SOURCE_DIGESTS: dict = {}


def _rules_fingerprint(rule_ids: Iterable[str]) -> str:
    """Digest of the source of every module defining a selected rule.

    Editing or adding a rule changes its module's source, which changes
    this fingerprint and therefore every cache key — the fix for stale
    findings being served out of ``.statcheck-cache/`` after a rule edit.
    Unreadable sources (zipapps, frozen modules) degrade to the module
    name, keeping the cache usable rather than failing the lint.
    """
    import inspect

    registry = all_rules()
    modules = sorted(
        {
            registry[rule_id].__module__
            for rule_id in rule_ids
            if rule_id in registry
        }
    )
    digest = hashlib.sha256()
    for module_name in modules:
        cached = _SOURCE_DIGESTS.get(module_name)
        if cached is None:
            try:
                source = inspect.getsource(sys.modules[module_name])
                cached = hashlib.sha256(source.encode("utf-8")).hexdigest()
            except (KeyError, OSError, TypeError):
                cached = f"unreadable:{module_name}"
            _SOURCE_DIGESTS[module_name] = cached
        digest.update(module_name.encode("utf-8"))
        digest.update(b"=")
        digest.update(cached.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class LintCache:
    """Content-addressed store of per-file lint results."""

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        rule_ids: Optional[Iterable[str]] = None,
    ) -> None:
        self.root = root
        ids = sorted(rule_ids or ())
        self.signature = ",".join(ids) + "#" + _rules_fingerprint(ids)
        self.hits = 0
        self.misses = 0

    def key(self, path: str, raw: bytes) -> str:
        digest = hashlib.sha256()
        digest.update(raw)
        digest.update(b"\x00")
        digest.update(path.encode("utf-8", "replace"))
        digest.update(b"\x00")
        digest.update(self.signature.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(str(CACHE_SCHEMA_VERSION).encode("ascii"))
        return digest.hexdigest()

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key[2:] + ".json")

    def get(self, key: str) -> Optional[List[Violation]]:
        entry = self._entry_path(key)
        try:
            with open(entry, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            violations = [
                Violation(
                    path=item["path"],
                    line=item["line"],
                    col=item["col"],
                    rule=item["rule"],
                    message=item["message"],
                )
                for item in document["violations"]
            ]
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt/truncated entry: treat as a miss and drop it.
            self.misses += 1
            try:
                os.unlink(entry)
            except OSError:
                pass
            return None
        self.hits += 1
        return violations

    def put(self, key: str, violations: List[Violation]) -> None:
        entry = self._entry_path(key)
        directory = os.path.dirname(entry)
        try:
            os.makedirs(directory, exist_ok=True)
            document = {
                "violations": [
                    {
                        "path": v.path,
                        "line": v.line,
                        "col": v.col,
                        "rule": v.rule,
                        "message": v.message,
                    }
                    for v in violations
                ],
            }
            fd, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(document, handle)
                os.replace(temp, entry)
            except BaseException:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full cache directory must never fail the lint.
            return
