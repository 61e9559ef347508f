"""On-disk experiment-result cache keyed by configuration and code version.

A cache entry is one JSON file holding the serialized
:class:`~repro.harness.report.ExperimentResult` together with the exact
fingerprint that produced it.  The fingerprint covers:

* the experiment name,
* every field of the :class:`~repro.harness.config.ExperimentConfig`
  (datasets, bandwidth, seed, ...), and
* a *code version* — by default a hash over every ``.py`` file of the
  installed ``repro`` package, so editing any simulator, model or experiment
  invalidates all previously cached results.

This makes suite re-runs incremental: unchanged (config, code) pairs are
served from disk, everything else is recomputed.

Writes are atomic: an entry is written to a temp file in the same
directory (named so it never matches ``*.json``) and moved into place with
``os.replace``, so a killed writer or two racing writers never leave a
torn entry.  Entry files are named ``{name}-{code_version}-{key}.json``, so
pruning stale code versions decides from names alone, and a reader counts
an entry that vanished or does not parse as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterator

import repro
from repro.harness.config import ExperimentConfig
from repro.harness.report import ExperimentResult, json_default
from repro.obs import metrics

_CODE_VERSION: str | None = None
_CODE_VERSION_LOCK = threading.Lock()


def source_tree_version() -> str:
    """Hash of every ``.py`` file of the installed ``repro`` package.

    Computed once per process (double-checked lock: concurrent first calls
    from harness threads race on the same deterministic digest); any source
    edit changes the digest and thereby invalidates all cache entries made
    with the previous code.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        with _CODE_VERSION_LOCK:
            if _CODE_VERSION is None:
                digest = hashlib.sha256()
                package_root = Path(repro.__file__).resolve().parent
                for path in sorted(package_root.rglob("*.py")):
                    digest.update(str(path.relative_to(package_root)).encode())
                    digest.update(path.read_bytes())
                # repro: allow(CONC001) per-process memo of a pure function of the source tree; every process computes the identical digest
                _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def config_fingerprint(config: ExperimentConfig) -> dict[str, Any]:
    """JSON-safe dict of every config field, used as part of the cache key."""
    fingerprint = asdict(config)
    fingerprint["datasets"] = list(fingerprint["datasets"])
    # A scenario's persistent identity is its *definition*, wherever it was
    # resolved from (carried by the config or the process registry); keying
    # on the carried tuple alone would let a redefined registry scenario hit
    # stale entries, and a carried-but-unused spec would split keys needlessly.
    fingerprint["scenarios"] = [
        asdict(spec)
        for spec in (config.effective_scenario(name) for name in config.datasets)
        if spec is not None
    ]
    return fingerprint


class ResultCache:
    """Directory of cached experiment results with fingerprint-based lookup.

    Args:
        directory: where entries are stored (created on first write).
        code_version: override of :func:`source_tree_version`, mainly for
            tests that need to simulate a code change.
    """

    def __init__(self, directory: str | Path, code_version: str | None = None):
        self.directory = Path(directory)
        self.code_version = code_version or source_tree_version()

    @classmethod
    def resolve(
        cls,
        cache: "ResultCache | None",
        use_cache: bool,
        results_dir: str | Path | None,
    ) -> "ResultCache | None":
        """The cache a runner uses, or ``None`` when caching is off.

        Off when ``use_cache`` is False; otherwise the explicit ``cache``,
        else one under ``results_dir / "cache"``, else off — nothing is
        written where no directory was agreed on.
        """
        if not use_cache:
            return None
        if cache is not None:
            return cache
        return cls(Path(results_dir) / "cache") if results_dir is not None else None

    def key(self, name: str, config: ExperimentConfig) -> str:
        """Hex digest identifying (experiment, config, code version)."""
        payload = json.dumps(
            {
                "experiment": name,
                "config": config_fingerprint(config),
                "code_version": self.code_version,
            },
            sort_keys=True,
            default=json_default,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def path_for(self, name: str, config: ExperimentConfig) -> Path:
        """File path of the entry for (experiment, config, code version)."""
        return self._path(name, self.key(name, config))

    def _path(self, name: str, key: str) -> Path:
        return self.directory / f"{name}-{self.code_version}-{key}.json"

    def get(self, name: str, config: ExperimentConfig) -> ExperimentResult | None:
        """The cached result, or ``None`` on a miss.

        A missing entry, one removed by a concurrent ``clear()`` or prune
        while being read, and an unreadable or corrupt one are all misses.
        """
        try:
            entry = json.loads(self.path_for(name, config).read_text())
            result = ExperimentResult.from_dict(entry["result"])
        except (OSError, ValueError, KeyError, TypeError):
            metrics.inc("cache.misses")
            return None
        metrics.inc("cache.hits")
        return result

    def put(
        self,
        name: str,
        config: ExperimentConfig,
        result: ExperimentResult,
        elapsed_seconds: float | None = None,
    ) -> Path:
        """Store one result; returns the path of the written entry.

        Entries of the same experiment written by *older code versions* are
        pruned: they can never hit again (any source edit changes every key),
        so keeping them would grow the cache by one full generation per code
        change.  Entries of the current code version are kept — different
        configurations (bandwidth sweeps, dataset subsets) coexist.

        The entry is written to a per-writer temp file and moved into place
        with ``os.replace``: readers see the previous entry or the new one,
        never a torn one (power-loss durability is not attempted).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        self._prune_stale(name)
        key = self.key(name, config)
        path = self._path(name, key)
        entry = {
            "experiment": name,
            "key": key,
            "code_version": self.code_version,
            "config": config_fingerprint(config),
            "elapsed_seconds": elapsed_seconds,
            "result": result.to_dict(),
        }
        temp = path.with_name(f".{path.stem}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            temp.write_text(json.dumps(entry, indent=2, default=json_default) + "\n")
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)  # only still there when the write failed
        metrics.inc("cache.writes")
        return path

    def _prune_stale(self, name: str) -> None:
        """Drop entries of ``name`` written by other code versions.

        Decided from file names alone: the part between ``name-`` and the
        key is the writer's code version.  Entries of longer names that
        merely start with ``name-`` carry a hyphen in that part and stay.
        """
        prefix = len(name) + 1
        for path in self.directory.glob(f"{name}-*.json"):
            version = path.stem[prefix:].rpartition("-")[0]
            if version != self.code_version and "-" not in version:
                path.unlink(missing_ok=True)

    def entries(self) -> Iterator[Path]:
        """Paths of every entry currently in the cache directory."""
        if self.directory.exists():
            yield from sorted(self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed
