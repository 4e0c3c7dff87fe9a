"""Cross-run provenance index: the longitudinal history layer.

One repository accumulates many observability artefacts over time — run
ledgers (``*.jsonl`` of :class:`~repro.obs.ledger.RunRecord`), bench
trajectories (``BENCH_*.json``) and saved design-space search outcomes
(``SearchOutcome`` JSON).  Each is self-consistent but none tells the
longitudinal story alone.  :class:`RunIndex` folds them into one store
keyed by the provenance triple every artefact already carries:

* **git sha** — which commit produced the number (``None`` outside a
  checkout, rendered as *untracked*);
* **JobSpec fingerprint** — the content hash of a simulation's exact
  inputs, shared by ledger records, cache entries, journals and (since
  the linkage change) each search :class:`~repro.search.drivers.Evaluation`;
* **timestamp** — wall-clock ordering within and across commits.

The fingerprint is the linkage contract: a frontier point whose
evaluation carries fingerprints resolves — via :meth:`records_for` —
to the exact ledger record(s) whose simulations were folded into its
metrics.  The HTML history report uses this to hyperlink every frontier
marker to its run-ledger row; :mod:`repro.obs.trajectory` uses the
timestamp/sha axes to build per-scheme metric trajectories and gate
them.

Loading is tolerant at the fleet level and strict at the file level:
:meth:`scan` sniffs a directory tree and records per-file problems as
warnings instead of failing the whole index, while the explicit
``add_*`` methods raise :class:`~repro.common.errors.ReproError` so a
named file that cannot be read is a hard error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import ReproError
from repro.common.store import atomic_write_text
from repro.obs.bench import load_bench
from repro.obs.ledger import RunLedger

#: Directory names never descended into by :meth:`RunIndex.scan`.
_SKIP_DIRS = {"__pycache__", "node_modules", ".git"}

#: Scan-cache layout version; bump to invalidate every cached parse.
SCAN_CACHE_VERSION = 1


@dataclass
class IndexedSearch:
    """One saved search outcome plus where the index found it.

    ``created_at`` falls back to the file's mtime for outcomes written
    before the provenance fields existed, so overlays of mixed-age
    outcomes still order correctly.
    """

    outcome: object
    path: str
    created_at: float
    git_sha: str | None = None

    @property
    def label(self) -> str:
        sha = (self.git_sha or "untracked")[:10]
        return f"{sha} · {Path(self.path).name}"


@dataclass
class RunIndex:
    """Provenance-keyed store over ledgers, bench files and searches."""

    records: list = field(default_factory=list)
    bench_points: list = field(default_factory=list)
    searches: list = field(default_factory=list)
    #: Files successfully folded in, in add order.
    sources: list = field(default_factory=list)
    #: Per-file / per-point problems skipped during a tolerant scan.
    warnings: list = field(default_factory=list)
    _by_fingerprint: dict = field(default_factory=dict)
    _seen_run_ids: set = field(default_factory=set)

    # -- explicit loaders (strict: a named file must load) -------------------

    def add_ledger(self, path: str | Path) -> int:
        """Fold in one run-ledger JSONL; returns records added."""
        return self._fold_ledger(path, RunLedger(path).load())

    def _fold_ledger(self, path, records) -> int:
        added = 0
        for record in records:
            if record.run_id in self._seen_run_ids:
                continue
            self._seen_run_ids.add(record.run_id)
            self.records.append(record)
            if record.fingerprint:
                self._by_fingerprint.setdefault(
                    record.fingerprint, []
                ).append(record)
            added += 1
        self.sources.append(str(path))
        return added

    def add_bench(self, path: str | Path) -> int:
        """Fold in one ``BENCH_*.json`` trajectory; returns points added.

        Invalid points are skipped with a warning (the
        :func:`~repro.obs.bench.load_bench` contract); an unreadable
        file or wrong format version raises.
        """
        points, skipped = load_bench(path)
        return self._fold_bench(path, points, skipped)

    def _fold_bench(self, path, points, skipped) -> int:
        self.warnings.extend(skipped)
        self.bench_points.extend(points)
        self.sources.append(str(path))
        return len(points)

    def add_search(self, path: str | Path) -> int:
        """Fold in one saved ``SearchOutcome`` JSON; returns 1."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"cannot read search outcome {path}: {exc}"
            ) from exc
        return self._fold_search(path, payload)

    def _fold_search(self, path, payload) -> int:
        # Imported lazily: repro.search.drivers transitively imports the
        # job scheduler, which imports back into repro.obs — a module-top
        # import here would cycle through the package __init__.
        from repro.search.drivers import SearchOutcome

        path = Path(path)
        if not isinstance(payload, dict):
            raise ReproError(f"{path}: search outcome is not an object")
        outcome = SearchOutcome.from_dict(payload)
        created = outcome.created_at
        if created is None:
            try:
                created = path.stat().st_mtime
            except OSError:
                created = 0.0
        self.searches.append(IndexedSearch(
            outcome=outcome,
            path=str(path),
            created_at=float(created),
            git_sha=outcome.git_sha,
        ))
        self.sources.append(str(path))
        return 1

    # -- tolerant directory scan ---------------------------------------------

    @classmethod
    def scan(cls, root: str | Path, *, cache: str | Path | None = None) -> "RunIndex":
        """Index every recognisable artefact under ``root``.

        Sniffing rules: ``BENCH_*.json`` files are bench trajectories;
        other ``*.json`` dicts carrying ``format_version`` +
        ``evaluations`` + ``frontier`` are search outcomes; ``*.jsonl``
        files whose first record has ``run_id`` and ``metrics`` are run
        ledgers.  Everything else (sweep/search journals, configs) is
        left alone.  Files that sniff positive but fail to load become
        warnings, not errors.

        ``cache`` names an on-disk scan cache (JSON): every file's
        parsed contribution is stored keyed by its ``(mtime_ns, size)``
        stamp, so a rescan of a multi-thousand-run history re-reads only
        the files that changed.  A changed stamp, a deleted file, an
        unreadable cache or a ``SCAN_CACHE_VERSION`` bump all fall back
        to parsing — the cache can only ever cost a re-read, never
        correctness.  The cache file itself is never indexed.
        """
        root = Path(root)
        if not root.is_dir():
            raise ReproError(f"history scan root {root} is not a directory")
        index = cls()
        cache_path = Path(cache) if cache is not None else None
        cached = _load_scan_cache(cache_path)
        fresh: dict[str, dict] = {}
        for path in sorted(root.rglob("*")):
            if not path.is_file():
                continue
            if cache_path is not None and path == cache_path:
                continue
            if any(
                part in _SKIP_DIRS or part.startswith(".")
                for part in path.relative_to(root).parts[:-1]
            ):
                continue
            key = str(path.relative_to(root))
            stamp = _stamp(path)
            if cache_path is not None and stamp is not None:
                hit = cached.get(key)
                if (
                    hit is not None
                    and hit.get("stamp") == stamp
                    and index._fold_cached(path, hit)
                ):
                    fresh[key] = hit
                    continue
            entry = {"stamp": stamp, "kind": "other", "payload": None}
            try:
                if path.name.startswith("BENCH_") and path.suffix == ".json":
                    points, skipped = load_bench(path)
                    index._fold_bench(path, points, skipped)
                    entry.update(kind="bench", payload={
                        "points": points, "warnings": skipped,
                    })
                elif path.suffix == ".json" and _sniff_search(path):
                    payload = json.loads(path.read_text(encoding="utf-8"))
                    index._fold_search(path, payload)
                    entry.update(kind="search", payload=payload)
                elif path.suffix == ".jsonl" and _sniff_ledger(path):
                    records = RunLedger(path).load()
                    index._fold_ledger(path, records)
                    entry.update(kind="ledger", payload=[
                        record.to_dict() for record in records
                    ])
            except ReproError as exc:
                index.warnings.append(str(exc))
                entry.update(kind="warn", payload=str(exc))
            if stamp is not None:
                fresh[key] = entry
        if cache_path is not None:
            _save_scan_cache(cache_path, fresh)
        return index

    def _fold_cached(self, path: Path, entry: dict) -> bool:
        """Replay one scan-cache entry; False sends the file to a re-parse."""
        from repro.obs.ledger import RunRecord

        kind = entry.get("kind")
        payload = entry.get("payload")
        try:
            if kind == "other":
                return True
            if kind == "warn":
                self.warnings.append(str(payload))
                return True
            if kind == "bench":
                self._fold_bench(
                    path, list(payload["points"]), list(payload["warnings"]),
                )
                return True
            if kind == "search":
                self._fold_search(path, payload)
                return True
            if kind == "ledger":
                self._fold_ledger(
                    path, [RunRecord.from_dict(d) for d in payload],
                )
                return True
        except (ReproError, KeyError, TypeError, ValueError):
            return False
        return False

    # -- queries --------------------------------------------------------------

    def records_for(self, fingerprint: str | None) -> list:
        """Ledger records matching one JobSpec fingerprint (add order)."""
        if not fingerprint:
            return []
        return list(self._by_fingerprint.get(fingerprint, []))

    def linked_records(self, evaluation) -> list:
        """Ledger records behind one search evaluation, deduplicated.

        Resolves each of the evaluation's JobSpec fingerprints through
        the index; an evaluation from a pre-linkage journal (no
        fingerprints) or whose runs were never ledgered yields ``[]``.
        """
        out: list = []
        seen: set = set()
        for fingerprint in getattr(evaluation, "fingerprints", ()):
            for record in self.records_for(fingerprint):
                if record.run_id not in seen:
                    seen.add(record.run_id)
                    out.append(record)
        return out

    def searches_by_age(self) -> list:
        """Indexed searches oldest-first (created_at, then path)."""
        return sorted(self.searches, key=lambda s: (s.created_at, s.path))

    def commits(self) -> list:
        """Distinct git shas in first-seen timestamp order.

        ``None`` (untracked runs) participates as its own pseudo-commit
        so out-of-checkout history still renders.
        """
        first_seen: dict = {}

        def note(sha, ts) -> None:
            ts = float(ts or 0.0)
            if sha not in first_seen or ts < first_seen[sha]:
                first_seen[sha] = ts

        for record in self.records:
            note(record.git_sha, record.timestamp)
        for point in self.bench_points:
            note(point.get("git_sha"), point.get("timestamp", 0.0))
        for search in self.searches:
            note(search.git_sha, search.created_at)
        return sorted(first_seen, key=lambda sha: (first_seen[sha], sha or ""))

    def is_empty(self) -> bool:
        return not (self.records or self.bench_points or self.searches)


def _stamp(path: Path) -> list | None:
    """Invalidation key of one scanned file: ``[mtime_ns, size]``."""
    try:
        st = path.stat()
    except OSError:
        return None
    return [st.st_mtime_ns, st.st_size]


def _load_scan_cache(path: Path | None) -> dict:
    """Entries of one scan cache ({} for None/missing/damaged/stale)."""
    if path is None or not path.exists():
        return {}
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {}
    if (
        not isinstance(payload, dict)
        or payload.get("format_version") != SCAN_CACHE_VERSION
        or not isinstance(payload.get("files"), dict)
    ):
        return {}
    return payload["files"]


def _save_scan_cache(path: Path, files: dict) -> None:
    """Persist the scan cache (atomic; failures are non-fatal)."""
    try:
        atomic_write_text(path, json.dumps({
            "format_version": SCAN_CACHE_VERSION,
            "files": files,
        }))
    except (OSError, TypeError, ValueError):
        # An unwritable or unserialisable cache only costs the speedup.
        pass


def _sniff_ledger(path: Path) -> bool:
    """Does the first record of this JSONL look like a run ledger?"""
    line = _first_line(path)
    if line is None:
        return False
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return False
    return isinstance(record, dict) and "run_id" in record \
        and "metrics" in record


def _sniff_search(path: Path) -> bool:
    """Does this JSON document look like a saved search outcome?"""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return False
    return isinstance(payload, dict) and "format_version" in payload \
        and "evaluations" in payload and "frontier" in payload


def _first_line(path: Path) -> str | None:
    """First non-empty line of a text file (None when unreadable/empty)."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    return line
    except (OSError, UnicodeDecodeError):
        return None
    return None
