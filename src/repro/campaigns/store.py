"""Content-addressed, shard-aware JSONL result store for campaign trials.

One *base* file per (campaign, scale) spec key — ``<spec_key>.jsonl`` —
plus, when independent workers write concurrently, one shard file per
writer under ``<spec_key>/<shard>.jsonl``.  One JSON line per trial
record, appended as trials complete.  Because both the file name
(:meth:`~repro.campaigns.spec.CampaignSpec.spec_key`) and the per-record
``case_key`` are stable hashes of code-relevant parameters, the store
gives four things for free:

* **cache hits** — re-running a completed campaign finds every case key
  and executes zero new trials (pure replay);
* **resume** — an interrupted campaign re-runs only the missing cases
  (each append is a single ``write`` of the full line, so a crash loses
  at most the trial in flight);
* **comparison** — records from different runs of the same spec land in
  the same file and can be diffed or aggregated across runs;
* **sharding** — elastic queue workers (:mod:`repro.campaigns.queue`)
  write disjoint shards; :meth:`ResultStore.load` reads base + shards
  and dedups by case key, so duplicated re-execution after a lease
  reclaim is idempotent (records are deterministic per case key).

Serial executions (``workers=1``, no shard) keep writing the flat base
file, byte-identical to the pre-sharding layout.  ``merge`` folds the
shards back into the base file; ``compact`` drops superseded duplicate
lines within a file.

Writes go through :meth:`ResultStore.appender`: one ``O_APPEND``
descriptor that lives for one ``with`` block — one campaign run in
:func:`~repro.campaigns.executor.execute_campaign`, one chunk in
:func:`~repro.campaigns.queue.run_worker`, one record in
:meth:`ResultStore.append` — and is closed however the block exits.
``merge`` and ``compact`` replace a file with a new one, so running
either on a file a live writer still appends to is unsupported: the
writer's later lines go to the replaced file and are lost (an
``append`` between runs always opens the current file).

Corruption policy: a *trailing* line that fails to decode is tolerated
(the torn tail of an interrupted writer); any *interior* undecodable
line raises :class:`CorruptStoreError` naming the file and line, since
silently skipping it would make resume re-run — or worse, trust — a
store that lost data mid-file.

Changing any code-relevant parameter (a case value, the measurement,
the seed) changes the case key and is a cache miss by construction.
The JSON layer uses Python's ``Infinity``/``NaN`` extensions so skew
metrics of dead runs round-trip exactly.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

#: Shard names become file names; keep them portable and unambiguous.
_SHARD_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class CorruptStoreError(RuntimeError):
    """An interior store line failed to decode (mid-file corruption).

    Carries ``path`` and ``line`` (1-based) so operators can inspect
    the damage; ``repro store compact --drop-corrupt`` salvages the
    decodable remainder.
    """

    def __init__(self, path: str, line: int, reason: str) -> None:
        super().__init__(
            f"corrupt result store record at {path}:{line}: {reason} "
            f"(only a torn final line is tolerated; "
            f"'repro store compact --drop-corrupt' salvages the rest)"
        )
        self.path = path
        self.line = line


def summary_bytes(payload: Mapping) -> bytes:
    """Canonical side-car serialization: indent 2, sorted keys, LF.

    The one serializer of every persisted verdict artifact —
    :func:`dump_json_summary` writes these bytes and the byte-identity
    checks (``matrix_payload_bytes``, ``ablation_payload_bytes``)
    compare against them under their own names.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return text.encode("utf-8")


def dump_json_summary(path: str, payload: Mapping) -> str:
    """Write ``payload`` as :func:`summary_bytes`, creating the
    directory if need be; returns ``path``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(summary_bytes(payload))
    return path


@dataclass
class TrialRecord:
    """One executed (or cached / failed) trial."""

    campaign: str
    builder: str
    case: Dict[str, Any]
    seed: int
    case_key: str
    index: int
    metrics: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    duration: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "builder": self.builder,
            "case": self.case,
            "seed": self.seed,
            "case_key": self.case_key,
            "index": self.index,
            "metrics": self.metrics,
            "error": self.error,
            "duration": self.duration,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "TrialRecord":
        return cls(
            campaign=payload["campaign"],
            builder=payload["builder"],
            case=payload["case"],
            seed=payload["seed"],
            case_key=payload["case_key"],
            index=payload["index"],
            metrics=payload.get("metrics") or {},
            error=payload.get("error"),
            duration=payload.get("duration", 0.0),
        )


def record_line(record: TrialRecord) -> str:
    """The store's one-line serialization of a record (with newline)."""
    return json.dumps(record.to_json_dict()) + "\n"


class ResultStore:
    """A directory of ``<spec_key>.jsonl`` files plus per-writer shards.

    ``shard`` (constructor or per-``append``) routes writes to
    ``<spec_key>/<shard>.jsonl`` instead of the flat base file — the
    write path of elastic queue workers, which must never interleave
    lines in one file.  Reads always see base + every shard.
    """

    def __init__(self, root: str, shard: Optional[str] = None) -> None:
        # Created lazily on first write so read-only consumers (e.g.
        # ``repro campaign show --store``) have no filesystem effect.
        self.root = str(root)
        if os.path.exists(self.root) and not os.path.isdir(self.root):
            raise NotADirectoryError(
                f"result store {self.root!r} exists and is not a "
                f"directory"
            )
        if shard is not None:
            _check_shard_name(shard)
        self.shard = shard
        # Paths whose tail this instance has already checked (append).
        self._appended: set = set()

    def path_for(self, key: str, shard: Optional[str] = None) -> str:
        if shard is None:
            return os.path.join(self.root, f"{key}.jsonl")
        _check_shard_name(shard)
        return os.path.join(self.root, key, f"{shard}.jsonl")

    def shard_dir(self, key: str) -> str:
        return os.path.join(self.root, key)

    def shards(self, key: str) -> List[str]:
        """Shard names present for ``key`` (sorted; base excluded)."""
        directory = self.shard_dir(key)
        if not os.path.isdir(directory):
            return []
        return sorted(
            name[: -len(".jsonl")]
            for name in os.listdir(directory)
            if name.endswith(".jsonl")
        )

    @contextmanager
    def appender(
        self, key: str, shard: Optional[str] = None
    ) -> Iterator[Callable[[TrialRecord], None]]:
        """Append records to one file through one descriptor.

        Yields ``write(record)``; the ``O_APPEND`` descriptor it writes
        to lives until the ``with`` block ends.  Each record's full
        line — payload plus newline — goes through one ``os.write``,
        so concurrent appenders to the same file cannot interleave
        partial lines and a crash can only lose the line in flight,
        never tear an earlier one.  This instance's first appender on
        a path repairs the unterminated tail such a crash leaves
        (:func:`_heal_tail`), so a restarted writer never glues a
        record onto a fragment.
        """
        shard = shard if shard is not None else self.shard
        path = self.path_for(key, shard)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if path not in self._appended:
            _heal_tail(path)
            self._appended.add(path)
        descriptor = os.open(
            path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666
        )

        def write(record: TrialRecord) -> None:
            line = memoryview(record_line(record).encode("utf-8"))
            # One call unless the kernel takes a short write (a full
            # disk), whose remainder then raises instead of vanishing.
            while line:
                line = line[os.write(descriptor, line):]

        try:
            yield write
        finally:
            os.close(descriptor)

    def append(
        self,
        key: str,
        record: TrialRecord,
        shard: Optional[str] = None,
    ) -> None:
        """Append one record as a single ``write`` (crash-resumable):
        a one-record :meth:`appender`."""
        with self.appender(key, shard) as write:
            write(record)

    # ------------------------------------------------------------------
    # Reading

    def _files_for(self, key: str) -> List[str]:
        """Base file first, then shards in sorted order (last wins)."""
        paths = []
        base = self.path_for(key)
        if os.path.exists(base):
            paths.append(base)
        paths.extend(
            self.path_for(key, shard) for shard in self.shards(key)
        )
        return paths

    def iter_records(
        self, key: str, drop_corrupt: bool = False
    ) -> Iterator[TrialRecord]:
        """Every record of ``key``: base file, then each shard.

        Raises :class:`CorruptStoreError` on an undecodable interior
        line (unless ``drop_corrupt``); the torn final line of a file
        is tolerated as the tail of an interrupted writer.
        """
        for path in self._files_for(key):
            for _line_number, record in _iter_file(path, drop_corrupt):
                yield record

    def load(self, key: str) -> Dict[str, TrialRecord]:
        """All records for ``key``, by case key (last write wins).

        Cross-shard duplicates — e.g. a chunk re-run after a stale
        lease reclaim — collapse here; records are deterministic per
        case key, so which copy survives is immaterial.
        """
        records: Dict[str, TrialRecord] = {}
        for record in self.iter_records(key):
            records[record.case_key] = record
        return records

    def stamp(
        self, key: str, exclude: Optional[str] = None
    ) -> Tuple[Tuple[str, int, int, int], ...]:
        """What :meth:`load` would read, one ``os.stat`` a file.

        ``(path, size, st_mtime_ns, inode)`` of the base file and of
        every shard but ``exclude``: an append changes a size, a new
        shard or base file adds an entry, and ``merge`` / ``compact``
        replace a file (a new inode).  A stamp taken before a ``load``
        and equal to a later one means that ``load`` is still current,
        apart from what the ``exclude`` shard's one writer appended.
        """
        paths = [self.path_for(key)] + [
            self.path_for(key, shard)
            for shard in self.shards(key)
            if shard != exclude
        ]
        stamp = []
        for path in paths:
            try:
                info = os.stat(path)
            except FileNotFoundError:
                continue  # no base file, or a shard merged away
            stamp.append(
                (path, info.st_size, info.st_mtime_ns, info.st_ino)
            )
        return tuple(stamp)

    def count(self, key: str) -> int:
        return len(self.load(key))

    def keys(self) -> List[str]:
        """Every spec key present in the store (flat or sharded)."""
        if not os.path.isdir(self.root):
            return []
        found = set()
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if name.endswith(".jsonl") and os.path.isfile(path):
                found.add(name[: -len(".jsonl")])
            elif os.path.isdir(path) and any(
                entry.endswith(".jsonl") for entry in os.listdir(path)
            ):
                found.add(name)
        return sorted(found)

    # ------------------------------------------------------------------
    # Maintenance: merge shards into the base file, compact duplicates

    def merge(self, key: str) -> Dict[str, int]:
        """Fold every shard of ``key`` into the base file, deduped.

        Records keep first-seen case-key order with last-write-wins
        content (the same semantics as :meth:`load`), so merging is
        idempotent: re-merging a merged store is byte-identical.  The
        shard directory is removed afterwards.
        """
        shards = self.shards(key)
        merged: Dict[str, TrialRecord] = {}
        total = 0
        for record in self.iter_records(key):
            merged[record.case_key] = record
            total += 1
        self._rewrite(self.path_for(key), merged.values())
        for shard in shards:
            os.remove(self.path_for(key, shard))
        directory = self.shard_dir(key)
        if os.path.isdir(directory) and not os.listdir(directory):
            os.rmdir(directory)
        return {
            "records": len(merged),
            "dropped": total - len(merged),
            "shards": len(shards),
        }

    def compact(
        self, key: str, drop_corrupt: bool = False
    ) -> Dict[str, int]:
        """Rewrite each of ``key``'s files without superseded lines.

        Dedup is per file (cross-file precedence is ``merge``'s job):
        within a file the last line per case key survives, in
        first-seen order.  With ``drop_corrupt``, undecodable interior
        lines are discarded instead of raising — the recovery path for
        a store damaged by pre-sharding interleaved writers.
        """
        kept = 0
        dropped = 0
        for path in self._files_for(key):
            records: Dict[str, TrialRecord] = {}
            total = 0
            for _line_number, record in _iter_file(path, drop_corrupt):
                records[record.case_key] = record
                total += 1
            self._rewrite(path, records.values())
            kept += len(records)
            dropped += total - len(records)
        return {"records": kept, "dropped": dropped}

    def _rewrite(self, path: str, records) -> None:
        """Atomically replace ``path`` with the given records."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        staging = f"{path}.tmp"
        with open(staging, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record_line(record))
        os.replace(staging, path)

    # ------------------------------------------------------------------
    # Side-car summaries (e.g. --perf throughput reports)

    def summary_path(self, key: str, kind: str = "perf") -> str:
        return os.path.join(self.root, f"{key}.{kind}.json")

    def write_summary(
        self, key: str, payload: Dict, kind: str = "perf"
    ) -> str:
        """Write a JSON side-car next to the spec's trial records."""
        return dump_json_summary(self.summary_path(key, kind), payload)


def _check_shard_name(shard: str) -> None:
    if not _SHARD_NAME.match(shard):
        raise ValueError(
            f"invalid shard name {shard!r} (want letters, digits, "
            f"'.', '_', '-'; no leading separator)"
        )


def _heal_tail(path: str) -> None:
    """Make ``path`` end in a newline, the way :func:`_iter_file` reads it.

    An interrupted append can leave a last line without its newline.
    A fragment that does not decode is what ``load`` ignores: cut it
    off, or the next record is glued onto it and swallowed with it
    (and the glued line turns into interior corruption one append
    later).  A complete record missing only its newline is one ``load``
    returns — a resuming run skips its case — so it is terminated, not
    dropped.  Safe because a file has one writer at a time.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        data = handle.read()
        cut = data.rfind(b"\n") + 1
        try:
            json.loads(data[cut:])
        except ValueError:
            handle.truncate(cut)
        else:
            handle.write(b"\n")


def _iter_file(
    path: str, drop_corrupt: bool = False
) -> Iterator[Tuple[int, TrialRecord]]:
    """Yield ``(line_number, record)`` pairs of one JSONL file.

    Only the final line may fail to decode (torn tail of an
    interrupted append); an interior failure raises
    :class:`CorruptStoreError` unless ``drop_corrupt``.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as exc:
            if number == len(lines):
                continue  # torn final line from an interrupted run
            if drop_corrupt:
                continue
            raise CorruptStoreError(path, number, str(exc)) from None
        yield number, TrialRecord.from_json_dict(payload)
