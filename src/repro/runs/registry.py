"""The persistent run registry: append-only JSON-lines under a directory.

A :class:`RunRegistry` owns one directory (by default
``benchmarks/results/runs/``, honouring ``REPRO_RESULTS_DIR``) holding a
single append-only ``runs.jsonl`` — one canonical-JSON record per line.
Append-only JSON lines keep the format trivially diffable, mergeable and
greppable across PRs; no database dependency is involved.

Operations: :meth:`~RunRegistry.save`, :meth:`~RunRegistry.load` (by run
id or the alias ``"latest"``), :meth:`~RunRegistry.query` (field filters
plus an arbitrary predicate) and :meth:`~RunRegistry.diff` — a flattened
numeric comparison of two records (or of a record against a raw JSON
baseline file such as the committed ``benchmarks/BENCH_perf.json``).

Records written under a different :data:`~repro.runs.result.SCHEMA_VERSION`
raise :class:`~repro.errors.SchemaVersionError` on direct load;
iteration-style reads (``query``, ``ids``) skip them and report the count
through :attr:`RunRegistry.skipped_versions` so a registry that outlives
a schema bump stays usable.  Corrupted or truncated lines (a crashed
append, a bad merge) are likewise *skipped* — counted in
:attr:`RunRegistry.skipped_corrupt` with a once-per-registry warning, never
an exception — so one bad line cannot brick ``repro runs list``/``diff``;
:meth:`RunRegistry.doctor` reports them line by line and can quarantine
them into ``runs.quarantine.jsonl``.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from ..errors import ConfigurationError, RegistryError, SchemaVersionError
from ..obs.metrics import METRICS
from ..util.tables import format_table
from .result import RunResult, json_restore

__all__ = [
    "RunRegistry",
    "RunDiff",
    "MetricDelta",
    "DoctorReport",
    "default_registry_dir",
    "diff_metrics",
    "flatten_leaves",
    "flatten_metrics",
]

_RECORDS_FILE = "runs.jsonl"
_QUARANTINE_FILE = "runs.quarantine.jsonl"


def default_registry_dir() -> Path:
    """``benchmarks/results/runs`` next to the repository root.

    Honours the ``REPRO_RESULTS_DIR`` environment variable (the registry
    lives in a ``runs/`` subdirectory of it), matching
    :func:`repro.experiments.report.default_results_dir`.
    """
    env = os.environ.get("REPRO_RESULTS_DIR")
    if env:
        return Path(env) / "runs"
    return Path(__file__).resolve().parents[3] / "benchmarks" / "results" / "runs"


# --- metric flattening and diffing --------------------------------------------------


def flatten_metrics(obj: Any, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts/lists into dotted numeric leaves.

    Non-numeric leaves (labels, booleans, None) are dropped; list
    elements are addressed as ``key[i]``.
    """
    out: dict[str, float] = {}
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        if prefix:
            out[prefix] = float(obj)
        return out
    if isinstance(obj, Mapping):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            out.update(flatten_metrics(v, key))
        return out
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(flatten_metrics(v, f"{prefix}[{i}]"))
        return out
    return out


def flatten_leaves(obj: Any, prefix: str = "") -> dict[str, Any]:
    """Flatten nested dicts/lists into dotted leaves of *any* type.

    Unlike :func:`flatten_metrics` (numeric leaves only, the deltas'
    domain), this keeps labels, booleans and ``None`` — the full leaf key
    set is what decides whether a metric was *added or removed* between
    two records, which must not depend on the leaf's type.
    """
    out: dict[str, Any] = {}
    if isinstance(obj, Mapping):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            out.update(flatten_leaves(v, key))
        return out
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(flatten_leaves(v, f"{prefix}[{i}]"))
        return out
    if prefix:
        out[prefix] = obj
    return out


@dataclass(frozen=True)
class MetricDelta:
    """One flattened metric compared across two runs."""

    key: str
    a: float
    b: float

    @property
    def same(self) -> bool:
        """NaN-aware equality: ``nan`` vs ``nan`` (and ``inf`` vs ``inf``)
        is "no change" — post-saturation records routinely hold both, and
        a record must diff empty against itself."""
        return self.a == self.b or (math.isnan(self.a) and math.isnan(self.b))

    @property
    def delta(self) -> float:
        # b - a is nan for equal non-finite values (inf - inf, nan - nan);
        # report equal leaves as an exact zero change instead.
        if self.same:
            return 0.0
        return self.b - self.a

    @property
    def rel(self) -> float:
        """Relative change ``(b - a) / |a|`` (nan when undefined)."""
        if math.isnan(self.a) or math.isnan(self.b):
            # Equality (including nan == nan in spirit) is "no change";
            # any other comparison against nan is undefined, not ±inf.
            return 0.0 if (math.isnan(self.a) and math.isnan(self.b)) else math.nan
        if not math.isfinite(self.a) or self.a == 0.0:
            return 0.0 if self.a == self.b else math.nan
        if math.isinf(self.b):
            return math.inf if self.b > 0 else -math.inf
        return (self.b - self.a) / abs(self.a)


@dataclass(frozen=True)
class RunDiff:
    """Field-by-field numeric comparison of two runs (or baselines)."""

    a_label: str
    b_label: str
    deltas: tuple[MetricDelta, ...]
    only_a: tuple[str, ...]
    only_b: tuple[str, ...]
    #: Shared non-numeric leaves (labels, engines, flags) that differ, as
    #: ``(key, a, b)``; a numeric delta cannot express them.
    relabeled: tuple[tuple[str, Any, Any], ...] = ()

    @property
    def changed(self) -> tuple[MetricDelta, ...]:
        """The shared metrics that actually differ (NaN-aware).

        ``diff(run, run)`` has ``changed == ()`` even when the record
        carries ``nan``/``inf`` leaves.
        """
        return tuple(d for d in self.deltas if not d.same)

    @property
    def max_abs_rel(self) -> float:
        """Largest finite |relative change| across shared metrics (0 if none)."""
        rels = [abs(d.rel) for d in self.deltas if math.isfinite(d.rel)]
        return max(rels) if rels else 0.0

    def render(self, *, top: int | None = 25) -> str:
        """Aligned table of the largest relative changes first."""
        def rank(d: MetricDelta) -> tuple[int, float, str]:
            # Largest |rel| first, infinities before everything, undefined
            # (nan) comparisons last.
            if math.isnan(d.rel):
                return (1, 0.0, d.key)
            return (0, -(abs(d.rel) if math.isfinite(d.rel) else math.inf), d.key)

        ranked = sorted(self.deltas, key=rank)
        shown = ranked if top is None else ranked[:top]
        lines = [
            format_table(
                ["metric", self.a_label, self.b_label, "delta", "rel"],
                [(d.key, d.a, d.b, d.delta, d.rel) for d in shown],
                title=(
                    f"runs diff: {self.a_label} -> {self.b_label} "
                    f"({len(self.deltas)} shared metrics"
                    + (f", top {len(shown)} by |rel|" if len(shown) < len(self.deltas) else "")
                    + ")"
                ),
            )
        ]
        if self.only_a:
            lines.append(f"only in {self.a_label}: {', '.join(self.only_a)}")
        if self.only_b:
            lines.append(f"only in {self.b_label}: {', '.join(self.only_b)}")
        for key, a, b in self.relabeled:
            lines.append(f"changed {key}: {a!r} -> {b!r}")
        lines.append(f"max |rel| over shared metrics: {self.max_abs_rel:.4g}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "a": self.a_label,
            "b": self.b_label,
            "deltas": [
                {"key": d.key, "a": d.a, "b": d.b, "delta": d.delta, "rel": d.rel}
                for d in self.deltas
            ],
            "only_a": list(self.only_a),
            "only_b": list(self.only_b),
            "relabeled": [{"key": k, "a": a, "b": b} for k, a, b in self.relabeled],
            "max_abs_rel": self.max_abs_rel,
        }


def diff_metrics(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    *,
    a_label: str = "a",
    b_label: str = "b",
) -> RunDiff:
    """Compare two (possibly nested) metric mappings key by key.

    ``deltas`` covers the leaves both sides hold *numerically*;
    ``only_a``/``only_b`` (the removed/added report) cover every leaf
    present on exactly one side regardless of type — a boolean or label
    leaf missing from the other record is a structural change and must be
    reported, not silently dropped just because it cannot be subtracted.
    For the same reason ``relabeled`` reports every shared leaf outside
    ``deltas`` whose value changed (e.g. ``engine``).
    """
    flat_a = flatten_metrics(a)
    flat_b = flatten_metrics(b)
    leaves_a = flatten_leaves(a)
    leaves_b = flatten_leaves(b)
    shared = sorted(set(flat_a) & set(flat_b))
    return RunDiff(
        a_label=a_label,
        b_label=b_label,
        deltas=tuple(MetricDelta(k, flat_a[k], flat_b[k]) for k in shared),
        only_a=tuple(sorted(leaves_a.keys() - leaves_b.keys())),
        only_b=tuple(sorted(leaves_b.keys() - leaves_a.keys())),
        relabeled=tuple(
            (k, leaves_a[k], leaves_b[k])
            for k in sorted(leaves_a.keys() & leaves_b.keys())
            if k not in flat_a or k not in flat_b
            if leaves_a[k] != leaves_b[k]
        ),
    )


# --- the registry -------------------------------------------------------------------


class RunRegistry:
    """Append-only run store (see the module docstring).

    Parameters
    ----------
    path:
        Registry directory (created on demand); defaults to
        :func:`default_registry_dir`.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_registry_dir()
        #: Records skipped by the last iteration-style read because their
        #: schema version did not match (0 after ``save``/``load``).
        self.skipped_versions = 0
        #: Lines skipped by the last read because they were not valid JSON
        #: objects (truncated appends, merge debris).
        self.skipped_corrupt = 0
        self._warned_corrupt = False
        # Scan memo: raw records already parsed from the consumed byte
        # prefix [0, _scan_offset) of the records file.  Repeated reads
        # re-yield the cached dicts and parse only appended bytes; the
        # cache is dropped whenever the file shrinks (doctor --quarantine
        # rewrites, manual edits).  ``registry.records_read`` therefore
        # counts *line parses*, not records returned — the memoization
        # contract the tests pin.
        self._scan_records: list[dict] = []
        self._scan_offset = 0
        self._scan_corrupt = 0
        self._scan_lines = 0
        self._scan_active = False

    @property
    def records_path(self) -> Path:
        return self.path / _RECORDS_FILE

    def invalidate_cache(self) -> None:
        """Forget the memoized scan (the next read re-parses from byte 0)."""
        self._scan_records = []
        self._scan_offset = 0
        self._scan_corrupt = 0
        self._scan_lines = 0

    # --- write -------------------------------------------------------------------

    def save(self, result: RunResult) -> str:
        """Append one record; returns its run id.

        The record is written with a single ``os.write`` on an
        ``O_APPEND`` descriptor: POSIX appends the whole buffer at the
        end-of-file atomically, so concurrent writer *processes* sharing
        one registry can never interleave partial lines (the property the
        multiprocessing stress test pins).  A short write — out of disk,
        interrupted — is reported as a :class:`RegistryError` instead of
        silently leaving a torn record.
        """
        if not isinstance(result, RunResult):
            raise ConfigurationError(
                f"registry.save expects a RunResult, got {type(result).__name__}"
            )
        self.path.mkdir(parents=True, exist_ok=True)
        line = (result.to_json_str() + "\n").encode("utf-8")
        fd = os.open(
            self.records_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666
        )
        try:
            written = os.write(fd, line)
        finally:
            os.close(fd)
        if written != len(line):
            raise RegistryError(
                f"short append to {self.records_path}: wrote {written} of "
                f"{len(line)} bytes (disk full?); run `repro runs doctor`"
            )
        METRICS.add("registry.saves")
        return result.run_id

    # --- read --------------------------------------------------------------------

    def _parse_line(self, raw_line: bytes) -> dict | None:
        """One JSONL line to a record dict, or None when corrupt."""
        stripped = raw_line.strip()
        if not stripped:
            return None
        try:
            record = json.loads(stripped.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def _note_corrupt(self, lineno: int) -> None:
        self.skipped_corrupt += 1
        METRICS.add("registry.skipped_corrupt")
        if not self._warned_corrupt:
            self._warned_corrupt = True
            warnings.warn(
                f"{self.records_path}:{lineno}: skipping corrupted "
                "record(s); run `repro runs doctor` for a full "
                "audit (and --quarantine to move them aside)",
                RuntimeWarning,
                stacklevel=4,
            )

    def _iter_raw(self) -> Iterator[dict]:
        """Yield the parseable JSON-object lines of the records file.

        Corrupted or truncated lines are skipped and counted in
        :attr:`skipped_corrupt` (warning once per registry instance) — a
        torn append must not take every *other* record down with it.

        Reads are *incremental*: the already-parsed prefix is served from
        the in-memory memo and only bytes appended since the previous scan
        are parsed (blank and corrupt lines included in the consumed
        prefix).  A final line with no trailing newline — an append still
        in flight — is yielded but never memoized, so the completed line
        is re-read on the next scan.
        """
        METRICS.add("registry.scans")
        if not self.records_path.exists():
            self.invalidate_cache()
            self.skipped_corrupt = 0
            return
        size = self.records_path.stat().st_size
        if size < self._scan_offset:
            # The file shrank under us: doctor --quarantine rewrote it (or
            # someone edited it by hand).  The memoized prefix no longer
            # describes the bytes on disk; rescan from the start.
            self.invalidate_cache()
        self.skipped_corrupt = self._scan_corrupt
        yield from self._scan_records
        if size <= self._scan_offset:
            return
        # Nested scans on one instance (a query predicate calling load,
        # zipped iterations) must not both extend the memo: only the
        # outermost generator advances it, inner ones read pass-through.
        memoize = not self._scan_active
        if memoize:
            self._scan_active = True
        try:
            with self.records_path.open("rb") as fh:
                fh.seek(self._scan_offset)
                for raw_line in fh:
                    complete = raw_line.endswith(b"\n")
                    lineno = self._scan_lines + 1
                    record = self._parse_line(raw_line)
                    if complete and memoize:
                        self._scan_offset += len(raw_line)
                        self._scan_lines = lineno
                    if record is None:
                        if raw_line.strip():
                            if complete and memoize:
                                self._scan_corrupt += 1
                            self._note_corrupt(lineno)
                        continue
                    METRICS.add("registry.records_read")
                    if complete and memoize:
                        self._scan_records.append(record)
                    yield record
        finally:
            if memoize:
                self._scan_active = False

    def __iter__(self) -> Iterator[RunResult]:
        """Yield readable records in insertion order (skips foreign schemas)."""
        self.skipped_versions = 0
        for raw in self._iter_raw():
            try:
                yield RunResult.from_json(raw)
            except SchemaVersionError:
                self.skipped_versions += 1
                METRICS.add("registry.skipped_versions")

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def ids(self) -> list[str]:
        return [r.run_id for r in self]

    def latest(self) -> RunResult | None:
        """The most recently appended readable record."""
        last = None
        for record in self:
            last = record
        return last

    def load(self, run_id: str) -> RunResult:
        """Load one record by id (or the alias ``"latest"``).

        Unlike iteration, a direct load of a schema-mismatched record
        raises :class:`SchemaVersionError` — the caller asked for exactly
        that record and must not receive a silently reinterpreted one.
        """
        if run_id == "latest":
            record = self.latest()
            if record is None:
                raise RegistryError(f"registry {self.path} holds no runs")
            return record
        for raw in self._iter_raw():
            if raw.get("run_id") == run_id:
                return RunResult.from_json(raw)
        raise RegistryError(f"run {run_id!r} not found in {self.path}")

    def query(
        self,
        *,
        backend: str | None = None,
        kind: str | None = None,
        label: str | None = None,
        topology: str | None = None,
        pattern: str | None = None,
        num_processors: int | None = None,
        message_flits: int | None = None,
        predicate: Callable[[RunResult], bool] | None = None,
    ) -> list[RunResult]:
        """Filter records by scenario fields (insertion order preserved)."""
        out = []
        for record in self:
            sc = record.scenario
            if kind is not None and record.kind != kind:
                continue
            if label is not None and record.label != label:
                continue
            if backend is not None and (sc is None or sc.backend != backend):
                continue
            if topology is not None and (sc is None or sc.topology != topology):
                continue
            if pattern is not None and (sc is None or sc.pattern != pattern):
                continue
            if num_processors is not None and (
                sc is None or sc.num_processors != num_processors
            ):
                continue
            if message_flits is not None and (
                sc is None or sc.message_flits != message_flits
            ):
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    # --- diff --------------------------------------------------------------------

    def _resolve_comparand(self, ref: "RunResult | str | Path") -> tuple[dict, str]:
        """Map a diff operand to ``(metrics, label)``.

        Accepts a :class:`RunResult`, a run id (or ``"latest"``), or a
        path to a raw JSON baseline file (e.g. ``BENCH_perf.json``) whose
        numeric leaves are compared wholesale.
        """
        if isinstance(ref, RunResult):
            return ref.metrics, ref.run_id
        if isinstance(ref, Path) or (
            isinstance(ref, str) and (os.sep in ref or ref.endswith(".json"))
        ):
            path = Path(ref)
            if not path.exists():
                raise RegistryError(f"baseline file {path} does not exist")
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise RegistryError(f"{path}: not valid JSON ({exc})") from exc
            if isinstance(data, Mapping) and "metrics" in data and "run_id" in data:
                # A serialized RunResult: compare its metrics block.
                return dict(json_restore(data["metrics"])), str(data["run_id"])
            return dict(json_restore(data)), path.name
        if isinstance(ref, str):
            record = self.load(ref)
            return record.metrics, record.run_id
        raise ConfigurationError(
            f"cannot diff against object of type {type(ref).__name__}"
        )

    def diff(self, a: "RunResult | str | Path", b: "RunResult | str | Path") -> RunDiff:
        """Numeric comparison of two runs (or a run against a JSON baseline)."""
        metrics_a, label_a = self._resolve_comparand(a)
        metrics_b, label_b = self._resolve_comparand(b)
        return diff_metrics(metrics_a, metrics_b, a_label=label_a, b_label=label_b)

    # --- health ------------------------------------------------------------------

    @property
    def quarantine_path(self) -> Path:
        """Sibling file that :meth:`doctor` moves corrupt lines into."""
        return self.path / _QUARANTINE_FILE

    def doctor(self, *, quarantine: bool = False) -> "DoctorReport":
        """Audit the records file line by line.

        Classifies every non-blank line as *ok* (loads as a current-schema
        :class:`RunResult`), *foreign-schema* (valid record written under a
        different schema version — kept, still listed by tools that
        understand it), or *corrupt* (not valid JSON, not a JSON object, or
        a structurally broken record).  With ``quarantine=True`` the corrupt
        lines are appended to ``runs.quarantine.jsonl`` and the records file
        is rewritten without them (atomically, via a temp file).
        """
        path = self.records_path
        if not path.exists():
            return DoctorReport(
                path=str(path),
                total_records=0,
                ok=0,
                foreign_schema=0,
                corrupt=(),
            )
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        ok = foreign = total = 0
        corrupt: list[tuple[int, str]] = []
        keep: list[str] = []
        bad: list[str] = []
        for lineno, line in enumerate(raw_lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            total += 1
            reason: str | None = None
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                reason = f"not valid JSON ({exc})"
            else:
                if not isinstance(record, dict):
                    reason = f"JSON {type(record).__name__} is not a record object"
                else:
                    try:
                        RunResult.from_json(record)
                    except SchemaVersionError:
                        foreign += 1
                    except Exception as exc:  # noqa: BLE001 - reported, not raised
                        reason = f"{type(exc).__name__}: {exc}"
                    else:
                        ok += 1
            if reason is None:
                keep.append(stripped)
            else:
                corrupt.append((lineno, reason))
                bad.append(stripped)
        quarantined = 0
        qpath: str | None = None
        if quarantine and bad:
            with self.quarantine_path.open("a", encoding="utf-8") as fh:
                for line in bad:
                    fh.write(line + "\n")
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text("".join(line + "\n" for line in keep), encoding="utf-8")
            os.replace(tmp, path)
            # The rewrite invalidates any memoized scan of this instance
            # (other instances notice via the file-shrunk check).
            self.invalidate_cache()
            quarantined = len(bad)
            qpath = str(self.quarantine_path)
        return DoctorReport(
            path=str(path),
            total_records=total,
            ok=ok,
            foreign_schema=foreign,
            corrupt=tuple(corrupt),
            quarantined=quarantined,
            quarantine_path=qpath,
        )


@dataclass(frozen=True)
class DoctorReport:
    """Result of :meth:`RunRegistry.doctor` — one registry health audit."""

    path: str
    total_records: int
    ok: int
    foreign_schema: int
    corrupt: tuple[tuple[int, str], ...]
    quarantined: int = 0
    quarantine_path: str | None = None

    @property
    def healthy(self) -> bool:
        """True when every record line parsed (foreign schemas are fine)."""
        return not self.corrupt

    def render(self) -> str:
        lines = [
            f"registry doctor: {self.path}",
            f"  records: {self.total_records} "
            f"({self.ok} ok, {self.foreign_schema} foreign-schema, "
            f"{len(self.corrupt)} corrupt)",
        ]
        for lineno, reason in self.corrupt:
            lines.append(f"  line {lineno}: {reason}")
        if self.quarantined:
            lines.append(
                f"  quarantined {self.quarantined} record(s) to "
                f"{self.quarantine_path}"
            )
        elif self.corrupt:
            lines.append("  re-run with --quarantine to move them aside")
        else:
            lines.append("  no corruption found")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "total_records": self.total_records,
            "ok": self.ok,
            "foreign_schema": self.foreign_schema,
            "corrupt": [
                {"line": lineno, "reason": reason} for lineno, reason in self.corrupt
            ],
            "quarantined": self.quarantined,
            "quarantine_path": self.quarantine_path,
            "healthy": self.healthy,
        }
