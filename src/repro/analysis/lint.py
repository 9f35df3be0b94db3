"""AST-based invariant linter for the repro stack (``python -m repro.analysis.lint``).

Rules
-----
REP001  no unseeded/ambient RNG (``np.random.default_rng()`` with no seed,
        the stdlib ``random`` module, ``np.random.seed`` / legacy samplers)
        outside ``util/rng.py``.  Pragma: ``# lint: allow-rng``.
REP002  spec dataclasses (``Scenario``, ``*Spec``, ``DesignSpace``,
        ``Requirements``, ...) must be frozen, free of mutable defaults,
        and carry only JSON-able field types.
        Pragma: ``# lint: allow-spec-field``.
REP003  every ``raise`` constructs a ``ReproError`` subclass (bare
        re-raise and stdlib exceptions inside ``util/`` are allowed).
        Pragma: ``# lint: allow-raise``.
REP004  no float ``==`` / ``!=`` except against the literal sentinels
        ``0.0`` / ``1.0``.  Pragma: ``# lint: allow-float-eq``.
REP006  no wall-clock reads (``time.time``, ``datetime.now``, ...) outside
        the provenance modules; ``perf_counter`` is always fine.
        Pragma: ``# lint: allow-wall-clock``.
REP007  no direct ``open()``/``read_text``/``write_text`` on run-registry
        files (``runs.jsonl``, ``runs.quarantine.jsonl``,
        ``runs.index.sqlite``, the ``records_path``/``quarantine_path``
        attributes) outside ``runs/registry.py`` and ``runs/index.py`` —
        every append must go through the canonical O_APPEND writer and
        every read through the registry/index APIs.
        Pragma: ``# lint: allow-registry-open``.
REP201-REP204  concurrency rules over the interprocedural effect
        analysis (blocking-in-async, contended shared globals, await
        under a sync lock, dropped coroutines) — see
        :mod:`repro.analysis.concurrency` for the rule text and pragmas.

Options: ``--rules REP001,REP2xx`` selects rules (exact ids or a
``REPn*``/``REPnxx`` prefix wildcard), ``--json`` emits a machine-readable
findings report, ``--list-rules`` prints the catalog with each rule's
pragma.  The linter is stdlib-only (``ast`` + ``re``) so it can gate CI
before any third-party dependency is importable.  Exit codes: 0 clean,
1 findings, 2 usage error.
"""

from __future__ import annotations

import ast
import builtins
import json as _json
import re
import sys
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import ConfigurationError
from ..errors import __all__ as _ERROR_EXPORTS
from .findings import (
    ERROR,
    Finding,
    RULE_CATALOG,
    pragma_lines as _pragma_lines,
    render_findings,
)

__all__ = ["lint_file", "lint_paths", "lint_source", "main", "run_lint"]

# ---------------------------------------------------------------------------
# Pragmas: same-line ``# lint: tag1, tag2`` comments suppress specific rules.
# The grammar and the rule catalog live in .findings (shared with the
# concurrency pass); this view keeps the per-file rules' lookups local.

_PRAGMA_FOR_RULE = {
    rule: entry.pragma
    for rule, entry in RULE_CATALOG.items()
    if rule.startswith("REP0") and entry.pragma != "-"
}

# The rules each pass can emit (REP000 surfaces regardless of selection).
_FILE_RULES = frozenset(_PRAGMA_FOR_RULE)
_CONCURRENCY_RULES = frozenset({"REP201", "REP202", "REP203", "REP204"})

# ---------------------------------------------------------------------------
# Rule data.

# REP001 — legacy ambient numpy samplers (module-level global state).
_LEGACY_NP_SAMPLERS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "exponential",
        "poisson",
        "binomial",
        "standard_normal",
        "RandomState",
    }
)
_STDLIB_RANDOM_FNS = frozenset(
    {
        "seed",
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "triangular",
        "getrandbits",
    }
)

# REP002 — class names treated as serializable "spec" dataclasses.
_SPEC_CLASS_NAMES = frozenset({"Scenario", "Requirements"})
_SPEC_SUFFIXES = ("Spec", "Space")
# Annotation atoms considered JSON-able (containers of these are too).
_JSONABLE_NAMES = frozenset(
    {
        "int",
        "float",
        "str",
        "bool",
        "None",
        "Any",
        "tuple",
        "list",
        "dict",
        "Tuple",
        "List",
        "Dict",
        "Mapping",
        "MutableMapping",
        "Sequence",
        "Iterable",
        "Optional",
        "Union",
        "ClassVar",
        "Literal",
        "Final",
    }
)

# REP003 — exception names always acceptable to raise anywhere.
_ALWAYS_OK_RAISES = frozenset(
    set(_ERROR_EXPORTS)
    | {"NotImplementedError", "SystemExit", "StopIteration", "KeyboardInterrupt"}
)

# REP006 — wall-clock call chains (suffix match on the dotted chain).
_WALL_CLOCK_TAILS = (
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
)
# Provenance modules where stamping wall-clock time is the point:
# runs.result stamps record creation, obs.clock stamps trace files
# (every other observability timing is monotonic perf_counter).
_WALL_CLOCK_MODULES = frozenset({"runs.result", "obs.clock"})

# Modules where REP001 does not apply (the sanctioned RNG home).
_RNG_MODULES = frozenset({"util.rng"})

# REP007 — file-access call tails that can bypass the registry writers.
_REGISTRY_OPEN_TAILS = frozenset(
    {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
)
# Registry file names: a string literal mentioning one of these inside an
# open-style call addresses registry storage directly.
_REGISTRY_FILE_NAMES = ("runs.jsonl", "runs.quarantine.jsonl", "runs.index.sqlite")
# Registry path attributes (RunRegistry.records_path / .quarantine_path).
_REGISTRY_PATH_ATTRS = frozenset({"records_path", "quarantine_path"})
# The two modules that own the storage layer.
_REGISTRY_FILE_MODULES = frozenset({"runs.registry", "runs.index"})


def _module_of(path: Path) -> str:
    """Dotted module path inside the ``repro`` package, or '' if outside.

    Files outside a ``repro`` package tree get no allowlists, so fixture
    snippets in temporary directories exercise every rule.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            tail = [p for p in parts[i + 1 :]]
            if not tail:
                return ""
            tail[-1] = tail[-1].removesuffix(".py")
            if tail[-1] == "__init__":
                tail = tail[:-1]
            return ".".join(tail)
    return ""


def _attr_chain(node: ast.AST) -> tuple[str, ...]:
    """Dotted name chain of a Name/Attribute expression, else ()."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _is_builtin_exception(name: str) -> bool:
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: Path, source: str) -> None:
        self.path = path
        self.module = _module_of(path)
        self.pragmas = _pragma_lines(source)
        self.findings: list[Finding] = []

    # -- helpers ------------------------------------------------------------

    def _allowed(self, rule: str, lineno: int) -> bool:
        return _PRAGMA_FOR_RULE[rule] in self.pragmas.get(lineno, frozenset())

    def _report(self, rule: str, node: ast.AST, message: str, hint: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if self._allowed(rule, lineno):
            return
        self.findings.append(
            Finding(
                rule=rule,
                severity=ERROR,
                message=message,
                path=str(self.path),
                line=lineno,
                hint=hint,
            )
        )

    def _in_util(self) -> bool:
        return self.module == "util" or self.module.startswith("util.")

    # -- REP001 / REP006 / REP007: calls -------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if chain:
            self._check_rng_call(node, chain)
            self._check_wall_clock(node, chain)
        self._check_registry_open(node)
        self.generic_visit(node)

    def _check_registry_open(self, node: ast.Call) -> None:
        if self.module in _REGISTRY_FILE_MODULES:
            return
        # The attr chain is empty for computed receivers like
        # ``(path / "runs.jsonl").read_text()``; take the call name from
        # the Attribute/Name node directly so those are covered too.
        func = node.func
        if isinstance(func, ast.Attribute):
            tail = func.attr
        elif isinstance(func, ast.Name):
            tail = func.id
        else:
            return
        if tail not in _REGISTRY_OPEN_TAILS:
            return
        # The whole call — receiver chain and arguments — is searched for
        # registry markers, so `registry.records_path.open("a")` and
        # `open(path / "runs.jsonl")` are both caught.
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in _REGISTRY_PATH_ATTRS:
                marker = sub.attr
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and any(
                name in sub.value for name in _REGISTRY_FILE_NAMES
            ):
                marker = sub.value
            else:
                continue
            self._report(
                "REP007",
                node,
                f"direct {tail}() on registry storage ({marker!r})",
                "go through RunRegistry.save/query or RunIndex — the JSONL "
                "writer and index must stay the only storage accessors",
            )
            return

    def _check_rng_call(self, node: ast.Call, chain: tuple[str, ...]) -> None:
        if self.module in _RNG_MODULES:
            return
        if len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
            tail = chain[2]
            if tail == "default_rng" and not node.args and not node.keywords:
                self._report(
                    "REP001",
                    node,
                    "np.random.default_rng() without a seed is ambient randomness",
                    "pass an explicit seed or use util.rng.spawn_seeds",
                )
            elif tail == "seed":
                self._report(
                    "REP001",
                    node,
                    "np.random.seed mutates global RNG state",
                    "use a seeded np.random.default_rng(seed) instance",
                )
            elif tail in _LEGACY_NP_SAMPLERS:
                self._report(
                    "REP001",
                    node,
                    f"legacy ambient sampler np.random.{tail}",
                    "draw from a seeded np.random.default_rng(seed) instance",
                )
        elif len(chain) == 2 and chain[0] == "random" and chain[1] in _STDLIB_RANDOM_FNS:
            self._report(
                "REP001",
                node,
                f"stdlib random.{chain[1]} uses unseeded process-global state",
                "use a seeded np.random.default_rng(seed) instance",
            )

    def _check_wall_clock(self, node: ast.Call, chain: tuple[str, ...]) -> None:
        if self.module in _WALL_CLOCK_MODULES:
            return
        for tail in _WALL_CLOCK_TAILS:
            if chain[-len(tail) :] == tail:
                self._report(
                    "REP006",
                    node,
                    f"wall-clock read {'.'.join(chain)} in a solver/model path",
                    "use time.perf_counter for durations; inject a clock for stamps",
                )
                return

    def visit_Import(self, node: ast.Import) -> None:
        if self.module not in _RNG_MODULES:
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    self._report(
                        "REP001",
                        node,
                        "stdlib random module uses unseeded process-global state",
                        "use a seeded np.random.default_rng(seed) instance",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and node.level == 0:
            if self.module not in _RNG_MODULES:
                self._report(
                    "REP001",
                    node,
                    "stdlib random module uses unseeded process-global state",
                    "use a seeded np.random.default_rng(seed) instance",
                )
        self.generic_visit(node)

    # -- REP002: spec dataclasses -------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._is_spec_name(node.name):
            dc = self._dataclass_decorator(node)
            if dc is not None:
                self._check_spec_dataclass(node, dc)
        self.generic_visit(node)

    @staticmethod
    def _is_spec_name(name: str) -> bool:
        return name in _SPEC_CLASS_NAMES or name.endswith(_SPEC_SUFFIXES)

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            chain = _attr_chain(target)
            if chain and chain[-1] == "dataclass":
                return dec
        return None

    def _check_spec_dataclass(self, node: ast.ClassDef, dec: ast.expr) -> None:
        frozen = False
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                    frozen = bool(kw.value.value)
        if not frozen:
            self._report(
                "REP002",
                node,
                f"spec dataclass {node.name} must be declared frozen=True",
                "use @dataclass(frozen=True) so specs stay hashable value objects",
            )
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            field_name = f"{node.name}.{stmt.target.id}"
            if self._is_classvar(stmt.annotation):
                continue
            if stmt.value is not None and self._mutable_default(stmt.value):
                self._report(
                    "REP002",
                    stmt,
                    f"{field_name} has a mutable default",
                    "use field(default_factory=...) or an immutable value",
                )
            if not self._jsonable_annotation(stmt.annotation):
                self._report(
                    "REP002",
                    stmt,
                    f"{field_name} has a non-JSON-able annotation "
                    f"{ast.unparse(stmt.annotation)}",
                    "specs must round-trip through to_json/from_json",
                )

    @staticmethod
    def _is_classvar(annotation: ast.expr) -> bool:
        target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        chain = _attr_chain(target)
        return bool(chain) and chain[-1] == "ClassVar"

    def _mutable_default(self, value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            chain = _attr_chain(value.func)
            if chain and chain[-1] == "field":
                for kw in value.keywords:
                    if kw.arg == "default" and self._mutable_default(kw.value):
                        return True
                return False
            if chain and chain[-1] in ("list", "dict", "set", "bytearray"):
                return True
        return False

    def _jsonable_annotation(self, annotation: ast.expr) -> bool:
        if isinstance(annotation, ast.Constant):
            if annotation.value is None or annotation.value is Ellipsis:
                return True
            if isinstance(annotation.value, str):
                try:
                    parsed = ast.parse(annotation.value, mode="eval").body
                except SyntaxError:
                    return False
                return self._jsonable_annotation(parsed)
            return False
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            chain = _attr_chain(annotation)
            if not chain:
                return False
            name = chain[-1]
            return name in _JSONABLE_NAMES or name.endswith(_SPEC_SUFFIXES)
        if isinstance(annotation, ast.Subscript):
            if not self._jsonable_annotation(annotation.value):
                return False
            inner = annotation.slice
            elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            return all(self._jsonable_annotation(e) for e in elts)
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            return self._jsonable_annotation(annotation.left) and self._jsonable_annotation(
                annotation.right
            )
        return False

    # -- REP003: raise discipline -------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        self.generic_visit(node)
        exc = node.exc
        if exc is None:
            return  # bare re-raise
        target = exc.func if isinstance(exc, ast.Call) else exc
        chain = _attr_chain(target)
        if not chain:
            return  # raising a computed expression: treat as re-raise
        name = chain[-1]
        if not isinstance(exc, ast.Call) and not _is_builtin_exception(name) and name not in _ALWAYS_OK_RAISES:
            return  # `raise err` style re-raise of a bound variable
        if name in _ALWAYS_OK_RAISES:
            return
        if self._in_util() and _is_builtin_exception(name):
            return
        self._report(
            "REP003",
            node,
            f"raise of {name} outside the ReproError taxonomy",
            "raise a repro.errors.ReproError subclass (e.g. ConfigurationError)",
        )

    # -- REP004: float equality ---------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for operand in (operands[i], operands[i + 1]):
                value = self._float_literal(operand)
                if value is not None and value not in (0.0, 1.0):
                    self._report(
                        "REP004",
                        node,
                        f"float equality against literal {value!r}",
                        "compare with a tolerance (math.isclose / util.validation)",
                    )
                    break
        self.generic_visit(node)

    @staticmethod
    def _float_literal(node: ast.expr) -> float | None:
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        ):
            sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
            return sign * node.operand.value
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return node.value
        return None


# ---------------------------------------------------------------------------
# Drivers.


def lint_source(source: str, path: Path | str) -> list[Finding]:
    """Lint one Python source string as if it lived at ``path``."""
    path = Path(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                rule="REP000",
                severity=ERROR,
                message=f"syntax error: {exc.msg}",
                path=str(path),
                line=exc.lineno or 0,
                hint="file must parse before invariants can be checked",
            )
        ]
    linter = _FileLinter(path, source)
    linter.visit(tree)
    return sorted(linter.findings, key=Finding.sort_key)


def lint_file(path: Path | str) -> list[Finding]:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), path)


def _iter_python_files(paths: Sequence[Path | str]) -> Iterable[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        else:
            yield p


def lint_paths(paths: Sequence[Path | str]) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: list[Finding] = []
    for path in _iter_python_files(paths):
        findings.extend(lint_file(path))
    return sorted(findings, key=Finding.sort_key)


# ---------------------------------------------------------------------------
# Rule selection and the combined (file + concurrency) run.

_PREFIX_TOKEN_RE = re.compile(r"(REP\d+)(?:XX|\*)?", re.IGNORECASE)


def parse_rules(spec: str) -> frozenset[str]:
    """Expand a ``--rules`` value into concrete rule ids.

    Accepts exact ids (``REP001``) and prefix wildcards (``REP2xx`` or
    ``REP2*`` select every catalog rule starting ``REP2``).  Raises
    :class:`~repro.errors.ConfigurationError` on a token matching nothing.
    """
    selected: set[str] = set()
    for raw in spec.split(","):
        token = raw.strip().upper()
        if not token:
            continue
        if token in RULE_CATALOG:
            selected.add(token)
            continue
        m = _PREFIX_TOKEN_RE.fullmatch(token)
        matches = (
            {r for r in RULE_CATALOG if r.startswith(m.group(1))} if m else set()
        )
        if not matches:
            known = ", ".join(sorted(RULE_CATALOG))
            raise ConfigurationError(
                f"unknown rule {raw.strip()!r} (known: {known})"
            )
        selected.update(matches)
    if not selected:
        raise ConfigurationError("--rules selected nothing")
    return frozenset(selected)


def run_lint(
    paths: Sequence[Path | str], *, rules: frozenset[str] | None = None
) -> list[Finding]:
    """File-local rules plus the concurrency pass, filtered to ``rules``.

    ``rules=None`` runs everything this driver owns (REP0xx + REP2xx;
    the REP1xx model rules live in ``repro check``'s pre-solve analyzer).
    A pass only runs when one of its rules is selected, so
    ``--rules REP001`` skips the call-graph build entirely.
    """
    findings: list[Finding] = []
    if rules is None or rules & _FILE_RULES or "REP000" in (rules or ()):
        file_findings = lint_paths(paths)
        if rules is not None:
            file_findings = [
                f for f in file_findings if f.rule in rules or f.rule == "REP000"
            ]
        findings.extend(file_findings)
    if rules is None or rules & _CONCURRENCY_RULES:
        from .concurrency import analyze_concurrency

        conc_rules = sorted(
            _CONCURRENCY_RULES if rules is None else rules & _CONCURRENCY_RULES
        )
        findings.extend(analyze_concurrency(paths, rules=conc_rules))
    return sorted(findings, key=Finding.sort_key)


def report_json(paths: Sequence[str], rules: frozenset[str] | None, findings: list[Finding]) -> str:
    """The ``--json`` findings report (one stable, machine-readable object)."""
    checked = sorted(
        (_FILE_RULES | _CONCURRENCY_RULES | {"REP000"}) if rules is None else rules
    )
    return _json.dumps(
        {
            "paths": list(paths),
            "rules": checked,
            "count": len(findings),
            "findings": [f.to_json() for f in findings],
        },
        indent=2,
        sort_keys=True,
    )


def list_rules() -> str:
    """The ``--list-rules`` table: id, pragma, one-line description."""
    lines = [f"{'RULE':8} {'PRAGMA':22} DESCRIPTION"]
    for rule, entry in RULE_CATALOG.items():
        lines.append(f"{rule:8} {entry.pragma:22} {entry.summary}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "--list-rules" in args:
        print(list_rules())
        return 0
    if not args or any(a in ("-h", "--help") for a in args):
        print(__doc__)
        print(
            "usage: python -m repro.analysis.lint"
            " [--rules REP001,REP2xx] [--json] [--list-rules] PATH [PATH ...]"
        )
        return 0 if args else 2
    json_out = "--json" in args
    args = [a for a in args if a != "--json"]
    rules: frozenset[str] | None = None
    if "--rules" in args:
        at = args.index("--rules")
        if at + 1 >= len(args):
            print("error: --rules needs a value", file=sys.stderr)
            return 2
        try:
            rules = parse_rules(args[at + 1])
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        del args[at : at + 2]
    if not args:
        print("error: no paths given", file=sys.stderr)
        return 2
    missing = [a for a in args if not Path(a).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = run_lint(args, rules=rules)
    if json_out:
        print(report_json(args, rules, findings))
        return 1 if findings else 0
    if findings:
        print(render_findings(findings))
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
