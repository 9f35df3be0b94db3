"""True/false-positive fixture tests for every code-lint rule (REP001-004, REP006-007)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.findings import Finding, render_findings
from repro.analysis.lint import lint_file, lint_paths, lint_source, main

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def rules_of(findings):
    return sorted({f.rule for f in findings})


def lint_snippet(snippet: str, path: str = "pkg/mod.py"):
    """Lint a snippet at a non-repro path (no allowlists apply)."""
    return lint_source(snippet, Path(path))


class TestFinding:
    def test_render_and_json(self):
        f = Finding(
            rule="REP001", severity="error", message="m", path="a.py", line=3, hint="h"
        )
        assert f.render() == "a.py:3: error: REP001: m [h]"
        assert f.to_json() == {
            "rule": "REP001",
            "severity": "error",
            "message": "m",
            "path": "a.py",
            "line": 3,
            "hint": "h",
        }

    def test_channel_location(self):
        f = Finding(rule="REP101", severity="error", message="m", channel="up:1:3")
        assert f.location == "up:1:3"

    def test_invalid_severity_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Finding(rule="R", severity="fatal", message="m")

    def test_render_findings_sorted(self):
        out = render_findings(
            [
                Finding(rule="R2", severity="error", message="b", path="b.py", line=2),
                Finding(rule="R1", severity="error", message="a", path="a.py", line=9),
            ]
        )
        assert out.splitlines()[0].startswith("a.py:9")


class TestREP001Rng:
    def test_unseeded_default_rng_flagged(self):
        fs = lint_snippet("import numpy as np\nrng = np.random.default_rng()\n")
        assert rules_of(fs) == ["REP001"]

    def test_seeded_default_rng_ok(self):
        fs = lint_snippet("import numpy as np\nrng = np.random.default_rng(42)\n")
        assert fs == []

    def test_global_seed_flagged(self):
        fs = lint_snippet("import numpy as np\nnp.random.seed(0)\n")
        assert rules_of(fs) == ["REP001"]

    def test_legacy_sampler_flagged(self):
        fs = lint_snippet("import numpy as np\nx = np.random.rand(3)\n")
        assert rules_of(fs) == ["REP001"]

    def test_stdlib_random_import_flagged(self):
        assert rules_of(lint_snippet("import random\n")) == ["REP001"]
        assert rules_of(lint_snippet("from random import choice\n")) == ["REP001"]

    def test_rng_module_allowlisted(self):
        fs = lint_source(
            "import numpy as np\nrng = np.random.default_rng()\n",
            Path("src/repro/util/rng.py"),
        )
        assert fs == []

    def test_pragma_suppresses(self):
        fs = lint_snippet(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # lint: allow-rng\n"
        )
        assert fs == []


class TestREP002Specs:
    def test_unfrozen_spec_flagged(self):
        fs = lint_snippet(
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class FooSpec:\n"
            "    x: int = 0\n"
        )
        assert rules_of(fs) == ["REP002"]

    def test_frozen_jsonable_spec_ok(self):
        fs = lint_snippet(
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    x: int = 0\n"
            "    names: tuple[str, ...] = ()\n"
            "    table: dict[str, float] = field(default_factory=dict)\n"
        )
        assert fs == []

    def test_mutable_default_flagged(self):
        fs = lint_snippet(
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    xs: list = []\n"
        )
        assert "REP002" in rules_of(fs)

    def test_non_jsonable_annotation_flagged(self):
        fs = lint_snippet(
            "from dataclasses import dataclass\n"
            "import numpy as np\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    arr: np.ndarray = None\n"
        )
        assert "REP002" in rules_of(fs)

    def test_non_spec_class_ignored(self):
        fs = lint_snippet(
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Accumulator:\n"
            "    xs: list = None\n"
        )
        assert fs == []

    def test_field_pragma_suppresses(self):
        fs = lint_snippet(
            "from dataclasses import dataclass\n"
            "import numpy as np\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    arr: np.ndarray = None  # lint: allow-spec-field\n"
        )
        assert fs == []


class TestREP003Raises:
    def test_stdlib_raise_flagged(self):
        fs = lint_snippet("def f():\n    raise ValueError('nope')\n")
        assert rules_of(fs) == ["REP003"]

    def test_repro_error_ok(self):
        fs = lint_snippet("def f():\n    raise ConfigurationError('x')\n")
        assert fs == []

    def test_bare_reraise_ok(self):
        fs = lint_snippet(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        raise\n"
        )
        assert fs == []

    def test_variable_reraise_ok(self):
        fs = lint_snippet("def f(last_error):\n    raise last_error\n")
        assert fs == []

    def test_not_implemented_ok(self):
        fs = lint_snippet("def f():\n    raise NotImplementedError\n")
        assert fs == []

    def test_util_stdlib_allowlisted(self):
        fs = lint_source(
            "def f():\n    raise ValueError('x')\n",
            Path("src/repro/util/helpers.py"),
        )
        assert fs == []

    def test_pragma_suppresses(self):
        fs = lint_snippet(
            "def f():\n    raise AttributeError('x')  # lint: allow-raise\n"
        )
        assert fs == []


class TestREP004FloatEq:
    def test_nonsentinel_literal_flagged(self):
        fs = lint_snippet("ok = x == 0.5\n")
        assert rules_of(fs) == ["REP004"]

    def test_sentinel_literals_ok(self):
        assert lint_snippet("ok = x == 0.0\n") == []
        assert lint_snippet("ok = x != 1.0\n") == []

    def test_int_literal_ok(self):
        assert lint_snippet("ok = x == 3\n") == []

    def test_variable_comparison_ok(self):
        assert lint_snippet("ok = a == b\n") == []

    def test_negative_literal_flagged(self):
        fs = lint_snippet("ok = x == -2.5\n")
        assert rules_of(fs) == ["REP004"]

    def test_pragma_suppresses(self):
        assert lint_snippet("ok = x == 0.5  # lint: allow-float-eq\n") == []


class TestREP006WallClock:
    def test_time_time_flagged(self):
        fs = lint_snippet("import time\nt = time.time()\n")
        assert rules_of(fs) == ["REP006"]

    def test_datetime_now_flagged(self):
        fs = lint_snippet(
            "from datetime import datetime\nt = datetime.now()\n"
        )
        assert rules_of(fs) == ["REP006"]

    def test_perf_counter_ok(self):
        assert lint_snippet("import time\nt = time.perf_counter()\n") == []

    def test_provenance_module_allowlisted(self):
        fs = lint_source(
            "import time\nt = time.time()\n",
            Path("src/repro/runs/result.py"),
        )
        assert fs == []

    def test_pragma_suppresses(self):
        fs = lint_snippet("import time\nt = time.time()  # lint: allow-wall-clock\n")
        assert fs == []

    def test_obs_clock_module_allowlisted(self):
        # obs.clock is the sanctioned wall-clock home of the observability
        # layer (trace-file correlation stamps).
        fs = lint_source(
            "import time\nt = time.time()\n",
            Path("src/repro/obs/clock.py"),
        )
        assert fs == []

    def test_other_obs_modules_still_flagged(self):
        # The allowlist is the one module, not the whole obs package —
        # metrics and tracing must stay on monotonic perf_counter.
        fs = lint_source(
            "import time\nt = time.time()\n",
            Path("src/repro/obs/metrics.py"),
        )
        assert rules_of(fs) == ["REP006"]


class TestREP007RegistryOpen:
    def test_open_on_registry_file_name_flagged(self):
        fs = lint_snippet('fh = open("runs.jsonl")\n')
        assert rules_of(fs) == ["REP007"]

    def test_registry_path_attribute_flagged(self):
        fs = lint_snippet('line = registry.records_path.open("a")\n')
        assert rules_of(fs) == ["REP007"]

    def test_computed_receiver_flagged(self):
        # The receiver being an expression (not a bare name chain) must not
        # hide the access.
        fs = lint_snippet(
            "from pathlib import Path\n"
            'blob = Path("runs.index.sqlite").read_bytes()\n'
        )
        assert rules_of(fs) == ["REP007"]

    def test_joined_quarantine_path_flagged(self):
        fs = lint_snippet(
            "from pathlib import Path\n"
            'root = Path("r")\n'
            '(root / "runs.quarantine.jsonl").write_text("")\n'
        )
        assert rules_of(fs) == ["REP007"]

    def test_unrelated_open_ok(self):
        assert lint_snippet('fh = open("notes.txt")\n') == []

    def test_unrelated_write_text_ok(self):
        assert lint_snippet("report_path.write_text(data)\n") == []

    def test_registry_and_index_modules_allowlisted(self):
        snippet = 'fh = open("runs.jsonl")\n'
        for module in ("registry", "index"):
            fs = lint_source(snippet, Path(f"src/repro/runs/{module}.py"))
            assert fs == []

    def test_pragma_suppresses(self):
        fs = lint_snippet(
            'fh = open("runs.jsonl")  # lint: allow-registry-open\n'
        )
        assert fs == []


class TestDrivers:
    def test_syntax_error_reported_not_raised(self):
        fs = lint_snippet("def broken(:\n")
        assert rules_of(fs) == ["REP000"]

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.py").write_text("t = time.time()\n")
        fs = lint_paths([tmp_path])
        assert rules_of(fs) == ["REP001", "REP006"]

    def test_lint_file(self, tmp_path):
        p = tmp_path / "c.py"
        p.write_text("x = y == 0.25\n")
        assert rules_of(lint_file(p)) == ["REP004"]

    def test_main_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        assert "REP001" in capsys.readouterr().out
        assert main([str(tmp_path / "missing.py")]) == 2

    def test_repo_source_tree_is_finding_free(self):
        findings = lint_paths([SRC])
        assert findings == [], render_findings(findings)


class TestRuleSelectionDriver:
    def test_parse_rules_exact_and_family(self):
        from repro.analysis.lint import parse_rules

        assert parse_rules("REP001,REP004") == {"REP001", "REP004"}
        assert parse_rules("REP2xx") == {"REP201", "REP202", "REP203", "REP204"}
        assert parse_rules("rep2*") == {"REP201", "REP202", "REP203", "REP204"}
        assert parse_rules("REP001, REP2XX") == {
            "REP001", "REP201", "REP202", "REP203", "REP204",
        }

    def test_parse_rules_rejects_unknown(self):
        from repro.errors import ConfigurationError
        from repro.analysis.lint import parse_rules

        with pytest.raises(ConfigurationError):
            parse_rules("REP999")
        with pytest.raises(ConfigurationError):
            parse_rules("")

    def test_run_lint_selection_skips_passes(self, tmp_path):
        from repro.analysis.lint import run_lint

        (tmp_path / "bad.py").write_text("import random\n")
        assert rules_of(run_lint([tmp_path])) == ["REP001"]
        assert run_lint([tmp_path], rules=frozenset({"REP202"})) == []

    def test_main_json_and_list_rules(self, tmp_path, capsys):
        import json

        (tmp_path / "bad.py").write_text("import random\n")
        assert main(["--json", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 1
        assert report["findings"][0]["rule"] == "REP001"
        assert "REP201" in report["rules"]

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP204" in out and "allow-bare-coroutine" in out
        # REP005 policed the top-level shims removed in 3.0.0.
        assert "REP005" not in out and "allow-shim-import" not in out

    def test_main_unknown_rules_exit_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["--rules", "NOPE", str(tmp_path)]) == 2
        assert "unknown rule" in capsys.readouterr().err
