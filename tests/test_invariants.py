"""The repo-invariant AST lint: clean on the tree, sharp on violations."""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_invariants.py"


@pytest.fixture(scope="module")
def invariants():
    spec = importlib.util.spec_from_file_location("check_invariants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(invariants, checker_name: str, source: str):
    checker = getattr(invariants, checker_name)
    return checker(Path("synthetic.py"), ast.parse(source))


def _check_tree(invariants, checker_name: str, path: Path, tree: ast.Module):
    return getattr(invariants, checker_name)(path, tree)


class TestRepoIsClean:
    def test_script_passes_on_the_repo(self):
        completed = subprocess.run(
            [sys.executable, str(SCRIPT)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "invariants OK" in completed.stdout


class TestDeterminismCheck:
    def test_flags_wall_clock_calls(self, invariants):
        violations = _check(
            invariants,
            "check_determinism",
            "import time\ndef f():\n    return time.time()\n",
        )
        assert len(violations) == 1
        assert "wall-clock" in violations[0].message

    def test_flags_datetime_now(self, invariants):
        violations = _check(
            invariants,
            "check_determinism",
            "from datetime import datetime\nx = datetime.now()\n",
        )
        assert len(violations) == 1

    def test_flags_global_random(self, invariants):
        violations = _check(
            invariants,
            "check_determinism",
            "import random\ndef f():\n    return random.random()\n",
        )
        assert len(violations) == 1
        assert "seeded random.Random" in violations[0].message

    def test_allows_seeded_rng_instances(self, invariants):
        violations = _check(
            invariants,
            "check_determinism",
            "import random\ndef f(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.random()\n",
        )
        assert violations == []


class TestFsyncBeforeReplaceCheck:
    def test_flags_replace_without_fsync(self, invariants):
        violations = _check(
            invariants,
            "check_fsync_before_replace",
            "import os\ndef publish(tmp, final):\n    os.replace(tmp, final)\n",
        )
        assert len(violations) == 1
        assert "os.fsync" in violations[0].message

    def test_allows_fsync_then_replace(self, invariants):
        violations = _check(
            invariants,
            "check_fsync_before_replace",
            "import os\n"
            "def publish(handle, tmp, final):\n"
            "    os.fsync(handle.fileno())\n"
            "    os.replace(tmp, final)\n",
        )
        assert violations == []

    def test_rule_is_enforced_repo_wide_not_just_streaming(self, invariants):
        """The durability rule must not be gated on the ``streaming/`` prefix.

        The segmented store publishes manifests and sealed segment
        directories with the same write-temp → fsync → replace idiom, so a
        replace-without-fsync anywhere in the tree is a durability bug.
        """
        source = SCRIPT.read_text(encoding="utf-8")
        assert 'if relative.startswith("streaming/")' not in source

    def test_segment_store_modules_pass_the_durability_rule(self, invariants):
        segment_dir = REPO_ROOT / "src" / "repro" / "storage" / "segment"
        checked = 0
        for path in sorted(segment_dir.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert _check_tree(invariants, "check_fsync_before_replace", path, tree) == []
            checked += 1
        assert checked >= 4  # columnio, manifest, segment, database, __init__


class TestMutableDefaultCheck:
    def test_flags_list_default(self, invariants):
        violations = _check(
            invariants, "check_mutable_defaults", "def f(items=[]):\n    pass\n"
        )
        assert len(violations) == 1
        assert "mutable default" in violations[0].message

    def test_flags_dict_keyword_default(self, invariants):
        violations = _check(
            invariants, "check_mutable_defaults", "def f(*, extra={}):\n    pass\n"
        )
        assert len(violations) == 1

    def test_allows_none_and_immutable_defaults(self, invariants):
        violations = _check(
            invariants,
            "check_mutable_defaults",
            "def f(items=None, name='x', count=0, pair=()):\n    pass\n",
        )
        assert violations == []


class TestPerRowCompileCheck:
    @pytest.mark.parametrize(
        "source",
        [
            "import re\nclass Like:\n    def evaluate(self, row):\n"
            "        return re.compile(self.pattern).match(row['v'])\n",
            "class NodePattern:\n    def matches(self, node):\n"
            "        return any(w for w, _ in like_tokens(self.pattern))\n",
            # Through a helper of the same class, as the LIKE once was.
            "import re\nclass Like:\n    def _regex(self):\n"
            "        return re.compile(''.join(c for _, c in like_tokens(self.pattern)))\n"
            "    def evaluate(self, row):\n        return self._regex().match(row['v'])\n",
        ],
    )
    def test_flags_compiling_inside_evaluate_or_matches(self, invariants, source):
        [violation] = _check(invariants, "check_no_per_row_compile", source)
        assert "runs per row" in violation.message

    def test_allows_compiling_once_outside_them(self, invariants):
        violations = _check(
            invariants,
            "check_no_per_row_compile",
            "import re\n"
            "def like_regex(pattern):\n"
            "    return re.compile(''.join(c for _, c in like_tokens(pattern)))\n"
            "class Like:\n"
            "    def __post_init__(self):\n"
            "        self.regex = like_regex(self.pattern)\n"
            "    def evaluate(self, row):\n"
            "        return self.regex.match(row['v'])\n",
        )
        assert violations == []


class TestOneIngestPathCheck:
    def test_flags_a_loader_on_a_backend(self, invariants):
        [violation] = _check(
            invariants,
            "check_one_ingest_path",
            "class GraphDatabase:\n    def append_batch(self, entities, events):\n        pass\n"
            "    def load_trace(self, trace):\n        pass\n",
        )
        assert "GraphDatabase.load_trace() is a second ingest path" in violation.message

    def test_allows_the_audit_store_loader(self, invariants):
        violations = _check(
            invariants,
            "check_one_ingest_path",
            "class AuditStore:\n    def load_trace(self, trace):\n        pass\n"
            "class RelationalDatabase:\n    def append_batch(self, entities, events):\n"
            "        pass\n",
        )
        assert violations == []


class TestOneWritePathCheck:
    @pytest.mark.parametrize(
        "source",
        [
            # The shapes of the five row-at-a-time writes this rule replaced.
            "def f(t, es):\n    return t.insert_many(e.to_row() for e in es)\n",
            "def f(t, rows, keep):\n    t.insert_many(r for r in rows if keep(r['id']))\n",
            "def f(t, rows):\n    t.insert_many(rows)\n",
            "def f(t, row):\n    return t.insert(row)\n",
            "def f(t, row):\n    return t.insert(row=row)\n",
        ],
    )
    def test_flags_a_row_at_a_time_table_write(self, invariants, source):
        violations = _check(invariants, "check_one_write_path", source)
        assert len(violations) == 1
        assert "Table.append_columns" in violations[0].message

    def test_allows_the_columnar_step_and_two_argument_inserts(self, invariants):
        violations = _check(
            invariants,
            "check_one_write_path",
            "def f(t, columns, n, xs, index):\n"
            "    t.append_columns(columns, n)\n"
            "    xs.insert(0, 'x')\n"
            "    index.insert('value', 3)\n",
        )
        assert violations == []


class TestImportBoundaryCheck:
    @pytest.mark.parametrize(
        "source",
        [
            "import sqlite3\n",
            "def f():\n    import sqlite3 as sql\n",
            "from sqlite3 import connect\n",
            "from tests.oracles import PathMatcher\n",
            "import tests.oracles.sqlite\n",
        ],
    )
    def test_flags_sqlite_and_tests_imports(self, invariants, source):
        violations = _check(invariants, "check_import_boundaries", source)
        assert len(violations) == 1
        assert "test oracles stay under tests/" in violations[0].message

    def test_allows_product_and_relative_imports(self, invariants):
        violations = _check(
            invariants,
            "check_import_boundaries",
            "import json\nfrom repro.storage.sql.render import render_select_query\n"
            "from . import tests\nfrom .tests import helper\n",
        )
        assert violations == []

    @pytest.mark.parametrize(
        "source",
        [
            "from repro.tbql.compiler import compile_select\n",
            "from repro.tbql.compiler.relational import EVENT_ALIAS\n",
            "import repro.tbql.compiler.graph\n",
            "def f():\n    from repro.tbql import compiler\n",
        ],
    )
    def test_only_tbql_imports_the_pattern_compilers(self, invariants, source):
        tree = ast.parse(source)
        path = Path("synthetic.py")
        for outside in ("storage/loader.py", "streaming/monitor.py", "cli.py"):
            [violation] = invariants.check_import_boundaries(path, tree, outside)
            assert "PreparedQuery" in violation.message
        for inside in ("tbql/prepared.py", "tbql/analysis/portability.py"):
            assert invariants.check_import_boundaries(path, tree, inside) == []

    @pytest.mark.parametrize(
        "source",
        [
            "from repro.storage.segment import SegmentedRelationalDatabase\n",
            "from repro.storage.segment.manifest import SegmentManifest\n",
            "def f():\n    from repro.storage import segment\n",
            "from repro.storage.relational.executor import QueryExecutor\n",
            "import repro.storage.relational.executor\n",
        ],
    )
    def test_only_storage_imports_segments_and_the_executor(self, invariants, source):
        tree = ast.parse(source)
        path = Path("synthetic.py")
        for outside in ("tbql/prepared.py", "streaming/monitor.py", "core/pipeline.py"):
            [violation] = invariants.check_import_boundaries(path, tree, outside)
            assert "AuditStore" in violation.message
        for inside in ("storage/loader.py", "storage/segment/database.py"):
            assert invariants.check_import_boundaries(path, tree, inside) == []
