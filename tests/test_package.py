"""Tests for the package surface: lazy exports, start-up without the
polynomial layers or numpy, and the ``python -m knit`` entry points."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import knit
from knit import su2q
from knit.cli import run

SRC = Path(knit.__file__).resolve().parents[1]
README = SRC.parent / "README.md"

HOME_MODULES = [
    importlib.import_module(f"knit.{name}")
    for name in ("braid", "diagram", "errors", "garside", "jones", "laurent", "qsim", "su2q")
]

#: Every module of the package but ``__main__``.
PACKAGE_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(knit.__path__) if m.name != "__main__"
)

EXACT_COMMANDS = [
    ["parse", "s1 s2^-1 s1"],
    ["nf", "s1 s2 s1 s2^-1", "--json"],
    ["eq", "s1 s2 s1", "s2 s1 s2"],
    ["closure-info", "s2^3", "-n", "4", "--closure", "plat", "--json"],
    ["jones", "s1^3"],
    ["jones", "s2^3", "-n", "4", "--closure", "plat", "--at-root", "5", "--json"],
    ["invariance-test", "--trials", "2"],
]


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports knit from this source tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestLazyExports:
    @pytest.mark.parametrize("name", [n for n in knit.__all__ if n != "__version__"])
    def test_every_public_name_is_its_home_object(self, name):
        value = getattr(knit, name)
        homes = [m for m in HOME_MODULES if name in vars(m)]
        assert homes
        assert all(vars(m)[name] is value for m in homes)

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from knit import *", namespace)
        assert set(knit.__all__) <= set(namespace)
        assert namespace["colored_invariant"] is su2q.colored_invariant

    def test_dir_lists_every_public_name(self):
        assert set(knit.__all__) <= set(dir(knit))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            knit.no_such_name  # noqa: B018

    def test_numeric_modules_are_reachable_after_a_bare_import(self):
        done = _python(
            "-c",
            "import sys, knit\n"
            "assert 'numpy' not in sys.modules\n"
            "assert knit.su2q.__name__ == 'knit.su2q'\n"
            "assert knit.qsim.approx_jones is knit.approx_jones\n",
        )
        assert done.returncode == 0, done.stderr

    def test_the_word_problem_starts_with_only_its_own_modules(self):
        done = _python(
            "-c",
            "import sys\n"
            "from knit import parse_braid, words_equal\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('knit'))\n"
            "assert loaded == ['knit', 'knit.braid', 'knit.errors', 'knit.garside'], loaded\n"
            "import knit\n"
            "for name in knit.__all__:\n"
            "    getattr(knit, name)\n"
            "assert knit.jones.jones_polynomial is knit.jones_polynomial\n",
        )
        assert done.returncode == 0, done.stderr

    def test_exact_commands_do_not_load_fractions(self):
        done = _python(
            "-c",
            "import sys\n"
            "from knit.cli import run\n"
            f"for argv in {EXACT_COMMANDS!r}:\n"
            "    assert run(argv).exit_code == 0, argv\n"
            "assert 'fractions' not in sys.modules\n",
        )
        assert done.returncode == 0, done.stderr


class TestSurfaceGuards:
    def test_qsim_imports_no_private_su2q_name(self):
        tree = ast.parse((SRC / "knit" / "qsim.py").read_text(encoding="utf-8"))
        imported = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in {(1, "su2q"), (0, "knit.su2q")}
            for alias in node.names
        ]
        assert imported
        assert not [name for name in imported if name.startswith("_")]

    @pytest.mark.parametrize("module", PACKAGE_MODULES)
    def test_readme_modules_table_names_only_public_names(self, module):
        row = re.search(
            rf"^\| `knit\.{module}` \|(.*)\|$", README.read_text(encoding="utf-8"), re.MULTILINE
        )
        assert row is not None, f"README's Modules table has no knit.{module} row"
        names = re.findall(r"`(\w+)`", row.group(1))
        assert names
        public = importlib.import_module(f"knit.{module}").__all__
        assert [name for name in names if name not in public] == []


class TestStartWithoutNumpy:
    def test_exact_commands_run_with_numpy_blocked(self):
        expected = [run(argv).rendered for argv in EXACT_COMMANDS]
        done = _python(
            "-c",
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from knit import parse_braid, words_equal, jones_polynomial, markov_trace_jones\n"
            "from knit.cli import run\n"
            f"for argv in {EXACT_COMMANDS!r}:\n"
            "    result = run(argv)\n"
            "    assert result.exit_code == 0, (argv, result.rendered)\n"
            "    print(result.rendered)\n",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "".join(text + "\n" for text in expected)

    @pytest.mark.parametrize("argv", [
        ["colored", "s2^3", "-n", "4", "--colors", "1", "--root", "5"],
        ["approx", "s2^3", "-n", "4", "--root", "5", "--delta", "0.5"],
    ], ids=["colored", "approx"])
    def test_numeric_commands_load_numpy(self, argv):
        done = _python(
            "-c",
            "import sys\n"
            "from knit.cli import main\n"
            "assert 'numpy' not in sys.modules\n"
            f"assert main({argv!r}) == 0\n"
            "assert 'numpy' in sys.modules\n",
        )
        assert done.returncode == 0, done.stderr

    def test_the_sampler_runs_without_numpy_random(self):
        # qsim hashes and steps every reading itself, so the estimators and
        # knit approx never pay for importing numpy.random
        done = _python(
            "-c",
            "import sys\n"
            "from knit import approx_jones, estimate_markov_trace, parse_braid\n"
            "from knit.cli import main\n"
            "w = parse_braid('s2^3', 4)\n"
            "approx_jones(w, 5, 0.3, seed=1)\n"
            "estimate_markov_trace(w, [2], 5, 0.3, seed=1)\n"
            "assert main(['approx', 's2^3', '-n', '4', '--root', '5', '--delta', '0.5']) == 0\n"
            "assert 'numpy' in sys.modules\n"
            "assert 'numpy.random' not in sys.modules\n",
        )
        assert done.returncode == 0, done.stderr


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["knit", "knit.cli"])
    def test_python_dash_m_prints_the_payload(self, module):
        done = _python("-m", module, "jones", "s1^3", "--json")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == run(["jones", "s1^3", "--json"]).payload
        assert json.loads(done.stdout)["polynomial"]["pretty"] == "t^1 + t^3 - t^4"

    def test_python_dash_m_passes_the_exit_code(self):
        done = _python("-m", "knit", "jones", "s2", "-n", "2")
        assert done.returncode == 2
        assert "out of range" in done.stderr
        assert done.stdout == ""
