"""What importing hmt loads, checked in fresh interpreters.

The exact layers are plain Python: `import hmt, hmt.cli` and the exact
commands load neither numpy nor scipy, and the numpy/scipy-backed exports
load on first access.  Each check runs in a subprocess, because in this
test session earlier test modules have imported numpy, scipy and every hmt
submodule already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmt
from hmt.cli import EXIT_CAPACITY, EXIT_OK

SRC = str(Path(hmt.__file__).resolve().parents[1])
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# runs each command (one per argument, split on spaces) through hmt.cli.main
# in this interpreter, then prints the exit codes, which of numpy/scipy
# loaded, and which of dataclasses, inspect and json loaded, which start-up
# does without.  json is looked up before the snippet imports it to print.
RUN_COMMANDS = """
import contextlib, io, sys
import hmt, hmt.cli
codes = []
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(hmt.cli.main(command.split(" ")))
        except SystemExit as exc:
            codes.append(exc.code)
top = {name.split(".")[0] for name in sys.modules}
loaded = sorted(top & {"numpy", "scipy"})
stdlib = sorted(top & {"dataclasses", "inspect", "json"})
import json
print(json.dumps({"codes": codes, "loaded": loaded, "stdlib": stdlib}))
"""


def run_fresh(code: str, *args: str):
    """JSON printed by `code` run in a new interpreter that imports hmt from this tree."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_commands(*argvs: list[str]) -> dict:
    return run_fresh(RUN_COMMANDS, *(" ".join(argv) for argv in argvs))


class TestNumericStackLoadsOnUse:
    def test_exact_commands_load_neither(self):
        result = run_commands(
            ["--version"],
            ["moments", "--family", "toeplitz", "--max-order", "8"],
            ["moments", "--family", "hankel", "--max-order", "8"],
            ["moments", "--family", "markov", "--max-order", "16"],
            ["moments", "--family", "hankel", "--max-order", "18"],
            ["words", "--k", "4", "--method", "exact"],
        )
        assert result["codes"] == [0, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_CAPACITY, EXIT_OK]
        assert result["loaded"] == []
        # the value classes are plain classes, and json loads only for a JSON artifact
        assert result["stdlib"] == []

    def test_json_artifact_loads_json_only(self):
        result = run_commands(["words", "--k", "2", "--method", "exact", "--format", "json"])
        assert result == {"codes": [EXIT_OK], "loaded": [], "stdlib": ["json"]}

    def test_monte_carlo_words_load_numpy_only(self):
        result = run_commands(["words", "--k", "3", "--method", "mc", "--samples", "100"])
        assert result["codes"] == [EXIT_OK] and result["loaded"] == ["numpy"]


class TestLazyExports:
    def test_exports_are_the_defining_modules_objects(self):
        result = run_fresh("""
import importlib, json
import hmt
wrong = []
for name in hmt.__all__:
    value = getattr(hmt, name)
    owner = importlib.import_module(getattr(value, "__module__", "hmt"))
    if getattr(owner, name) is not value:
        wrong.append(name)
print(json.dumps({"wrong": wrong, "count": len(hmt.__all__)}))
""")
        assert result == {"wrong": [], "count": len(hmt.__all__)}

    def test_star_import_binds_all(self):
        result = run_fresh("""
import json
import hmt
namespace = {}
exec("from hmt import *", namespace)
print(json.dumps({"bound": sorted(set(namespace) - {"__builtins__"}),
                  "all": sorted(hmt.__all__)}))
""")
        assert result["bound"] == result["all"]

    def test_all_names_each_lazy_export_once(self):
        lazy = [name for names in hmt._LAZY.values() for name in names]
        assert len(hmt.__all__) == len(set(hmt.__all__))
        assert len(lazy) == len(set(lazy))
        assert set(lazy) <= set(hmt.__all__)

    def test_submodules_resolve_as_attributes(self):
        result = run_fresh("""
import json
import hmt
print(json.dumps([getattr(hmt, name).__name__ for name in ("ensembles", "spectra")]))
""")
        assert result == ["hmt.ensembles", "hmt.spectra"]

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError):
            hmt.no_such_name  # noqa: B018
        with pytest.raises(AttributeError):
            hmt.cli.no_such_name  # noqa: B018

    def test_traced_paths_resolve_after_import(self):
        # perfbench's worker imports hmt and hmt.cli, then wraps every TRACED
        # path; tracing.py is only read here, loaded by path
        result = run_fresh("""
import importlib.util, json, sys
import hmt, hmt.cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = []
for path, _ in tracing.TRACED:
    owner = hmt
    for part in path.split("."):
        owner = getattr(owner, part, None)
    if not callable(owner):
        missing.append(path)
print(json.dumps(missing))
""", str(TRACING))
        assert result == []
