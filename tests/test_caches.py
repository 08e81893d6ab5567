"""The cache registry: every cache of the package is registered, one
``cache_info``/``clear_caches`` covers them all, also under the benchmark
tracer."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

from heckepoly import cache_info, clear_caches
from heckepoly.verify import reports_to_json, run_all
from test_verify import SMALL

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heckepoly"
_CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _decorator_name(node) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _module_sources():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("caches.py", "__main__.py"):  # __main__ runs the CLI
            yield path.stem, path.read_text(encoding="utf-8")


def _empty_module_containers(tree) -> list[str]:
    """Names bound at module level to an empty dict, list or set: state
    that only run time fills."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        empty = (
            (isinstance(value, ast.Dict) and not value.keys)
            or (isinstance(value, ast.List) and not value.elts)
        ) or (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", "") in {"dict", "list", "set"}
            and not value.args
            and not value.keywords
        )
        if empty and isinstance(target, ast.Name):
            names.append(target.id)
    return names


def test_only_the_registry_memoizes():
    """No module but ``caches`` imports lru_cache, and no module-level
    function or method is memoized by a decorator other than ``memo``."""
    for module, source in _module_sources():
        assert "lru_cache" not in source, module
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [_decorator_name(d) for d in node.decorator_list]
                assert set(names) <= {"memo"}, (module, node.name, names)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names = {_decorator_name(d) for d in item.decorator_list}
                        assert not names & _CACHE_DECORATORS, (module, node.name, item.name)


def test_clear_caches_empties_every_cache_after_a_run():
    """After a small-grid run, clear_caches leaves every registered cache
    and every module-level dict, list or set that run time fills empty, and
    a second run reports the same."""
    clear_caches()
    first = reports_to_json(run_all(SMALL))
    assert sum(cache_info().values()) > 0
    clear_caches()
    assert not any(cache_info().values()), cache_info()
    for module, source in _module_sources():
        mod = importlib.import_module(f"heckepoly.{module}")
        for name in _empty_module_containers(ast.parse(source)):
            assert not getattr(mod, name), f"{module}.{name} is a cache outside the registry"
    assert reports_to_json(run_all(SMALL)) == first
    clear_caches()


_TRACED = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
from tracer import Tracer
import heckepoly
from heckepoly import verify
from heckepoly.parameters import jack_spec

tracer = Tracer()
tracer.install(suites=verify.SUITES, callers=[workloads])
heckepoly.jack((2, 1), jack_spec(2, 1))
heckepoly.calibrate("jack", 2, 1, None)
built = heckepoly.cache_info()
heckepoly.clear_caches()
json.dump({{"built": built, "cleared": heckepoly.cache_info(),
            "traced": tracer.report()["shift.calibrate.calls"]}}, sys.stdout)
"""


def test_cache_api_works_under_the_benchmark_tracer():
    """The tracer rebinds module attributes and dict values to plain
    wrappers; the registry still reports and clears every cache."""
    script = _TRACED.format(bench=str(ROOT / "bench"), src=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["traced"] == 1
    assert result["built"]["families._checked_symmetric"] > 0
    assert result["built"]["shift.calibrate"] == 1
    assert not any(result["cleared"].values()), result["cleared"]
