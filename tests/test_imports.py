"""Import diet: packages export lazily, so a run loads only the stack it uses.

Every package ``__init__`` builds its ``__all__``/``__getattr__``/``__dir__``
from one ``{submodule: names}`` map (:mod:`repro._exports`) and repeats the
map as ``from .x import y`` lines under ``if TYPE_CHECKING:`` for mypy and
the REPRO2xx resolver.  These tests hold the map, that block and the names
to one another, and check in fresh interpreters which modules a run loads.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.campaign",
    "repro.campaign.fleet",
    "repro.codes",
    "repro.dram",
    "repro.faults",
    "repro.galois",
    "repro.maintenance",
    "repro.obs",
    "repro.perf",
    "repro.reliability",
    "repro.schemes",
)

#: stacks no reliability answer uses: loading one of them is a regression.
UNUSED_STACKS = (
    "repro.perf",
    "repro.maintenance",
    "repro.analysis.report",
    "repro.campaign.fleet",
    "repro.obs.top",
    "asyncio",
    "ssl",
)

#: what perfbench's workloads import, as they spell it.
PERFBENCH_IMPORTS = """
from repro.analysis import sweep
from repro.reliability import batch, conditional, rareevent
from repro.schemes import default_schemes
"""


def _init_tree(package: str) -> ast.Module:
    path = SRC.joinpath(*package.split("."), "__init__.py")
    return ast.parse(path.read_text(encoding="utf-8"))


def export_map(package: str) -> set[tuple[str, str]]:
    """``(submodule, name)`` pairs of the map handed to ``lazy_exports``."""
    for node in ast.walk(_init_tree(package)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports":
            exports = ast.literal_eval(node.args[1])
            return {(sub, name) for sub, names in exports.items() for name in names}
    raise AssertionError(f"{package} does not call lazy_exports")


def type_checking_map(package: str) -> set[tuple[str, str]]:
    """``(submodule, name)`` pairs imported under ``if TYPE_CHECKING:``."""
    pairs: set[tuple[str, str]] = set()
    for node in _init_tree(package).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING":
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom) and stmt.level == 1, ast.dump(stmt)
                for alias in stmt.names:
                    assert alias.asname is None, f"{package}: {alias.name} is renamed"
                    sub = stmt.module or alias.name
                    pairs.add((sub, alias.name))
    return pairs


def fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on ``src/``."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(code: str) -> set[str]:
    """Every module a fresh interpreter holds after running ``code``."""
    probe = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = fresh(textwrap.dedent(code) + probe)
    return set(json.loads(out.splitlines()[-1]))


class TestColdStart:
    @pytest.mark.parametrize("code", [
        "import repro",
        PERFBENCH_IMPORTS,
        "from repro.campaign import runner",
    ], ids=["repro", "perfbench", "campaign-runner"])
    def test_loads_no_unused_stack(self, code):
        loaded = loaded_after(code)
        assert loaded.isdisjoint(UNUSED_STACKS), sorted(loaded & set(UNUSED_STACKS))

    def test_import_repro_loads_no_subpackage(self):
        loaded = loaded_after("import repro")
        assert sorted(m for m in loaded if m.startswith("repro.")) == ["repro._exports"]

    def test_cli_parses_arguments_without_an_engine(self):
        loaded = loaded_after("""
            from repro.cli import build_parser
            build_parser().parse_args(["campaign", "status", "--dir", "d"])
        """)
        assert sorted(m for m in loaded if m.startswith("repro.")) == [
            "repro._exports", "repro.cli",
        ]
        assert "numpy" not in loaded

    def test_local_campaign_never_imports_the_fleet(self, tmp_path):
        """Neither the supervisor nor its forked workers import the fleet stack."""
        log = tmp_path / "imports.log"
        fresh(f"""
            import sys

            WATCH = {UNUSED_STACKS!r}

            def audit(event, args):
                if event == "import" and args[0] in WATCH:
                    with open({str(log)!r}, "a") as fh:
                        fh.write(args[0] + "\\n")

            sys.addaudithook(audit)
            from repro.campaign import runner
            from repro.campaign.supervisor import SupervisorPolicy
            from repro.faults.rates import DEFAULT_RATES

            config = runner.CampaignConfig(
                scheme="pair", kind="rareevent", trials=256, seed=3, chunk_trials=64,
                rates=DEFAULT_RATES.pure_ber(1e-4), tilt=2.0, rare_samples=8,
            )
            result = runner.start_campaign({str(tmp_path / "c")!r}, config,
                                           SupervisorPolicy(workers=2))
            assert result.complete
        """)
        assert not log.exists(), log.read_text()

    def test_unlisted_submodule_resolves_on_first_read(self):
        out = fresh("""
            import repro
            print(repro.obs.top.__name__, repro.reliability.batch.__name__)
        """)
        assert out.split() == ["repro.obs.top", "repro.reliability.batch"]


class TestExportMaps:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_type_checking_block_equals_the_export_map(self, package):
        assert type_checking_map(package) == export_map(package)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_init_imports_no_submodule_at_module_level(self, package):
        eager = [
            ast.unparse(node) for node in _init_tree(package).body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module in ("typing", "_exports"))
        ]
        assert eager == []

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_all_lists_every_exported_name_once(self, package):
        module = importlib.import_module(package)
        exported = [name for _, name in export_map(package)]
        assert len(exported) == len(set(exported)), "a name has two submodules"
        assert set(exported) <= set(module.__all__)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("how", ["getattr", "from-import"])
    def test_every_name_resolves_to_its_definition(self, how):
        """Each name's first read goes through ``how``, in a fresh process."""
        owners = {pkg: {name: sub for sub, name in export_map(pkg)}
                  for pkg in LAZY_PACKAGES}
        out = fresh(f"""
            import importlib, json

            wrong = []
            for package, owner in {owners!r}.items():
                for name, sub in owner.items():
                    if {how!r} == "getattr":
                        value = getattr(importlib.import_module(package), name)
                    else:
                        scope = {{}}
                        exec(f"from {{package}} import {{name}}", scope)
                        value = scope[name]
                    module = importlib.import_module(f"{{package}}.{{sub}}")
                    if value is not (module if name == sub else getattr(module, name)):
                        wrong.append(f"{{package}}.{{name}}")
                for name in importlib.import_module(package).__all__:
                    if not hasattr(importlib.import_module(package), name):
                        wrong.append(f"{{package}}.{{name}}")
            print(json.dumps(wrong))
        """)
        assert json.loads(out) == []

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error_naming_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"module '{package}' has no attribute"):
            getattr(module, "no_such_name")
        with pytest.raises(ImportError, match=package):
            exec(f"from {package} import no_such_name", {})
