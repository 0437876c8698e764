"""What importing pcmeta and running its commands loads: numpy and
scipy.special only where a command calls one of their kernels.  Each
module reaches numpy through ``errors._LazyNumpy`` and scipy through
function-level imports, so ``import pcmeta.cli`` loads neither.

Each check runs in a fresh interpreter with ``PYTHONPATH=src``, because
this process has loaded scipy long before any test runs.
"""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import special as sps

import pcmeta
from pcmeta import cli, numerics
from pcmeta import io as pio
from pcmeta.numerics import ProbValue

SRC = Path(__file__).resolve().parent.parent / "src"
SIM_CONFIG = {"mu0_values": [0.3], "sigma0_values": [0.2], "r0": [2], "reps": 1000, "seed": 5}

# Commands that call no scipy kernel on the bundled data.
NO_SCIPY_COMMANDS = [
    ["pc", "noac.csv"],
    ["pc", "noac.csv", "--method", "simes"],
    ["pc", "noac.csv", "--method", "bonferroni"],
    ["pc", "noac.csv", "--method", "tpm", "--gamma", "0.2"],
    ["pc", "noac.csv", "--groups"],
    ["pc", "noac.csv", "--r", "3"],
    ["pc", "noac.csv", "--enumerate"],
    ["pc", "noac.csv", "--enumerate", "--method", "tpm", "--gamma", "0.2"],
    ["oracle", "validity", "--method", "fisher", "--k", "5", "--reps", "10000", "--seed", "1"],
    ["oracle", "validity", "--method", "tpm", "--gamma", "0.2", "--k", "5", "--reps", "10000",
     "--seed", "1"],
    ["exact2x2", "counts.csv"],
    ["dataset"],
]
# Commands that do: each must load scipy.special on its own.
SCIPY_COMMANDS = {
    "pc_stouffer_n": ["pc", "noac.csv", "--method", "stouffer", "--weights-from", "n_sample"],
    "simulate": ["simulate", "sim.json", "--out", "sim.csv"],
}
# The paper's scalar analysis: PC curves, grouped GBHPC and exact tests.
NO_NUMPY_COMMANDS = [
    ["pc", "noac.csv"],
    ["pc", "noac.csv", "--method", "simes"],
    ["pc", "noac.csv", "--method", "bonferroni"],
    ["pc", "noac.csv", "--method", "tpm", "--gamma", "0.2"],
    ["pc", "noac.csv", "--groups"],
    ["pc", "noac.csv", "--r", "3"],
    ["pc", "noac.csv", "--enumerate", "--r", "9"],
    ["exact2x2", "counts.csv"],
    ["dataset"],
]
# Commands with array kernels: each must load numpy on its own.
NUMPY_COMMANDS = {
    "oracle_validity": ["oracle", "validity", "--method", "fisher", "--k", "5", "--reps",
                        "10000", "--seed", "1"],
    "simulate": SCIPY_COMMANDS["simulate"],
    "counterexample": ["counterexample", "--grid", "3", "--reps", "10000", "--seed", "2",
                       "--out", "ce.csv"],
}

# Runs the commands of argv[1] through cli.main in one fresh process
# and writes, per command, its exit code and whether module argv[2] was
# loaded once it returned.
CLI_PROBE = """
import json, sys
from pcmeta import cli
report = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    report.append([code, sys.argv[2] in sys.modules])
with open("probe.json", "w") as fh:
    json.dump(report, fh)
"""


def fresh_python(code: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PCMETA_SEED"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def write_inputs(directory: Path) -> None:
    (directory / "noac.csv").write_text(pio.export_bundled_csv("pvalues"))
    (directory / "counts.csv").write_text(pio.export_bundled_csv("counts"))
    (directory / "sim.json").write_text(json.dumps(SIM_CONFIG))


def probe_commands(commands, directory: Path, module: str = "scipy.special"):
    """(stdout bytes, [[exit code, module loaded]] per command)."""
    write_inputs(directory)
    proc = fresh_python(CLI_PROBE, json.dumps(commands), module, cwd=directory)
    return proc.stdout, json.loads((directory / "probe.json").read_text())


def test_import_cli_loads_no_scipy_special(tmp_path):
    fresh_python("import sys, pcmeta.cli\nassert 'scipy.special' not in sys.modules, "
                 "sorted(m for m in sys.modules if m.startswith('scipy'))", cwd=tmp_path)


def test_import_cli_loads_no_numpy(tmp_path):
    fresh_python("import sys, pcmeta.cli\nassert 'numpy' not in sys.modules", cwd=tmp_path)


def test_import_cli_loads_no_thread_pool(tmp_path):
    # run_power_map imports concurrent.futures when it runs (numpy and
    # scipy load it too); the import of the CLI must not.
    fresh_python("import sys, pcmeta.cli\nassert 'concurrent.futures' not in sys.modules",
                 cwd=tmp_path)


def test_scalar_commands_load_no_thread_pool(tmp_path):
    _, report = probe_commands(NO_NUMPY_COMMANDS, tmp_path, "concurrent.futures")
    assert report == [[0, False]] * len(NO_NUMPY_COMMANDS)


def test_import_cli_builds_no_parser(tmp_path):
    # Parsers are counted by their construction; the first main() call
    # builds the process's one parser and the second reuses it.
    fresh_python("""
import argparse
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
from pcmeta import cli
assert built == [] and cli._parser.cache_info().currsize == 0
assert cli.main(["dataset"]) == 0
count = len(built)
assert count > 0 and cli._parser.cache_info().currsize == 1
assert cli.main(["dataset", "--view", "counts"]) == 0 and len(built) == count
""", cwd=tmp_path)


def test_first_numpy_read_rebinds_only_that_module(tmp_path):
    fresh_python("""
import sys
from pcmeta import combiners, numerics
from pcmeta.errors import _LazyNumpy
assert isinstance(numerics.np, _LazyNumpy) and "numpy" not in sys.modules
assert numerics.np.log1p(0.0) == 0.0
assert numerics.np is sys.modules["numpy"] and isinstance(combiners.np, _LazyNumpy)
""", cwd=tmp_path)


def test_commands_without_scipy_kernels_load_none(tmp_path):
    _, report = probe_commands(NO_SCIPY_COMMANDS, tmp_path)
    assert report == [[0, False]] * len(NO_SCIPY_COMMANDS)


def test_scalar_commands_load_no_numpy(tmp_path):
    _, report = probe_commands(NO_NUMPY_COMMANDS, tmp_path, "numpy")
    assert report == [[0, False]] * len(NO_NUMPY_COMMANDS)


def assert_loads_with_same_bytes(argv, module, tmp_path, monkeypatch, capsys):
    """A fresh process running argv loads module, and prints and writes
    the same bytes as this process, where everything is loaded."""
    fresh_dir, here_dir = tmp_path / "fresh", tmp_path / "here"
    fresh_dir.mkdir()
    here_dir.mkdir()
    fresh_out, report = probe_commands([argv], fresh_dir, module)
    assert report == [[0, True]]

    write_inputs(here_dir)
    monkeypatch.chdir(here_dir)
    monkeypatch.delenv("PCMETA_SEED", raising=False)
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert fresh_out == capsys.readouterr().out.encode()
    written = sorted(set(os.listdir(here_dir)) - {"noac.csv", "counts.csv", "sim.json"})
    for out_name in written:
        assert (fresh_dir / out_name).read_bytes() == (here_dir / out_name).read_bytes()


@pytest.mark.parametrize("name", sorted(SCIPY_COMMANDS))
def test_commands_with_scipy_kernels_load_it_with_same_bytes(
    name, tmp_path, monkeypatch, capsys
):
    assert_loads_with_same_bytes(SCIPY_COMMANDS[name], "scipy.special", tmp_path,
                                 monkeypatch, capsys)


@pytest.mark.parametrize("name", sorted(NUMPY_COMMANDS))
def test_commands_with_array_kernels_load_numpy_with_same_bytes(
    name, tmp_path, monkeypatch, capsys
):
    assert_loads_with_same_bytes(NUMPY_COMMANDS[name], "numpy", tmp_path, monkeypatch,
                                 capsys)


# The first call of the scalar normal pair in a fresh process goes through
# a stub: the probe prints that call's value as hex, then checks that the
# module globals are now the cython_special kernels.
SCALAR_PROBE = """
import sys
from pcmeta import numerics
from pcmeta.numerics import ProbValue, std_normal_quantile, std_normal_sf
stubs = (numerics._ndtr, numerics._log_ndtr, numerics._ndtri, numerics._ndtri_exp)
assert "scipy.special" not in sys.modules
kind, x = sys.argv[1], float.fromhex(sys.argv[2])
if kind == "sf":
    p = std_normal_sf(x)
    print(p.linear.hex(), p.log_value.hex())
else:
    print(std_normal_quantile(ProbValue.from_log(x)).hex())
from scipy.special import cython_special as cs
assert numerics._ndtri is cs.ndtri and numerics._ndtri_exp is cs.ndtri_exp
assert numerics._ndtr is cs.ndtr["double"] and numerics._log_ndtr is cs.log_ndtr["double"]
assert not set(stubs) & {numerics._ndtr, numerics._log_ndtr, numerics._ndtri,
                         numerics._ndtri_exp}
"""


@pytest.mark.parametrize("kind, x", [
    ("quantile", math.log(1e-20)),  # below 1e-15: ndtri_exp
    ("quantile", math.log(0.3)),  # at or above 1e-15: ndtri
    ("sf", 2.5),
])
def test_first_scalar_call_binds_cython_special(kind, x, tmp_path):
    out = fresh_python(SCALAR_PROBE, kind, x.hex(), cwd=tmp_path).stdout.decode().split()
    got = [float.fromhex(v) for v in out]
    if kind == "sf":
        want = list(numerics._canonical_pair(float(sps.ndtr(-x)), float(sps.log_ndtr(-x))))
    else:
        p = ProbValue.from_log(x)
        want = [float(sps.ndtri_exp(x) if p.linear < 1e-15 else sps.ndtri(p.linear))]
    assert got == want


def top_level_imports(path: Path) -> set[str]:
    """Modules a file imports outside function bodies, i.e. at import time."""
    names = set()
    stack = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return names


MODULES = sorted((SRC / "pcmeta").glob("*.py"))


def test_no_module_imports_scipy_at_top_level():
    assert {"numerics.py", "combiners.py", "cli.py"} <= {p.name for p in MODULES}
    # The walker sees top-level imports: numerics imports math there.
    assert "math" in top_level_imports(SRC / "pcmeta" / "numerics.py")
    for path in MODULES:
        scipy = {m for m in top_level_imports(path) if m.split(".")[0] == "scipy"}
        assert not scipy, (path.name, scipy)


def test_no_module_imports_numpy_at_top_level():
    for path in MODULES:
        numpy = {m for m in top_level_imports(path) if m.split(".")[0] == "numpy"}
        assert not numpy, (path.name, numpy)


# The modules whose public names the package exports, in ``__init__`` order.
PACKAGE_MODULES = ("combiners", "counterexample", "errors", "numerics", "oracle",
                   "partial_conjunction", "simulation")
# pcmeta.__all__ when it was written out by hand in pcmeta/__init__.py.
EXPORTED_BY_HAND = [
    "BatchedRule", "CombinerSpec", "CountTable2x2", "FisherExactResult", "GroupPartition",
    "NullConfig", "PcCurve", "PcEntry", "PowerGrid", "ProbValue", "SimConfig",
    "ValidityEstimate", "EnumerationBudgetError", "InputValidationError",
    "NonConvergenceError", "NumericDomainError", "PcmetaError", "bhpc", "chisq_sf",
    "combine", "combine_bonferroni", "combine_fisher", "combine_simes",
    "combine_stouffer_weighted", "combine_tpm", "draw_study_pvalues", "extract_component",
    "fisher_exact_2x2", "fixed_subset_combiner", "gbhpc_enumerate", "hypergeom_log_pmf",
    "log_sum_exp", "mc_validity", "pc_curve", "phi", "phi_prime", "phi_tilde",
    "power_grid_2d", "power_grids_2d", "region_phi", "region_phi_prime",
    "region_phi_tilde", "run_power_map", "select_construction", "slice_validity",
    "std_normal_quantile", "std_normal_sf", "structured_gbhpc",
    "structured_subset_combiner", "tpm_mc_cdf", "weighted_subset_combiner",
]


def test_package_all_is_the_module_lists():
    modules = [importlib.import_module(f"pcmeta.{name}") for name in PACKAGE_MODULES]
    assert pcmeta.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(pcmeta.__all__)) == len(pcmeta.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(pcmeta, name) is getattr(m, name), (m.__name__, name)


def test_package_keeps_every_name_it_exported():
    assert len(EXPORTED_BY_HAND) == len(set(EXPORTED_BY_HAND)) == 51
    assert set(EXPORTED_BY_HAND) <= set(pcmeta.__all__)


def top_level_definitions(tree: ast.Module) -> set[str]:
    """Names a module binds by def, class or assignment, not by import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_module_all_names_only_its_own_definitions():
    checked = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (path.name != "__init__.py" and isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                missing = set(ast.literal_eval(node.value)) - top_level_definitions(tree)
                assert not missing, (path.name, missing)
                checked.add(path.stem)
    assert checked >= set(PACKAGE_MODULES) | {"io"}


# What the lazy package namespace loads.  Each probe runs in a fresh
# interpreter, because this process imported the whole library at collection.
# ``pcmeta.data`` holds the bundled CSV and no code.
SCALAR_PACKAGE_MODULES = {"pcmeta", "pcmeta.cli", "pcmeta.errors", "pcmeta.io", "pcmeta.data",
                          "pcmeta.combiners", "pcmeta.numerics", "pcmeta.partial_conjunction"}


def loaded_package_modules(code: str, directory: Path) -> list[str]:
    """The pcmeta modules loaded once ``code`` ran in a fresh process."""
    code += ("\nimport sys\nprint()\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'pcmeta'))")
    return fresh_python(code, cwd=directory).stdout.decode().splitlines()[-1].split()


def test_import_package_loads_no_submodule(tmp_path):
    assert loaded_package_modules("import pcmeta", tmp_path) == ["pcmeta"]


def test_import_cli_loads_only_errors(tmp_path):
    assert loaded_package_modules("import pcmeta.cli", tmp_path) == [
        "pcmeta", "pcmeta.cli", "pcmeta.errors"]


def test_submodule_read_loads_only_that_submodule(tmp_path):
    code = "import pcmeta\npcmeta.numerics\nfrom pcmeta import errors"
    loaded = loaded_package_modules(code, tmp_path)
    assert loaded == ["pcmeta", "pcmeta.errors", "pcmeta.numerics"]


@pytest.mark.parametrize("argv", [
    ["pc", "noac.csv", "--json"],
    ["pc", "noac.csv", "--groups"],
    ["exact2x2", "counts.csv"],
    ["dataset"],
    ["--help"],
], ids=" ".join)
def test_scalar_commands_load_no_oracle_simulation_or_counterexample(argv, tmp_path):
    write_inputs(tmp_path)
    loaded = set(loaded_package_modules(
        f"from pcmeta import cli\nassert cli.main({argv!r}) == 0", tmp_path))
    assert "pcmeta.cli" in loaded and loaded <= SCALAR_PACKAGE_MODULES, loaded
    if argv == ["--help"]:
        assert loaded == {"pcmeta", "pcmeta.cli", "pcmeta.errors"}


def test_star_import_binds_every_exported_name(tmp_path):
    fresh_python("""
import pcmeta
namespace = {}
exec("from pcmeta import *", namespace)
names = set(namespace) - {"__builtins__"}
assert len(pcmeta.__all__) == 70 and names == set(pcmeta.__all__), names
assert all(namespace[name] is getattr(pcmeta, name) for name in names)
""", cwd=tmp_path)


def test_dir_lists_every_exported_name(tmp_path):
    fresh_python("import pcmeta\nnames = dir(pcmeta)\n"
                 "assert set(pcmeta.__all__) <= set(names) and '__version__' in names",
                 cwd=tmp_path)


def test_dunder_and_unknown_names_load_nothing(tmp_path):
    fresh_python("""
import sys, pcmeta
before = set(sys.modules)
for name in ("__wrapped__", "no_such_name", "_private"):
    assert not hasattr(pcmeta, name), name
    try:
        getattr(pcmeta, name)
    except AttributeError as exc:
        assert repr(name) in str(exc)
assert set(sys.modules) == before and "__all__" not in vars(pcmeta)
pcmeta.bhpc
assert not hasattr(pcmeta, "no_such_name")
""", cwd=tmp_path)


def test_listed_names_are_the_module_lists():
    # The package reads each module's list from its source to refuse an
    # unknown name without importing the library.
    assert pcmeta._MODULES == PACKAGE_MODULES
    for name in PACKAGE_MODULES:
        assert pcmeta._listed(name) == importlib.import_module(f"pcmeta.{name}").__all__
