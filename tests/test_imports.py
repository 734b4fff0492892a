"""Import hygiene of the filexlab modules.

Every name a module imports is used in that module; an import kept on
purpose carries `# noqa: F401` on its line. No module imports a
`_`-prefixed name from another filexlab module. Only `sweep` imports the
FiLex model, `validation` imports no filexlab module, and neither
`validation` nor `params` imports numpy. The layers that read, analyse and
plot records (`records`, `analysis`, `svgplot`, `stats`, `validation`,
`params`) import no simulation module (`sweep`, `filex`, `toy_els`,
`sampling`, `seeding`), so `analyze`, `plot` and `--help` never load the
simulators, the process pool or logging: `cli` builds its one parser from
`params.PARAMS`, imports `sweep` only for `run` and `sweep`, and resolves
the `cli.execute_sweep` name the benchmark tracer wraps on first access.
numpy loads only with the first function that computes arrays: importing
the CLI, `--help` and a usage or config error load none, nor does
`analyze` (Kendall tau in Python ints) on the benchmark's sweeps, while
`plot` and `run` do; `analyze` loads it only for a pairing with both
margins tied at n <= 50, whose permutation routes compute arrays.
Importing the CLI does
not pull in the network stack, fractions, decimal, scipy, html.entities or
the process-pool machinery, and only a sweep with more than one worker
loads the latter.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from filexlab.analysis import PAIRINGS
from filexlab.records import FILEX, TOY_ELS, RunRecord, write_records

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "filexlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the source's imports that nothing else in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {lineno})" for name, lineno in imported.items() if name not in used]


def test_checker_finds_unused_and_honours_noqa():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from .a import b, c\n"
        "from .d import e  # noqa: F401\n"
        "x: c = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os (line 1)", "b (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """`_`-prefixed names the source imports from filexlab modules."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "filexlab"
        ):
            where = "." * node.level + (f"{node.module}." if node.module else "")
            out += [f"{where}{a.name} (line {node.lineno})"
                    for a in node.names if a.name.startswith("_")]
    return out


def test_private_checker_finds_private_names():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .filex import _update, run\n"
        "from filexlab.stats import _p_exact\n"
        "from . import _secret\n"
    )
    assert private_imports(source) == [
        ".filex._update (line 3)", "filexlab.stats._p_exact (line 4)", "._secret (line 5)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_names(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def package_imports(source: str) -> set[str]:
    """The filexlab modules the source imports, by bare name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if a.name.startswith("filexlab.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level > 0 and node.module:
                out.add(parts[0])
            elif node.level > 0 or parts == ["filexlab"]:
                out |= {a.name for a in node.names}
            elif parts[0] == "filexlab":
                out.add(parts[1])
    return out


def test_package_checker_finds_every_import_form():
    source = (
        "import numpy\n"
        "import filexlab.stats\n"
        "from .filex import run\n"
        "from . import sweep\n"
        "from filexlab import records\n"
        "from filexlab.svgplot import build_plot\n"
        "from os import path\n"
    )
    assert package_imports(source) == {"stats", "filex", "sweep", "records", "svgplot"}


def test_only_sweep_imports_the_filex_model():
    # validity rules live in `validation`: no module reaches into the model to check a number
    imports = {p.name: package_imports(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name for name, modules in imports.items() if "filex" in modules} == {"sweep.py"}
    assert imports["validation.py"] == set()


SIMULATION = {"sweep", "filex", "toy_els", "sampling", "seeding"}
RECORD_LAYERS = ("records.py", "analysis.py", "svgplot.py", "stats.py", "validation.py",
                 "params.py")


def test_record_layers_import_no_simulation_module():
    for name in RECORD_LAYERS:
        imports = package_imports((PACKAGE / name).read_text(encoding="utf-8"))
        assert imports & SIMULATION == set(), name


def external_imports(source: str) -> set[str]:
    """The top-level packages the source imports by absolute name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_external_checker_skips_relative_imports():
    source = "import numpy.linalg\nimport os, math\nfrom typing import Any\nfrom .stats import x\n"
    assert external_imports(source) == {"numpy", "os", "math", "typing"}


def test_validation_and_params_import_no_numpy():
    # the number rules and both parameter sets, from which cli builds its
    # parser, stand on the standard library and the target names alone
    for name in ("validation.py", "params.py"):
        assert "numpy" not in external_imports((PACKAGE / name).read_text(encoding="utf-8")), name
    assert package_imports((PACKAGE / "params.py").read_text(encoding="utf-8")) == {
        "records", "validation",
    }


def test_cli_import_leaves_out_urllib():
    # xml.sax.saxutils would pull in urllib.request, and with it http.client,
    # ssl and email: tens of milliseconds in every CLI process. The exact
    # Kendall null counts in plain ints, so fractions, decimal and scipy
    # stay out too. multiprocessing (with socket and selectors) loads only
    # when a sweep builds its pool, and the plot label is escaped without
    # html, whose import loads html.entities.
    heavy = ["urllib.request", "fractions", "decimal", "scipy", "multiprocessing",
             "concurrent.futures.process", "socket", "selectors", "html.entities"]
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import filexlab.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_serial_commands_never_load_multiprocessing(tmp_path):
    # run, a one-worker sweep, analyze and plot each run in one process: the
    # process-pool machinery is loaded only to build a pool
    code = f"""
import sys
from pathlib import Path
sys.path.insert(0, {str(PACKAGE.parent)!r})
from filexlab.cli import main
out = Path({str(tmp_path)!r})
assert main(["run", "--n-iters", "5"]) == 0
assert main(["sweep", "--steps", "3", "--workers", "1", "--out", str(out)]) == 0
assert main(["analyze", *map(str, sorted(out.glob("*.csv")))]) == 0
assert main(["plot", str(out / "filex_alpha.csv")]) == 0
print([m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def write_pairing_sweeps(out: Path) -> None:
    """One small CSV for each of the nine sweeps PAIRINGS compares, and the
    config files ok.cfg and bad.cfg (an unknown key)."""
    sweeps = {(FILEX, f) for _, f, _ in PAIRINGS} | {(TOY_ELS, t) for *_, t in PAIRINGS}
    for target, param in sweeps:
        rows = [RunRecord(target, param, float(2**i), i, float(i % 3)) for i in range(6)]
        write_records(out / f"{target}_{param}.csv", rows)
    (out / "ok.cfg").write_text("alpha = 2\n", encoding="utf-8")
    (out / "bad.cfg").write_text("bogus = 2\n", encoding="utf-8")


def test_analyze_and_plot_never_load_the_simulators(tmp_path):
    # the checks run in order in one fresh process: the simulators stay out
    # through import, analyze, plot, --help and a config file in any
    # spelling, then run and sweep load them and work as before
    write_pairing_sweeps(tmp_path)
    code = f"""
import contextlib, io, pathlib, sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
out = {str(tmp_path)!r}
csvs = sorted(str(p) for p in pathlib.Path(out).glob("*.csv"))
def loaded():
    return [m for m in ("filexlab.sweep", "filexlab.filex", "filexlab.toy_els", "filexlab.sampling",
                        "filexlab.seeding", "concurrent.futures", "logging") if m in sys.modules]
from filexlab import cli
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["analyze", *csvs]), cli.main(["plot", csvs[0], "--out", out + "/p.svg"])]
print(codes, loaded())
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        codes = [exc.code]
    codes += [cli.main(["--conf", out + "/ok.cfg", "analyze", *csvs]),
              cli.main(["--config", out + "/ok.cfg", "analyze", *csvs])]
print(codes, loaded())
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    codes = [cli.main(["--config", out + "/ok.cfg", "analyze", *csvs]),
             cli.main(["--config", out + "/bad.cfg", "analyze", *csvs]),
             cli.main(["run", "--n-iters", "5"]),
             cli.main(["sweep", "--target", "filex", "--param", "beta", "--low", "1",
                       "--high", "4", "--steps", "3", "--integer", "--out", out + "/sweep"])]
print(codes, err.getvalue().strip())
from filexlab import sweep
print(cli.execute_sweep is sweep.execute_sweep, hasattr(cli, "no_such_name"))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    bad_cfg = tmp_path / "bad.cfg"
    assert out.stdout.splitlines() == [
        "[]",
        "[0, 0] []",
        "[0, 0, 0] []",
        f"[0, 1, 0, 0] error: {bad_cfg}: unknown option 'bogus'",
        "True False",
    ]
    assert (tmp_path / "sweep" / "filex_beta.csv").exists()


def test_only_commands_that_compute_arrays_load_numpy(tmp_path):
    # one fresh process, checks in order: importing the CLI, --help, a usage
    # error, a bad config file and analyze over the nine compared sweeps
    # (Kendall in Python ints) load no numpy; plot's smoother loads it, and
    # run loads it in a process that had not
    write_pairing_sweeps(tmp_path)
    code = f"""
import contextlib, io, pathlib, sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
out = {str(tmp_path)!r}
csvs = sorted(str(p) for p in pathlib.Path(out).glob("*.csv"))
from filexlab import cli
steps = [("import", lambda: 0),
         ("--help", lambda: cli.main(["--help"])),
         ("usage", lambda: cli.main(["bogus"])),
         ("config", lambda: cli.main(["--config", out + "/bad.cfg", "analyze", *csvs])),
         ("analyze", lambda: cli.main(["analyze", *csvs])),
         ("plot", lambda: cli.main(["plot", csvs[0], "--out", out + "/p.svg"]))]
for name, step in steps:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = step()
        except SystemExit as exc:
            code = exc.code
    print(name, code, "numpy" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "import 0 False", "--help 0 False", "usage 1 False", "config 1 False",
        "analyze 0 False", "plot 0 True",
    ]
    run = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); from filexlab import cli; "
           "code = cli.main(['run', '--n-iters', '5']); print(code, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", run], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 True"
