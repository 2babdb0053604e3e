"""Guards on what lives outside the package but must agree with it.

The runtime-import guard keeps every import of ``heraldsim`` and its CLI
to the standard library and numpy: a third-party import adds its resident
memory to every run (scipy alone adds ~70 MB), and the benchmark bounds
peak RSS at 5%.  The bench pin holds the benchmark's own copy of the
reference setup, which it keeps so that it runs the same workloads on
every checkout, to ``heraldsim.paper``.  The tracer pin keeps the names the
benchmark's per-layer spans wrap: the tracer skips a name it cannot find,
so a rename would silently drop that layer's metrics.  The public-API
guard keeps every ``__all__`` to names its module defines, each
package-level name to the object of the submodule that exports it, and the
package's ``__all__`` to its version plus its submodules' lists.  The
lockout guard keeps one rule for turning a deadtime into locked slots:
only ``DetectorSpec`` reads ``deadtime_s``, and everything else reads its
``deadtime_slots``.
"""

import ast
import dataclasses
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import heraldsim
from heraldsim import paper
from heraldsim.montecarlo import RunCounts

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_runtime_imports_are_stdlib_or_numpy():
    src = str(Path(heraldsim.__file__).resolve().parent.parent)
    code = (f"import sys\nsys.path.insert(0, {src!r})\nbefore = set(sys.modules)\n"
            "import heraldsim, heraldsim.cli\n"
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "heraldsim" in loaded and "numpy" in loaded
    allowed = sys.stdlib_module_names | {"heraldsim", "numpy"}
    assert {m for m in loaded if not m.startswith("_")} <= allowed


def _load_bench(monkeypatch, name: str, module_name: str):
    spec = importlib.util.spec_from_file_location(module_name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, module_name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_reference_setup_matches_paper(monkeypatch):
    # bench/workloads.py imports bench/checks.py as a top-level module
    _load_bench(monkeypatch, "checks", "checks")
    workloads = _load_bench(monkeypatch, "workloads", "bench_workloads")
    assert workloads.ALPHA_S == paper.REFERENCE_SOURCE.alpha_s
    assert workloads.BETA == paper.REFERENCE_SOURCE.beta
    assert workloads.PULSE_RATE_HZ == paper.PULSE_RATE_HZ
    assert workloads.REF_DETECTOR == paper.REFERENCE_DETECTOR
    channel11 = paper.FIG7_CHANNELS[0]
    assert channel11.index == 11
    bench_channel, channel = workloads.REF_CHANNEL, channel11.channel
    assert (bench_channel.alpha_r, bench_channel.alpha_d) == (channel.alpha_r, channel.alpha_d)
    # the bench rounds channel 11's p_noise, 3.18823e-5, to 3.19e-5
    assert bench_channel.p_noise == pytest.approx(channel.p_noise, rel=1e-3)


def test_bench_tracer_names_resolve(monkeypatch):
    tracing = _load_bench(monkeypatch, "tracing", "bench_tracing")
    for layer, (home, names) in tracing.LAYERS.items():
        module = importlib.import_module(home)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (layer, missing)
    fields = {f.name for f in dataclasses.fields(RunCounts)}
    assert {"slots", "heralds", "gated_slots"} <= fields



SUBMODULES = ("calibration", "cli", "core", "montecarlo", "paper", "scenario", "wdm")


def test_public_names_resolve_to_their_definitions():
    # a function deleted from a module but left in an __all__ fails here
    modules = [importlib.import_module(f"heraldsim.{name}") for name in SUBMODULES]
    for module in (heraldsim, *modules):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    for name in set(heraldsim.__all__) - {"__version__"}:
        homes = [m for m in modules if name in m.__all__]
        assert homes, name
        assert all(getattr(m, name) is getattr(heraldsim, name) for m in homes), name


def test_package_republishes_each_submodule_all():
    # one list of public names: the package adds only its version
    exported = ["__version__"]
    for name in ("core", "calibration", "montecarlo", "scenario", "wdm"):
        exported += importlib.import_module(f"heraldsim.{name}").__all__
    assert sorted(heraldsim.__all__) == sorted(set(exported)) == sorted(exported)


def test_only_detector_spec_reads_deadtime_s():
    # a second reader of deadtime_s would be a second lockout rule
    readers = []
    for path in sorted(Path(heraldsim.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "DetectorSpec"
                 for node in ast.walk(cls)}
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "deadtime_s"
                    and id(node) not in owner]
    assert not readers, readers
