"""Module boundaries that the code relies on but no import error would show.

The data layer (`envs`, and `store_io` through it) must not import the
model. Importing `drdt3.envs` runs the package `__init__`, which imports
everything, so `sys.modules` cannot show this; the tests read the imports
from the source instead.

The benchmark in `perfbench/` wraps drdt3 functions by name, each in the
`__dict__` of the module or class that defines it. A refactor that moves
one of them breaks `--trace 1` runs, which the suite under `tests/` does
not run; the hook test here fails first. The last test checks that the
benchmark's eval workload still counts a corrupt action as a failure when
it is injected where the inference procedure now draws it.
"""

import ast
import importlib
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "drdt3"
MODEL = {"autodiff", "dt3", "diffusion", "training", "bundle"}


def _imports(module):
    """(relative module names, absolute top-level module names) that the
    source of drdt3.`module` imports anywhere in its body."""
    relative, absolute = set(), set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            absolute.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                relative.add(node.module.split(".")[0])
            else:                        # from . import x
                relative.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module.split(".")[0])
    return relative, absolute


def test_data_layer_imports_no_model_module():
    for module in ("envs", "store_io"):
        relative, absolute = _imports(module)
        assert not relative & MODEL, (module, relative & MODEL)
        assert "drdt3" not in absolute, module


def test_envs_imports_numpy_and_the_standard_library_only():
    relative, absolute = _imports("envs")
    assert relative == set()
    assert absolute <= set(sys.stdlib_module_names) | {"numpy"}, absolute


def _perfbench(name):
    sys.path.insert(0, str(ROOT))
    try:
        return importlib.import_module("perfbench." + name)
    finally:
        sys.path.remove(str(ROOT))


def test_benchmark_hooks_resolve_in_their_owners():
    """Every span the tracer wraps, and the reset/step of every env class
    (the eval clock's targets), is found where `tracing.patched` looks: in
    its owner's own `__dict__`."""
    tracing = _perfbench("tracing")
    envs = importlib.import_module("drdt3.envs")
    clocks = [("envs", f"{cls.__name__}.{method}")
              for cls in envs.ENVS.values() for method in ("reset", "step")]
    targets = list(tracing.SPANS) + clocks
    for mod_name, attr in targets:
        owner = importlib.import_module("drdt3." + mod_name)
        *classes, leaf = attr.split(".")
        for c in classes:
            owner = vars(owner)[c]
        assert leaf in vars(owner), f"{mod_name}.{attr}"
    wrapped = []
    with tracing.patched(targets,
                         lambda name, fn: wrapped.append(name) or fn):
        pass
    assert wrapped == [f"{m}.{a}" for m, a in targets]


def test_benchmark_counts_a_corrupt_eval_action_as_failed(tmp_path,
                                                          monkeypatch):
    workloads = _perfbench("workloads")
    training = importlib.import_module("drdt3.training")
    state = workloads.WORKLOADS["eval-stitch"].setup(5, str(tmp_path))
    monkeypatch.setattr(training, "sample_action",
                        lambda *args, **kwargs: np.full(1, math.nan))
    m = workloads.run_eval(state, 0.0, 2)
    assert m.attempted > 0 and m.failed == m.attempted
