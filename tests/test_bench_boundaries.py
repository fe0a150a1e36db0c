"""The benchmark's traced layer boundaries still resolve in the package.

Every benchmark worker verifies `layers.BOUNDARIES` before it runs,
traced or not, so a renamed, dropped or aliased function at a traced
boundary (``dynamics.thin_svd`` or ``dynamics.sample_training_set``,
say) would stop every benchmark run.  The traced training calls must
also keep the argument positions that the benchmark's tags read, and
every ``convlin.<module>.<name>`` the workloads and layers read must
still resolve.  The package itself imports nothing from the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

from convlin import harness, models
from convlin.harness import ExperimentSpec

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layers
    import spans
    return layers, spans


def test_boundaries_resolve(bench_modules):
    layers, spans = bench_modules
    spans.verify(layers.BOUNDARIES)


def test_bench_reads_resolve():
    """Every ``convlin.<module>.<name>`` that bench/workloads.py and
    bench/layers.py read names a module attribute, so that a rename
    fails here and not only inside a benchmark run."""
    reads = set()
    for name in ("workloads.py", "layers.py"):
        for node in ast.walk(ast.parse((ROOT / "bench" / name).read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "convlin"):
                reads.add((node.value.attr, node.attr))
    assert {("dynamics", "DEFAULT_DEGENERATE_DRAWS"),
            ("theory", "coverage_term_exact")} <= reads
    for module, attr in sorted(reads):
        assert hasattr(importlib.import_module(f"convlin.{module}"), attr), \
            f"convlin.{module}.{attr}"


def test_train_tag_reads_every_call(bench_modules, monkeypatch):
    """`layers._train_tag` reads the model at position 0 and the config
    at position 2 of each `harness.train` call, in a gen-curve run of
    every model and an init-study run of both losses."""
    layers, _ = bench_modules
    calls, real = [], harness.train

    def logged(*args, **kwargs):
        trace = real(*args, **kwargs)
        calls.append((args, kwargs, trace))
        return trace

    monkeypatch.setattr(harness, "train", logged)
    harness.run(ExperimentSpec(experiment="gen-curve", d=20, k=3, n=(6,),
                               trials=2, models=models.MODELS))
    harness.run(ExperimentSpec(experiment="init-study", d=20, k=3, n=(8,),
                               trials=2, xhinge_steps=10, snapshot_t=5))
    assert len(calls) == 2 * len(models.MODELS) + 2 * 2
    losses = set()
    for args, kwargs, trace in calls:
        tag = layers._train_tag(args, kwargs, trace)
        assert tag["model"] in models.MODELS
        assert type(trace.weights) is models.WEIGHT_TYPES[tag["model"]]
        assert tag["loss"] in models.LOSSES
        assert (tag["loss"] == "xhinge") == (trace.stop_reason == "fixed-steps")
        assert tag["steps"] == trace.steps_run
        losses.add(tag["loss"])
    assert losses == set(models.LOSSES)


def test_package_imports_nothing_from_bench():
    bench = {p.stem for p in (ROOT / "bench").glob("*.py")} | {"bench"}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not {name.split(".")[0] for name in names} & bench, path
