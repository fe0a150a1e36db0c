"""The benchmark's traced layer boundaries still resolve in the package.

Every benchmark worker verifies `layers.BOUNDARIES` before it runs,
traced or not, so a renamed, dropped or aliased function at a traced
boundary (``dynamics.thin_svd`` or ``dynamics.sample_training_set``,
say) would stop every benchmark run.  The package itself imports
nothing from the benchmark.
"""

import ast
from pathlib import Path

import pytest

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
