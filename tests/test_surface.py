"""The library names that the benchmark under ``bench/`` reads, and every ``__all__``.

``bench/run.py`` stops a workload with ``run_failed`` when one of these names
is gone, while the rest of the suite may still pass; these tests fail first.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import eigenbreak as eb
from eigenbreak import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: what bench/tracer.py wraps besides its LAYERS table: (module, attribute path)
TRACER_PROBES = [
    ("eigenbreak.harness", "run_replicate"),
    ("eigenbreak.harness", "cell_outcomes"),
    ("eigenbreak.selfnorm", "simulate_pivot"),
    ("eigenbreak.selfnorm", "PivotDistribution.load"),
    ("eigenbreak.eigensys", "gap_warning"),
]


def _resolve(owner, dotted: str):
    for attr in dotted.split("."):
        owner = getattr(owner, attr)
    return owner


def _dotted_reads(path: Path, roots) -> set[str]:
    """Every dotted name ``root.a.b`` in the file whose root is one of ``roots``."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            reads.add(".".join([node.id, *reversed(parts)]))
    return reads


def test_every_name_the_bench_reads_resolves():
    roots = {"eb": eb, "cli": cli}
    reads = set()
    for name in ("workloads.py", "run.py"):
        reads |= _dotted_reads(BENCH / name, roots)
    assert {"eb.synthesize", "eb.SplitSample.at_index", "cli.main"} <= reads
    missing = []
    for dotted in sorted(reads):
        root, _, rest = dotted.partition(".")
        try:
            _resolve(roots[root], rest)
        except AttributeError:
            missing.append(dotted)
    assert not missing


@pytest.mark.parametrize("module, dotted", TRACER_PROBES,
                         ids=[f"{m.split('.')[-1]}.{d}" for m, d in TRACER_PROBES])
def test_every_tracer_probe_resolves(module, dotted):
    assert callable(_resolve(importlib.import_module(module), dotted))


def test_the_pivot_loader_is_a_classmethod():
    # the tracer re-wraps it through the class dict
    assert isinstance(eb.PivotDistribution.__dict__["load"], classmethod)


@pytest.mark.parametrize("module", ["eigenbreak"] + [
    f"eigenbreak.{info.name}" for info in pkgutil.iter_modules(eb.__path__)])
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
