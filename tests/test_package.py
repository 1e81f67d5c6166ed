"""The package's public names: each resolves, each has a caller in the
library or a line in README, and the lazy ones come from their modules."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import catwalk
from catwalk import cli, diffusion, discrete, failure_cycle, scaling, simulate, special


MODULES = [catwalk, discrete, diffusion, failure_cycle, scaling, simulate, special, cli]
SOURCE = Path(catwalk.__file__).resolve().parent
README = SOURCE.parents[1] / "README.md"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_resolves(module):
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def _used_names() -> set:
    # every name the library's code reads: loaded names, attributes and
    # imported names; a def, a class or an __all__ string is none of these
    used = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(filter(None, (node.name, node.asname)))
    return used


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_has_a_caller_or_a_readme_line(module):
    # a public name is a contract, so one that neither the library calls nor
    # README states is a wrapper that only tests need
    used, readme = _used_names(), README.read_text()
    orphans = [name for name in module.__all__
               if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert orphans == []


def test_lazy_names_come_from_their_modules():
    from catwalk import simulate

    assert catwalk.DistributionSlice is discrete.DistributionSlice
    assert catwalk.DensitySlice is diffusion.DensitySlice
    assert catwalk.SimConfig is simulate.SimConfig
    with pytest.raises(AttributeError):
        catwalk.no_such_name


def test_the_traced_benchmark_wraps_and_restores_its_hooks(monkeypatch):
    # perfbench/spans.py wraps these names in their modules by name; the
    # bindings the model modules no longer call must stay for it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    hooks = [(discrete, "bessel_i_scaled"), (discrete, "integrate_adaptive"),
             (diffusion, "integrate_adaptive"), (discrete, "transient_probability"),
             (diffusion, "transient_density")]
    originals = [getattr(module, name) for module, name in hooks]
    with spans.Tracer().install() as tracer:
        assert all(getattr(module, name) is not original
                   for (module, name), original in zip(hooks, originals))
        discrete.transient_probability(discrete.DiscreteParams(2.0, 2.0, 0.1, 1.0), 0, 1.0)
        assert tracer.counts["discrete.state"] == 1
    assert [getattr(module, name) for module, name in hooks] == originals


def test_the_benchmark_monte_carlo_operations_pass_their_checks(monkeypatch, tmp_path):
    # perfbench's monte-carlo round draws through list(simulate(...)), estimates
    # on those lists and exports one; each operation's own check must hold
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    workload = workloads.MonteCarlo(1, str(tmp_path), {})
    workload.prepare()
    for round_index in range(2):
        for op in workload.ops(round_index):
            verdict, _ = op.check(op.call())
            assert verdict.ok, (round_index, op.label, verdict)


def test_the_benchmark_monte_carlo_round_reads_its_lists_without_a_walk(monkeypatch, tmp_path):
    # the round's estimates and export read the lists that simulate handed
    # out, which each block's first view groups by one list comparison; a
    # walk here would put the walk's cost on the benchmark's median operation
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    reads, walks = [], []
    groups, walk = simulate._groups, simulate._walk
    monkeypatch.setattr(simulate, "_groups", lambda traces: reads.append(len(traces)) or groups(traces))
    monkeypatch.setattr(simulate, "_walk", lambda traces: walks.append(len(traces)) or walk(traces))
    ops = workloads.MonteCarlo(1, str(tmp_path), {}).ops(0)
    assert [op.kind for op in ops].count("estimate") == 16
    for op in ops:
        op.call()
    assert len(reads) == 17 and walks == []
