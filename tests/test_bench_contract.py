"""The names the deletion benchmark hooks must keep resolving.

deletion_bench/probe.py wraps package functions and methods by name from
outside the package, deletion_bench/layers.py maps engine phases to the
traced spans, and deletion_bench/checks.py reads value profiles and weights
by id.  A refactor that renames one of them would otherwise break only
the benchmark run.  The benchmark files are loaded here, never edited.
"""

import ast
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dvwu
import dvwu.cli  # noqa: F401  (the probe wraps cli.emit_report)
from dvwu import CertBudget, LossKind, NewtonUnlearner, ValueProfile, train
from dvwu.harness import _sample_deletion

from conftest import make_dataset

BENCH = Path(__file__).resolve().parent.parent / "deletion_bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up here
    sys.path.insert(0, str(BENCH))     # probe.py imports its sibling calib.py
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def probe():
    return _load("probe")


@pytest.fixture(scope="module")
def layers():
    return _load("layers")


@pytest.fixture(scope="module")
def checks():
    return _load("checks")


def _resolve(owner, name, method):
    """What the probe wraps: cls.__dict__[name] for a method (the function
    under a classmethod), getattr otherwise."""
    if not method:
        return getattr(owner, name)
    raw = owner.__dict__[name]
    return raw.__func__ if isinstance(raw, classmethod) else raw


def test_traced_names_resolve(probe):
    for module, path in probe.TRACED:
        owner = getattr(dvwu, module)
        if "." in path:
            cls_name, name = path.split(".")
            assert callable(_resolve(getattr(owner, cls_name), name, True)), path
        else:
            assert callable(_resolve(owner, path, False)), path


def _always_wrapped(probe):
    """(owner expression, name, is_method) of each wrap call in Probe.installed."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(probe.Probe.installed)))
    hooks = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("_wrap_function", "_wrap_method")
                and isinstance(node.args[1], ast.Constant)):
            hooks.append((ast.unparse(node.args[0]), node.args[1].value,
                          node.func.attr == "_wrap_method"))
    return hooks


def test_always_wrapped_hooks_resolve(probe):
    hooks = _always_wrapped(probe)
    assert len(hooks) >= 6
    for owner_expr, name, method in hooks:
        parts = owner_expr.split(".")
        assert parts[0] == "d", owner_expr     # d is the dvwu package
        owner = dvwu
        for part in parts[1:]:
            owner = getattr(owner, part)
        assert callable(_resolve(owner, name, method)), f"{owner_expr}.{name}"


def test_sample_deletion_keeps_five_positional_parameters():
    params = list(inspect.signature(_sample_deletion).parameters.values())
    assert len(params) == 5
    assert all(p.kind == p.POSITIONAL_OR_KEYWORD for p in params)


def test_phase_spans_are_traced(probe, layers):
    traced = {f"{module}.{path.split('.')[-1]}" for module, path in probe.TRACED}
    assert set(layers.PHASES.values()) <= traced


def test_newton_round_records_the_benchmark_phases(layers, rng):
    loss = LossKind.logistic()
    data = make_dataset(rng, 120, 4, scale=0.6, norm_cap=1.0)
    model = train(data, 0.05, loss)
    budget = CertBudget(epsilon=1.0, delta=1e-4, C=loss.C, beta=loss.beta,
                        schedule=(10, 10), n=data.n, lam=0.05)
    engine = NewtonUnlearner(model, budget, perturbation="output", noise_rng=3)
    gone = data.ids[:10]
    out = engine.delete(data.select(gone), data.drop(gone))
    assert set(out.elapsed) == set(layers.PHASES)
    assert np.isfinite(out.residual_norm)


def test_profile_reads_of_the_probe_and_checks(checks):
    q = {7: -0.3, 3: 0.0, 11: 0.02, 5: 0.4, 2: 0.3, 8: 5e-10}
    profile = ValueProfile.from_initial_values(q, alpha=0.5, zero_tol=1e-9)
    assert profile.q_min_plus == checks.round1_anchor(q, 1e-9)
    surviving = np.array([11, 2, 5, 7, 8], dtype=np.int64)
    kept = profile.restrict(surviving)
    assert set(kept.q) == set(surviving.tolist())
    # probe.Probe._weights_for reads the values of a batch as profile.q[int(i)]
    assert [kept.q[int(i)] for i in surviving] == [q[int(i)] for i in surviving]
    # checks.check_weights reads the engine's weights as weights.get(id)
    weights = kept.weights_for(surviving)
    for i in surviving:
        want = checks.expected_weight(q[int(i)], kept.q_min_plus, 0.5, 1e-9)
        assert weights.get(int(i)).hex() == want.hex()
