"""The benchmark's tracer (bench/spans.py) hooks names of this package, and
its workloads (bench/workloads.py) call them.

Renaming or deleting a traced or called name fails here, not only in a
benchmark run.
"""

import pytest

import su2fourier
import su2fourier.cli  # noqa: F401  (the tracer hooks cli functions too)

from helpers import load_spans as _load_spans, load_workloads

_WORKLOADS = load_workloads().WORKLOADS


def test_tracer_installs_every_hook_and_restores_the_originals():
    spans = _load_spans()
    hooks = [
        (getattr(su2fourier, layer), name)
        for layer, names in spans.FUNCTIONS.items()
        for name in names
    ]
    hooks += [
        (getattr(getattr(su2fourier, layer), cls), name) for layer, cls, name in spans.METHODS
    ]
    originals = [vars(owner)[name] for owner, name in hooks]
    tracer = spans.Tracer(su2fourier)
    owners = tracer.modules + [owner for owner, _ in hooks]
    before = [dict(vars(owner)) for owner in owners]
    try:
        tracer.install()
        for (owner, name), original in zip(hooks, originals):
            assert vars(owner)[name].__wrapped__ is original
    finally:
        tracer.remove()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[key] is value for key, value in saved.items())


_PASS_CASES = [pytest.param(name, False, id=name) for name in _WORKLOADS] + [
    pytest.param(name, True, id=f"{name}-traced") for name in _WORKLOADS
]


@pytest.mark.parametrize("name, traced", _PASS_CASES)
def test_workload_first_pass_runs_and_checks_against_the_package(name, traced, tmp_path):
    # set-up, pass 0 and each task's own check, as one benchmark pass runs
    # them; traced, every hook also reads the package's arguments and results
    tracer = _load_spans().Tracer(su2fourier) if traced else None
    workload = _WORKLOADS[name](su2fourier, 0, str(tmp_path), tracer)
    if tracer is None:
        workload.setup()
        workload.references()
        tasks = workload.tasks(0)
        outcomes = [(label, call()) for label, call in tasks]
    else:
        tracer.install()
        try:
            tracer.root("setup", workload.setup)
            workload.references()
            tasks = workload.tasks(0)
            outcomes = tracer.root("pass", lambda: [(label, call()) for label, call in tasks])
        finally:
            tracer.remove()
        shares = [v for key, v in tracer.report().items() if key.startswith("layer.")]
        assert sum(shares) == pytest.approx(1.0)
    assert tasks
    for label, out in outcomes:
        _, ok = workload.check(label, out)
        assert ok, label
