"""One rule set for a valid run (``repro.framework.config.RunConfig``).

Every entry point — ``kahrisma run``, serve's ``JobSpec``,
``run_parallel`` and ``pipeline.run`` — checks a run with the same
``RunConfig.validate``.  The coherence test enumerates engine × model ×
predictor × sampling × observer and asserts that all four accept and
reject exactly the same cells.  ``JobSpec`` and ``run_parallel`` take
no observers, so they cover the observer-free cells only.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cli import main
from repro.framework import pipeline
from repro.framework.config import MODELS, RunConfig
from repro.framework.parallel import run_parallel
from repro.serve import JobSpec, SpecError
from repro.sim.interpreter import ENGINES
from repro.sim.tracing import Tracer
from repro.telemetry import HotspotProfiler, TimelineRecorder

SOURCE = (
    "int main() { int s = 0; for (int i = 0; i < 40; i++) s += i;"
    " print_int(s); return 0; }\n"
)
PREDICTORS = ("perfect", "gshare")
SAMPLING = (None, "20:2:5")
OBSERVERS = (None, "trace", "profile", "timeline", "checkpoint_every")
#: Instructions per run: enough to cross checkpoint and sampling
#: boundaries, far too few for the program to finish.
BUDGET = 60


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runconfig")
    src = tmp / "tiny.kc"
    src.write_text(SOURCE)
    elf = str(tmp / "tiny.elf")
    assert main(["compile", str(src), "-o", elf]) == 0
    built = pipeline.build(SOURCE, filename="tiny.kc")
    cache_dir = str(tmp / "plans")
    cache = pipeline.open_plan_cache(built, directory=cache_dir)
    return tmp, elf, built, cache_dir, cache


def cli_accepts(setup, engine, model, predictor, sampling, observer):
    tmp, elf, _built, cache_dir, _cache = setup
    argv = ["run", elf, "--engine", engine, "--model", model,
            "--branch-predictor", predictor,
            "--max-instructions", str(BUDGET),
            "--plan-cache-dir", cache_dir]
    if sampling:
        argv += ["--sample", sampling]
    argv += {
        None: [],
        "trace": ["--trace", str(tmp / "cli.trc")],
        "profile": ["--profile", "--profile-mode", "block"],
        "timeline": ["--timeline", str(tmp / "cli.trace.json")],
        "checkpoint_every": ["--checkpoint-every", "20",
                             "--checkpoint-dir", str(tmp / "cli-ckpt")],
    }[observer]
    try:
        main(argv)
    except SystemExit:
        return False
    return True


def pipeline_accepts(setup, engine, model, predictor, sampling, observer):
    tmp, _elf, built, _cache_dir, cache = setup
    observers = {
        None: {},
        "trace": {"tracer": Tracer()},
        "profile": {"profiler": HotspotProfiler(mode="block")},
        "timeline": {"timeline": TimelineRecorder()},
        "checkpoint_every": {"checkpoint_every": 20,
                             "checkpoint_dir": str(tmp / "run-ckpt")},
    }[observer]
    try:
        # ``run`` takes a model object; string settings reach it
        # through the shared factory, which validates first.
        cycle_model = RunConfig(
            engine=engine, model=model, branch_predictor=predictor,
        ).make_model(built.issue_width)
        pipeline.run(built, cycle_model=cycle_model, engine=engine,
                     max_instructions=BUDGET, sampling=sampling,
                     plan_cache=cache, **observers)
    except ValueError:
        return False
    return True


def jobspec_accepts(setup, engine, model, predictor, sampling):
    doc = {"source": SOURCE, "engine": engine, "model": model,
           "branch_predictor": predictor, "max_instructions": BUDGET}
    if sampling:
        doc["sampling"] = sampling
    try:
        JobSpec.from_doc(doc)
    except SpecError:
        return False
    return True


def parallel_accepts(setup, engine, model, predictor, sampling):
    tmp, _elf, built, _cache_dir, _cache = setup
    try:
        run_parallel(built, shards=1, processes=1, engine=engine,
                     model=model, branch_predictor=predictor,
                     sampling=sampling, use_plan_cache=False,
                     checkpoint_dir=str(tmp / "shards"))
    except ValueError:
        return False
    return True


def rule_accepts(engine, model, predictor, sampling, observer):
    try:
        RunConfig(engine=engine, model=model, branch_predictor=predictor,
                  sampling=sampling).validate(
            trace=observer == "trace",
            profile="block" if observer == "profile" else None,
            timeline=observer == "timeline",
            checkpoint_every=20 if observer == "checkpoint_every" else None,
        )
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("engine,model",
                         list(itertools.product(ENGINES, MODELS)))
def test_entry_points_accept_the_same_runs(setup, engine, model):
    cells = list(itertools.product(PREDICTORS, SAMPLING, OBSERVERS))
    expected = {
        cell: rule_accepts(engine, model, *cell) for cell in cells
    }
    assert expected[("perfect", None, None)]
    assert {
        cell: cli_accepts(setup, engine, model, *cell) for cell in cells
    } == expected
    assert {
        cell: pipeline_accepts(setup, engine, model, *cell)
        for cell in cells
    } == expected
    plain = [cell for cell in cells if cell[2] is None]
    assert {
        cell: jobspec_accepts(setup, engine, model, *cell[:2])
        for cell in plain
    } == {cell: expected[cell] for cell in plain}
    assert {
        cell: parallel_accepts(setup, engine, model, *cell[:2])
        for cell in plain
    } == {cell: expected[cell] for cell in plain}


def test_rejections_name_the_rule():
    cases = [
        ({"model": "warp-drive"}, {}, "unknown cycle model"),
        ({"model": "ilp", "sampling": "100:5"}, {},
         "detailed cycle model"),
        ({"model": "doe", "sampling": "nope"}, {}, "bad sampling spec"),
        ({"model": "doe", "sampling": "100:5"}, {"timeline": True},
         "incompatible with timeline"),
        ({"model": "none", "branch_predictor": "gshare"}, {},
         "fetch stage"),
        ({"model": "ilp"}, {"timeline": True}, "microarchitectural"),
        ({"engine": "predict"}, {"profile": "block"}, "superblock"),
        ({"fuse_cycles": "false"}, {}, "fuse_cycles"),
        ({}, {"checkpoint_every": 0}, "checkpoint_every"),
    ]
    for fields, observers, message in cases:
        with pytest.raises(ValueError, match=message):
            RunConfig(**fields).validate(**observers)


def test_make_model_sizes_and_wires_the_predictor():
    model = RunConfig(model="doe", branch_predictor="bimodal",
                      branch_penalty=5).make_model(4)
    assert model.issue_width == 4
    assert model.branch_model.penalty == 5
    assert RunConfig(model="none").make_model(4) is None
    with pytest.raises(ValueError, match="fetch stage"):
        RunConfig(model="ilp", branch_predictor="gshare").make_model(1)
