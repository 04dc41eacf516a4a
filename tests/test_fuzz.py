"""Cross-engine differential fuzzing rig (``repro.fuzz``).

Four layers:

* generator units — determinism, seed sensitivity, feature knobs, and
  the validity guarantee (every generated program assembles and links
  through the real toolchain);
* differential runner — a fixed-seed sweep finds zero divergences,
  and an *injected* register fault is caught and localized (the rig's
  teeth, exercised without the slow full-matrix self-test);
* shrinker — a failing program minimizes to a smaller program that
  still fails, and never "minimizes" to a non-failing one;
* corpus — the checked-in reproducers under ``tests/corpus/`` replay
  green over the full engine x model x accounting matrix.  This is
  the forever-guard: a divergence here is a real engine bug.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import cli
from repro.fuzz import (
    GenConfig,
    assemble_fuzz,
    default_matrix,
    generate_program,
    load_corpus,
    replay_entry,
    run_differential,
    save_reproducer,
    shrink,
)
from repro.fuzz import Outcome, compare
from repro.fuzz.runner import EngineConfig, run_config, self_test

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: Cheap sub-matrix for hot loops (no AOT translation cost): the
#: reference interpreter plus every other interactive engine and the
#: superblock engine's fused/observed pairs.
FAST_CONFIGS = [
    EngineConfig("nocache", "ilp"),
    EngineConfig("cache", "doe"),
    EngineConfig("predict", "aie"),
    EngineConfig("superblock", "doe", True),
    EngineConfig("superblock", "doe", False),
]


class TestGenerator:
    def test_deterministic_for_seed(self):
        a = generate_program(42, GenConfig(smc=True))
        b = generate_program(42, GenConfig(smc=True))
        assert a.render() == b.render()
        assert a.features == b.features

    def test_seed_sensitivity(self):
        a = generate_program(1, GenConfig())
        b = generate_program(2, GenConfig())
        assert a.render() != b.render()

    def test_feature_knobs(self):
        p = generate_program(5, GenConfig(smc=True))
        assert "smc" in p.features
        assert "isa-switch" in p.features
        plain = generate_program(
            5,
            GenConfig(loops=False, branches=False, indirect=False,
                      isa_switches=False, smc=False, output=False),
        )
        assert plain.features == []

    @pytest.mark.parametrize("seed", [0, 1, 7, 99, 1234])
    def test_every_program_assembles(self, seed):
        program = generate_program(seed, GenConfig(smc=seed % 2 == 1))
        built = assemble_fuzz(program.render(), name=f"<seed {seed}>")
        # ... and terminates well under the budget, by construction.
        outcome = run_config(built, EngineConfig("nocache"))
        assert outcome.error is None
        assert outcome.halted
        assert 0 < outcome.stats["executed_instructions"] < 100_000


class TestRunner:
    def test_default_matrix_shape(self):
        configs = default_matrix()
        assert configs[0].engine == "nocache"  # the reference oracle
        labels = [c.label for c in configs]
        assert len(labels) == len(set(labels))
        assert "superblock/doe/fused" in labels
        assert "superblock/doe/observed" in labels
        assert "aot/doe/fused" in labels
        # An observing model has no AOT representation: never emitted.
        assert not any("aot" in l and "observed" in l for l in labels)

    @pytest.mark.parametrize("seed", [1234, 1238])
    def test_clean_sweep_no_divergence(self, seed):
        program = generate_program(seed, GenConfig(smc=seed == 1238))
        built = assemble_fuzz(program.render())
        result = run_differential(built, FAST_CONFIGS)
        assert result.ok, [d.detail for d in result.divergences]

    def test_injected_fault_is_caught_and_localized(self):
        program = generate_program(7, GenConfig(smc=True))
        built = assemble_fuzz(program.render())
        inject, result = self_test(
            built, FAST_CONFIGS, victim="superblock/doe/fused"
        )
        assert not result.ok
        div = result.divergences[0]
        assert div.kind == "architectural"
        assert div.config.label == "superblock/doe/fused"
        assert div.forensics is not None
        assert div.forensics["first_divergent_instruction"] is not None
        assert div.first_divergent_pc is not None


class TestCompare:
    """``compare`` names exactly the observables that differ."""

    def _outcome(self, **changes):
        stats = {"executed_instructions": 40, "isa_switches": 2}
        stats.update(changes.pop("stats", {}))
        doc = dict(regs=(0, 7, 9), ip=0x100, isa=1, halted=True,
                   exit_code=0, output="ok\n", mem_digest="abc",
                   stats=stats, model="DOE", cycles=123)
        doc.update(changes)
        return Outcome(**doc)

    @pytest.mark.parametrize("name,changes", [
        ("r1", {"regs": (0, 8, 9)}),
        ("ip", {"ip": 0x104}),
        ("isa", {"isa": 0}),
        ("halted", {"halted": False}),
        ("exit_code", {"exit_code": 3}),
        ("output", {"output": "ok\nno\n"}),
        ("mem_digest", {"mem_digest": "abd"}),
        ("isa_switches", {"stats": {"isa_switches": 3}}),
        ("error", {"error": "illegal instruction"}),
        ("cycles", {"cycles": 124}),
    ])
    def test_names_exactly_the_changed_field(self, name, changes):
        assert compare(self._outcome(), self._outcome()) == []
        diffs = compare(self._outcome(), self._outcome(**changes))
        assert len(diffs) == 1, diffs
        assert diffs[0].startswith(f"{name}: "), diffs

    def test_cycles_of_different_models_not_compared(self):
        ref = self._outcome()
        assert compare(ref, self._outcome(model="AIE", cycles=999)) == []
        assert compare(ref, self._outcome(model=None, cycles=None)) == []

    def test_matrix_compares_every_architectural_stat(self):
        program = generate_program(1238, GenConfig(smc=True))
        built = assemble_fuzz(program.render())
        outcome = run_config(built, EngineConfig("superblock", "doe"))
        assert set(outcome.stats) >= {
            "executed_slots", "memory_ops", "simops", "isa_switches"}
        assert outcome.stats["isa_switches"] > 0


class TestShrinker:
    def _failing_setup(self):
        program = generate_program(7, GenConfig(smc=True))
        built = assemble_fuzz(program.render())
        inject, result = self_test(
            built, FAST_CONFIGS, victim="superblock/doe/fused"
        )
        pair = [FAST_CONFIGS[0], result.divergences[0].config]

        def still_fails(candidate):
            b = assemble_fuzz(candidate.render())
            return not run_differential(
                b, pair, inject=inject,
                inject_into="superblock/doe/fused", escalate=False,
            ).ok

        return program, still_fails

    def test_shrinks_and_still_fails(self):
        program, still_fails = self._failing_setup()
        small = shrink(program, still_fails, max_attempts=40)
        assert len(small.segments) <= len(program.segments)
        assert len(small.render()) <= len(program.render())
        assert still_fails(small)

    def test_never_shrinks_a_passing_program_away(self):
        program = generate_program(3, GenConfig())
        small = shrink(program, lambda p: False, max_attempts=10)
        assert small.render() == program.render()


class TestCorpus:
    def test_checked_in_entries_cover_required_features(self):
        entries = load_corpus(CORPUS_DIR)
        assert len(entries) >= 3
        features = [set(e["features"]) for e in entries]
        assert any("smc" in f for f in features)
        assert any("isa-switch" in f for f in features)

    @pytest.mark.parametrize(
        "entry",
        load_corpus(CORPUS_DIR),
        ids=lambda e: os.path.basename(e["path"]),
    )
    def test_replay_green_over_full_matrix(self, entry):
        result = replay_entry(entry)
        assert result.ok, [d.detail for d in result.divergences]
        assert len(result.outcomes) == len(default_matrix())

    def test_save_load_roundtrip(self, tmp_path):
        program = generate_program(11, GenConfig(smc=True))
        path = save_reproducer(
            str(tmp_path), program, note="roundtrip",
            divergence={"kind": "architectural", "detail": "x"},
        )
        (entry,) = load_corpus(str(tmp_path))
        assert entry["path"] == path
        assert entry["seed"] == 11
        assert entry["asm"] == program.render()
        assert GenConfig.from_doc(entry["config"]) == program.config
        assert entry["divergence"]["kind"] == "architectural"

    def test_unknown_schema_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            json.dumps({"schema": "other", "asm": ""})
        )
        with pytest.raises(ValueError, match="unknown corpus schema"):
            load_corpus(str(tmp_path))


class TestFuzzCli:
    ENGINES = "nocache,cache,predict,superblock"

    def test_small_sweep_exits_zero(self, capsys):
        rc = cli.main([
            "fuzz", "--seed", "1234", "--count", "2",
            "--engines", self.ENGINES, "--models", "ilp,doe",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 divergence(s)" in out

    def test_replay_corpus_exits_zero(self, capsys):
        rc = cli.main([
            "fuzz", "--replay", CORPUS_DIR,
            "--engines", self.ENGINES, "--models", "ilp",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replayed" in out and "0 divergence(s)" in out

    def test_unknown_engine_rejected(self, capsys):
        rc = cli.main(["fuzz", "--engines", "warp"])
        assert rc == 2
        assert "unknown engine" in capsys.readouterr().err
