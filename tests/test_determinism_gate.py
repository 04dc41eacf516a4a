"""Tier-1 smoke for ``tools/determinism_gate.py``.

The gate is CI's determinism job; these tests run it in-process on the
smallest workload so a refactor that breaks it fails here first, and
prove that a fault in one cell of its AOT section fails the gate with
a localized forensic report.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro.fuzz import runner
from repro.telemetry import flight

GATE = os.path.join(os.path.dirname(__file__), "..", "tools",
                    "determinism_gate.py")

#: Bit 3 of r30 (the stack pointer) flipped at instruction 1000.
FAULT = {"at": 1_000, "reg": 30, "xor": 8}
VICTIM = "aot/doe/fused"
ARGS = ["--workload", "dct4x4", "--aot-benchmarks", "dct4x4"]


@pytest.fixture()
def gate():
    spec = importlib.util.spec_from_file_location("determinism_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gate_passes(gate, capsys):
    assert gate.main(ARGS) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert "ok: dct4x4 aot vs superblock" in out


def test_faulty_aot_cell_fails_with_forensics(gate, capsys, monkeypatch):
    """Flip one register in the aot/doe cell (and in its lockstep
    rerun, as a deterministic engine bug would): the gate must fail
    and print the first divergent PC."""
    run_config, run_lockstep = runner.run_config, flight.run_lockstep

    def faulty_run_config(built, config, **kwargs):
        if config.label == VICTIM:
            kwargs["inject"] = FAULT
        return run_config(built, config, **kwargs)

    def faulty_lockstep(built, config_a, config_b, **kwargs):
        if config_b["label"] == VICTIM:
            kwargs["inject"] = FAULT
        return run_lockstep(built, config_a, config_b, **kwargs)

    monkeypatch.setattr(runner, "run_config", faulty_run_config)
    monkeypatch.setattr(flight, "run_lockstep", faulty_lockstep)
    assert gate.main(ARGS) == 1
    out = capsys.readouterr().out
    assert "MISMATCH: dct4x4 aot vs superblock" in out
    assert f"{VICTIM} vs superblock/none" in out
    assert f"first divergent instruction: #{FAULT['at']} at pc=" in out
