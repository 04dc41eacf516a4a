"""Command-line interface smoke tests (every subcommand)."""

import json

import pytest

from repro.cli import main
from repro.sim.errors import SimulationError


@pytest.fixture()
def app_kc(tmp_path):
    path = tmp_path / "app.kc"
    path.write_text(
        "int main() { print_int(6 * 7); putchar('\\n'); return 0; }\n"
    )
    return str(path)


class TestCompileAndRun:
    def test_compile_run(self, app_kc, tmp_path, capsys):
        elf = str(tmp_path / "app.elf")
        assert main(["compile", app_kc, "-o", elf]) == 0
        assert main(["run", elf]) == 0
        out = capsys.readouterr().out
        assert "42" in out
        assert "instructions:" in out

    def test_compile_vliw_with_asm(self, app_kc, tmp_path, capsys):
        elf = str(tmp_path / "app.elf")
        asm = str(tmp_path / "app.s")
        main(["compile", app_kc, "-o", elf, "--isa", "vliw4",
              "--emit-asm", asm])
        text = open(asm).read()
        assert ".isa vliw4" in text and "{" in text

    def test_run_with_model(self, app_kc, tmp_path, capsys):
        elf = str(tmp_path / "app.elf")
        main(["compile", app_kc, "-o", elf])
        main(["run", elf, "--model", "doe"])
        assert "doe cycles:" in capsys.readouterr().out

    def test_run_with_trace(self, app_kc, tmp_path):
        elf = str(tmp_path / "app.elf")
        trace = str(tmp_path / "out.trc")
        main(["compile", app_kc, "-o", elf])
        main(["run", elf, "--trace", trace])
        lines = open(trace).read().splitlines()
        assert lines and "addi" in "".join(lines)

    def test_compile_elf_then_run_aot(self, app_kc, tmp_path, capsys):
        elf = str(tmp_path / "app.elf")
        cache = str(tmp_path / "plans")
        main(["compile", app_kc, "-o", elf])
        assert main(["compile", elf, "--models", "none",
                     "--plan-cache-dir", cache]) == 0
        assert "% coverage" in capsys.readouterr().out
        assert main(["run", elf, "--engine", "aot",
                     "--plan-cache-dir", cache]) == 0
        assert "42" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_compile_elf_rejects_empty_replay(self, app_kc, tmp_path,
                                              budget):
        elf = str(tmp_path / "app.elf")
        main(["compile", app_kc, "-o", elf])
        with pytest.raises(SystemExit, match="--profile-budget"):
            main(["compile", elf, "--profile-budget", budget])

    def test_bundled_program_by_name(self, tmp_path, capsys):
        elf = str(tmp_path / "q.elf")
        assert main(["compile", "qsort", "-o", elf]) == 0

    def test_mixed_flag(self, tmp_path, capsys):
        src = tmp_path / "m.kc"
        src.write_text(
            "int k(int x) { return x + 1; }\n"
            "int main() { print_int(k(1)); return 0; }\n"
        )
        elf = str(tmp_path / "m.elf")
        main(["compile", str(src), "-o", elf, "--mixed", "k=vliw4"])
        main(["run", elf])
        assert "2" in capsys.readouterr().out


class TestAsmDisasm:
    def test_asm_subcommand(self, tmp_path, capsys):
        asm = tmp_path / "a.s"
        asm.write_text(
            ".global $risc$main\n$risc$main:\nli a0, 7\n"
            "call $risc$print_int\nhalt\n"
        )
        elf = str(tmp_path / "a.elf")
        assert main(["asm", str(asm), "-o", elf]) == 0
        main(["run", elf])
        assert "7" in capsys.readouterr().out

    def test_disasm(self, app_kc, tmp_path, capsys):
        elf = str(tmp_path / "app.elf")
        main(["compile", app_kc, "-o", elf])
        capsys.readouterr()
        assert main(["disasm", elf]) == 0
        out = capsys.readouterr().out
        assert "addi" in out and "0x00001000" in out


class TestAnalysis:
    def test_ilp_report(self, app_kc, capsys):
        assert main(["ilp", app_kc]) == 0
        out = capsys.readouterr().out
        assert "ILP" in out and "$risc$main" in out

    def test_select_report(self, capsys):
        assert main(["select", "dct4x4"]) == 0
        out = capsys.readouterr().out
        assert "isa_map:" in out and "dct4x4" in out

    def test_programs_listing(self, capsys):
        assert main(["programs"]) == 0
        out = capsys.readouterr().out
        for name in ("cjpeg", "fft", "aes"):
            assert name in out


class TestTargetgen:
    def test_emit_artifacts(self, tmp_path, capsys):
        sim = str(tmp_path / "gen_sim.py")
        stubs = str(tmp_path / "libc.s")
        assert main(["targetgen", "--emit-sim", sim,
                     "--emit-stubs", stubs]) == 0
        assert "OPERATION_TABLES" in open(sim).read()
        assert "$vliw8$exit" in open(stubs).read()

    def test_nothing_to_do(self, capsys):
        assert main(["targetgen"]) == 0
        assert "nothing to do" in capsys.readouterr().out


class TestTraceDiff:
    def test_identical_traces_agree(self, app_kc, tmp_path, capsys):
        elf = str(tmp_path / "app.elf")
        main(["compile", app_kc, "-o", elf])
        t1 = str(tmp_path / "a.trc")
        t2 = str(tmp_path / "b.trc")
        main(["run", elf, "--trace", t1])
        main(["run", elf, "--trace", t2])
        capsys.readouterr()
        assert main(["trace-diff", t1, t2]) == 0
        assert "traces agree" in capsys.readouterr().out

    def test_mismatch_reported(self, app_kc, tmp_path, capsys):
        elf = str(tmp_path / "app.elf")
        main(["compile", app_kc, "-o", elf])
        t1 = str(tmp_path / "a.trc")
        main(["run", elf, "--trace", t1])
        t2 = str(tmp_path / "b.trc")
        lines = open(t1).read().splitlines()
        open(t2, "w").write("\n".join(lines[:-1]))
        capsys.readouterr()
        assert main(["trace-diff", t1, t2]) == 1


class TestBranchPredictorFlag:
    def test_run_with_predictor(self, tmp_path, capsys):
        src = tmp_path / "b.kc"
        src.write_text(
            "int main() { int s = 0; for (int i = 0; i < 40; i++) "
            "if (i % 3) s += i; print_int(s); return 0; }\n"
        )
        elf = str(tmp_path / "b.elf")
        main(["compile", str(src), "-o", elf])
        main(["run", elf, "--model", "doe",
              "--branch-predictor", "bimodal", "--branch-penalty", "5"])
        out = capsys.readouterr().out
        assert "branches:" in out and "penalty=5" in out


class TestEmitDoc:
    def test_isa_reference(self, tmp_path, capsys):
        doc = str(tmp_path / "isa.md")
        assert main(["targetgen", "--emit-doc", doc]) == 0
        text = open(doc).read()
        assert "ISA reference" in text and "switchtarget" in text


class TestRunTrap:
    @pytest.fixture()
    def trap_elf(self, tmp_path):
        # A short loop, then an undefined operation word.
        asm = tmp_path / "trap.s"
        asm.write_text(
            ".global $risc$main\n$risc$main:\nli a0, 300\nloop:\n"
            "addi a0, a0, -1\nbne a0, zero, loop\n"
            ".word 0xffffffff\nhalt\n"
        )
        elf = str(tmp_path / "trap.elf")
        assert main(["asm", str(asm), "-o", elf]) == 0
        return elf

    @pytest.mark.parametrize("extra", [[], ["--sample", "50:2:10"]],
                             ids=["exact", "sample"])
    def test_trap_renders_flight_trail(self, trap_elf, tmp_path, capsys,
                                       extra):
        flight = str(tmp_path / "flight.json")
        events = str(tmp_path / "events.ndjson")
        with pytest.raises(SimulationError):
            main(["run", trap_elf, "--model", "doe", "--no-plan-cache",
                  "--flight", flight, "--events", events, "--live",
                  *extra])
        err = capsys.readouterr().err
        assert "flight recorder" in err and "trap" in err
        assert f"flight dump:  wrote {flight}" in err
        assert err.endswith("\n")  # the live progress line was closed
        assert json.load(open(flight))["blocks"]
        types = [json.loads(line)["type"] for line in open(events)]
        assert types[0] == "run-start" and types[-1] == "trap"
