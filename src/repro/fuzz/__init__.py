"""Cross-engine differential fuzzing (``kahrisma fuzz``).

The correctness contract of this repository — five engines and two
cycle-accounting paths that are *bitwise interchangeable* — is only as
strong as the programs it is exercised on.  This package turns that
contract into a property-based test (ROADMAP item 4; the methodology
follows the co-execution validation of generated CPU models in
arXiv:1109.4351 and the differential discipline of Reshadi & Dutt):

* :mod:`repro.fuzz.generator` — a seeded generator emitting
  random-but-valid mixed-ISA guest programs (straight-line arithmetic,
  arena-confined loads/stores, bounded direct/indirect control flow,
  ISA switches, opt-in self-modifying code), assembled through the
  real ``repro.binutils`` path into loadable ELFs;
* :mod:`repro.fuzz.runner` — executes each program on every engine ×
  cycle model × fused/observed configuration and cross-checks
  architectural state, cycles and syscall output bitwise, escalating
  any mismatch to :func:`repro.telemetry.run_lockstep` forensics;
* :mod:`repro.fuzz.shrink` — delta-debugging minimizer for failing
  programs (drop segments/instructions, shrink loop counts);
* :mod:`repro.fuzz.corpus` — reproducer files under ``tests/corpus/``
  that tier-1 replays forever after (``docs/validation.md``).
"""

from .corpus import load_corpus, replay_entry, save_reproducer
from .generator import GenConfig, FuzzProgram, generate_program
from .runner import (
    Divergence,
    EngineConfig,
    FuzzBuilt,
    Outcome,
    assemble_fuzz,
    compare,
    default_matrix,
    observe,
    run_differential,
)
from .shrink import shrink

__all__ = [
    "Divergence",
    "EngineConfig",
    "FuzzBuilt",
    "FuzzProgram",
    "GenConfig",
    "Outcome",
    "assemble_fuzz",
    "compare",
    "default_matrix",
    "generate_program",
    "load_corpus",
    "observe",
    "replay_entry",
    "run_differential",
    "save_reproducer",
    "shrink",
]
