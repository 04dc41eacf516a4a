"""Emission of simulator source fragments as a standalone Python module.

The paper's TargetGen generates *source code fragments* of the simulator
(register table, operation tables, simulation functions) which are then
compiled into the simulator binary.  We reproduce that flow: this module
renders the same fragments as Python source text.  The rendered module
is import-safe and self-contained; :func:`load_generated_module` execs
it and returns the namespace, which the test suite uses to prove the
emitted source is equivalent to the in-memory tables built by
:mod:`repro.targetgen.optable`.
"""

from __future__ import annotations

import hashlib
import io
import types
from typing import Dict

from ..adl.model import Architecture
from .behavior_compiler import (
    SIM_GLOBALS,
    generate_sim_function_source,
    sim_function_name,
)

_HELPER_SOURCE = '''\
MASK32 = 0xFFFFFFFF


def s32(x):
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


def sdiv(a, b):
    a, b = s32(a), s32(b)
    if b == 0:
        return -1
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def srem(a, b):
    a, b = s32(a), s32(b)
    if b == 0:
        return a
    return a - sdiv(a, b) * b
'''


def generate_simulator_module(arch: Architecture) -> str:
    """Render the simulator fragments for ``arch`` as Python source."""
    out = io.StringIO()
    out.write('"""Simulator fragments generated by repro.targetgen.\n\n')
    out.write(f"Architecture: {arch.name}\n")
    out.write("Do not edit; regenerate from the ADL description.\n")
    out.write('"""\n\n')
    out.write(_HELPER_SOURCE)
    out.write("\n\n# --- register table ---\n")
    names = tuple(r.name for r in arch.register_file.registers)
    out.write(f"REGISTER_TABLE = {names!r}\n")

    out.write("\n\n# --- simulation functions ---\n\n")
    emitted = set()
    for isa in arch.isas:
        for op in isa.operations:
            fn_name = sim_function_name(op)
            if fn_name in emitted:
                continue
            emitted.add(fn_name)
            out.write(generate_sim_function_source(op))
            out.write("\n\n")

    out.write("# --- operation tables (one per ISA) ---\n")
    out.write("OPERATION_TABLES = {\n")
    for isa in arch.isas:
        out.write(f"    {isa.ident}: {{  # {isa.name}, issue width {isa.issue_width}\n")
        for op in isa.operations:
            fields = tuple(
                (f.name, f.hi, f.lo, f.const, f.signed) for f in op.fields
            )
            implicit = (op.implicit_reads, op.implicit_writes)
            out.write(
                f"        {op.name!r}: ({op.size}, {fields!r}, "
                f"{implicit!r}, {sim_function_name(op)}),\n"
            )
        out.write("    },\n")
    out.write("}\n")
    out.write("\nISA_ISSUE_WIDTHS = {\n")
    for isa in arch.isas:
        out.write(f"    {isa.ident}: {isa.issue_width},\n")
    out.write("}\n")
    return out.getvalue()


def write_simulator_module(arch: Architecture, path: str) -> str:
    """Write the generated module to ``path`` and return the source."""
    source = generate_simulator_module(arch)
    with open(path, "w", encoding="utf-8") as f:
        f.write(source)
    return source


def load_generated_module(source: str) -> types.SimpleNamespace:
    """Exec generated simulator source and return its namespace."""
    namespace: Dict[str, object] = dict(SIM_GLOBALS)
    exec(compile(source, "<targetgen-module>", "exec"), namespace)
    return types.SimpleNamespace(**namespace)


def architecture_digest(arch: Architecture) -> str:
    """Stable digest of the complete architecture description.

    Any ADL change that could alter decoding, behaviour compilation or
    operation latencies changes the digest.  The persistent superblock
    plan cache (:mod:`repro.sim.plancache`) folds it into its file key
    so cached translations never survive an architecture edit.  The
    ADL model consists of frozen dataclasses over plain values, so the
    generated ``repr`` is a deterministic full serialisation.
    """
    return hashlib.sha256(repr(arch).encode()).hexdigest()[:16]
