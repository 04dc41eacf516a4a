"""Per-operation check of the behaviour compiler's lowerings.

Every operation of every KAHRISMA ISA is lowered the ways the tiers run
it — the buffered ``sim_`` function, the ``simd_`` direct function,
the inlined direct statements of a superblock body and the operation
inside a two-operation VLIW bundle (a branch in either slot, its tail
reading a pre-commit snapshot of a register the other slot writes) —
and each lowering runs on the same registers and memory.  All must
leave the registers, memory and next IP that a plain walk of the
operation's ADL behaviour tree leaves (compute every operation, then
commit in slot order), so a wrong rewrite fails here even though every
lowering shares it.  Field values are seeded random draws plus
boundary immediates; registers and memory hold the boundary values of
the sign-extension and masking rewrites.
"""

from __future__ import annotations

import ast
import operator
import random
import zlib

import pytest

from repro.adl.behavior import parse_behavior
from repro.adl.kahrisma import KAHRISMA
from repro.sim.state import ProcessorState
from repro.sim.superblock import _compile_plan_fn
from repro.targetgen import behavior_compiler as bc
from repro.targetgen.optable import build_target

MASK = 0xFFFFFFFF
IP = 0x1000
BOUNDARY = (0, 1, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF,
            0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
#: Data words holding boundary values, straddling a page boundary.
DATA = 0x20F00
DATA_LEN = 0x200
FIELD_DRAWS = 16
STATES = 6

#: Every operation of every ISA, by name (the ISAs share one set).
ENTRIES = {}
for _isa in KAHRISMA.isas:
    _table = build_target(KAHRISMA).optable(_isa.ident)
    for _name, _entry in _table.by_name.items():
        ENTRIES.setdefault(_name, _entry)
MACHINE_CONTROL = ("halt", "switchtarget", "simop")


def _field_values(op, rng):
    values = []
    for field in op.value_fields:
        width = field.hi - field.lo + 1
        if field.role in ("reg_src", "reg_dst"):
            values.append(rng.choice((0, rng.randrange(1, 32),
                                      rng.randrange(1, 4))))
            continue
        lo, hi = ((-(1 << (width - 1)), (1 << (width - 1)) - 1)
                  if field.signed else (0, (1 << width) - 1))
        edges = [v for v in (0, 1, -1, 2, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000,
                             0xFFFF, lo, hi) if lo <= v <= hi]
        values.append(rng.choice(edges) if rng.random() < 0.5
                      else rng.randint(lo, hi))
    return tuple(values)


def _field(op, values, name):
    names = [f.name for f in op.value_fields]
    return values[names.index(name)] if name in names else None


def _machine(rng, op=None, values=None):
    """``(regs, words)``: a register file and data words to load."""
    regs = [rng.choice(BOUNDARY) if rng.random() < 0.7
            else rng.getrandbits(32) for _ in range(32)]
    regs[0] = 0
    if op is not None and op.kind in ("load", "store"):
        base, imm = _field(op, values, "rs1"), _field(op, values, "imm")
        if base and rng.random() < 0.8:
            # Aim into the data pages, aligned or not.
            regs[base] = (DATA + rng.randrange(DATA_LEN - 4) - imm) & MASK
    words = [(DATA + 4 * i, rng.choice(BOUNDARY) if rng.random() < 0.6
              else rng.getrandbits(32)) for i in range(DATA_LEN // 4)]
    return regs, words


def _state(machine):
    regs, words = machine
    state = ProcessorState(KAHRISMA)
    state.regs[:] = regs
    for addr, value in words:
        state.mem.store4(addr, value)
    return state


def _observe(state, next_ip):
    pages = {k: bytes(v) for k, v in state.mem._pages.items()}
    return list(state.regs), pages, next_ip


_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod,
    ast.LShift: operator.lshift, ast.RShift: operator.rshift,
    ast.BitAnd: operator.and_, ast.BitOr: operator.or_,
    ast.BitXor: operator.xor,
}
_CMPOPS = {
    ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
    ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
}
_UNARYOPS = {ast.USub: operator.neg, ast.Invert: operator.invert,
             ast.Not: operator.not_}
_HELPERS = {"s8": bc.s8, "s16": bc.s16, "s32": bc.s32,
            "sdiv": bc.sdiv, "srem": bc.srem}


def _evaluate(state, op, values, next_ip, regwr, memwr):
    """Run ``op``'s ADL behaviour by walking its tree — no generated
    code — buffering writes like a ``sim_`` function.  Returns the new
    IP of a taken control transfer, else None."""
    env = {f.name: v for f, v in zip(op.value_fields, values)}
    env.update(IP=IP, NIP=next_ip)
    mem = state.mem
    loads = {"M1": mem.load1, "M2": mem.load2, "M4": mem.load4}

    def value(node):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return env[node.id]
        if isinstance(node, ast.BinOp):
            return _BINOPS[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp):
            return _UNARYOPS[type(node.op)](value(node.operand))
        if isinstance(node, ast.BoolOp):
            if isinstance(node.op, ast.And):
                return all(value(v) for v in node.values)
            return any(value(v) for v in node.values)
        if isinstance(node, ast.Compare):
            left = value(node.left)
            for op_, comp in zip(node.ops, node.comparators):
                right = value(comp)
                if not _CMPOPS[type(op_)](left, right):
                    return False
                left = right
            return True
        if isinstance(node, ast.IfExp):
            return value(node.body) if value(node.test) else value(node.orelse)
        args = [value(a) for a in node.args]
        name = node.func.id
        if name == "R":
            return state.regs[args[0]]
        if name in loads:
            return loads[name](args[0])
        return _HELPERS[name](*args)

    def run(stmts):
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                env[stmt.targets[0].id] = value(stmt.value)
            elif isinstance(stmt, ast.If):
                taken = run(stmt.body if value(stmt.test) else stmt.orelse)
                if taken is not None:
                    return taken
            elif isinstance(stmt, ast.Expr):
                call = stmt.value
                name = call.func.id
                args = [value(a) for a in call.args]
                if name == "W":
                    regwr.append((args[0], args[1] & MASK))
                elif name in ("S1", "S2", "S4"):
                    memwr.append((int(name[1]), args[0], args[1]))
                elif name == "BR":
                    return next_ip + (args[0] << 2)
                elif name == "JABS":
                    return args[0] & MASK
        return None

    return run(parse_behavior(op.name, op.behavior).body)


def _buffered(machine, ops, next_ip, run_op=None):
    """Every operation computes on the pre-instruction state, then the
    writes commit in slot order.  The reference evaluates the ADL tree;
    ``run_op(state, entry, values, regwr, memwr)`` runs a lowering."""
    state = _state(machine)
    regs = state.regs
    regwr, memwr = [], []
    new_ip = None
    for entry, values in ops:
        if run_op is None:
            r = _evaluate(state, entry.op, values, next_ip, regwr, memwr)
        else:
            r = run_op(state, entry, values, next_ip, regwr, memwr)
        if r is not None:
            new_ip = r
    for reg, value in regwr:
        regs[reg] = value
    regs[0] = 0
    stores = {1: state.mem.store1, 2: state.mem.store2, 4: state.mem.store4}
    for size, addr, value in memwr:
        stores[size](addr, value)
    return _observe(state, next_ip if new_ip is None else new_ip)


def _sim_fn(state, entry, values, next_ip, regwr, memwr):
    return entry.sim_fn(state, values, IP, next_ip, regwr, memwr)


def _compiled(inlined, next_ip):
    lines, uses_regs, loads, stores = inlined
    lines = list(lines)
    if not lines or not lines[-1].lstrip().startswith("return"):
        lines.append(f"    return {next_ip}")
    fn, source, _code = _compile_plan_fn(
        lines, uses_regs, loads, stores, 0, IP
    )
    assert not any(h in source for h in ("s8(", "s16(", "s32(")), source
    return fn


def _run(fn, machine):
    state = _state(machine)
    return _observe(state, fn(state, [False]))


def _direct_fn(entry, values, next_ip, machine):
    state = _state(machine)
    entry.direct_fn(state, values, IP, next_ip)
    return _observe(state, next_ip)


def _partner(op, values, rng):
    """A second bundle operation overlapping ``op``'s registers: it
    reads what ``op`` writes and writes what ``op`` reads, or stores
    to and loads from ``op``'s address."""
    regs = [v for f, v in zip(op.value_fields, values)
            if f.role in ("reg_src", "reg_dst")] or [rng.randrange(32)]
    name = rng.choice(("addi", "add", "lw", "sw", "sb"))
    entry = ENTRIES[name]
    fields = {}
    for field in entry.op.value_fields:
        if field.role in ("reg_src", "reg_dst"):
            fields[field.name] = rng.choice(regs)
        else:
            fields[field.name] = rng.randrange(-64, 64)
    if name in ("lw", "sw", "sb") and op.kind in ("load", "store"):
        fields["rs1"] = _field(op, values, "rs1")
        fields["imm"] = _field(op, values, "imm")
    return entry, tuple(fields[f.name] for f in entry.op.value_fields)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_lowerings_agree(name):
    entry = ENTRIES[name]
    op = entry.op
    if name in MACHINE_CONTROL:
        # Machine control runs buffered only, in every tier.
        assert entry.direct_fn is None
        values = tuple(0 for _ in op.value_fields)
        assert bc.inline_bundle_stmts([(op, values)], IP, IP + 4) is None
        return
    rng = random.Random(zlib.crc32(name.encode()))
    control = op.kind == "branch"
    snapshots = 0
    for _draw in range(FIELD_DRAWS):
        values = _field_values(op, rng)
        next_ip = IP + 4
        candidates = []
        if control:
            candidates.append(("lone branch", [(entry, values)], _compiled(
                bc.inline_bundle_stmts([(op, values)], IP, next_ip),
                next_ip)))
        elif op.kind != "nop":
            assert entry.direct_fn is not None
            candidates.append(("direct statements", [(entry, values)],
                               _compiled(bc.inline_direct_stmts(
                                   op, values, IP, next_ip), next_ip)))
        partner, p_values = _partner(op, values, rng)
        for pair in (((entry, values), (partner, p_values)),
                     ((partner, p_values), (entry, values))):
            bundle_ip = IP + 8
            inlined = bc.inline_bundle_stmts(
                [(e.op, v) for e, v in pair], IP, bundle_ip
            )
            assert inlined is not None, pair
            snapshots += any("_bs" in line for line in inlined[0])
            candidates.append(("bundle", list(pair),
                               _compiled(inlined, bundle_ip)))
        for _state_draw in range(STATES):
            machine = _machine(rng, op, values)
            reference = _buffered(machine, [(entry, values)], next_ip)
            assert _buffered(machine, [(entry, values)], next_ip,
                             _sim_fn) == reference, ("sim_ function", values)
            if entry.direct_fn is not None:
                assert _direct_fn(entry, values, next_ip, machine) == \
                    reference, ("simd_ function", values)
            for label, ops, fn in candidates:
                ref_ip = next_ip if len(ops) == 1 else IP + 8
                assert _run(fn, machine) == _buffered(machine, ops, ref_ip), (
                    label, [(e.op.name, v) for e, v in ops]
                )
    if control and op.dst_fields + op.src_fields:
        # Some draw must exercise a tail reading a snapshot.
        assert snapshots, name
