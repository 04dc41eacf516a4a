"""Lowering of ADL behaviour fragments to simulation functions.

This is the heart of the TargetGen utility (paper Section V): for each
operation the ADL carries a behaviour fragment, and TargetGen generates
the operation's *simulation function* from it.  We generate genuine
Python source text (inspectable, and emittable as a module by
:mod:`repro.targetgen.codegen`) and ``exec`` it to obtain the callable.

Generated simulation functions have the uniform signature::

    def sim_<name>(state, v, ip, next_ip, regwr, memwr):
        ...
        return <new-ip or None>

``v`` is the tuple of decoded field values (the paper's *decode
structure* content), in :attr:`Operation.value_fields` order.  Register
and memory writes are *buffered* into ``regwr`` / ``memwr`` and applied
by the interpreter only after every parallel operation of the
instruction has computed — semantically identical to the paper's
recursive simulation-function calls (Section V-B), which also perform
all register reads before any write-back.

For the superblock translation engine a second, *direct* variant is
generated where provably safe::

    def simd_<name>(state, v, ip, next_ip):
        ...  # writes registers/memory immediately, no buffers

Buffering exists to give parallel VLIW slots read-before-write
semantics; a single-issue instruction only needs it when the behaviour
itself reads a register or memory location *after* writing one in an
earlier statement.  :func:`direct_eligible` performs that (conservative,
source-order) analysis; control-flow operations are never eligible.
Inside a superblock's straight-line body, calling the direct variant is
observably identical to buffer-then-commit, and roughly halves the
per-operation Python work.

A third lowering, *bundle* mode (:func:`inline_bundle_stmts`), inlines
a whole multi-operation VLIW instruction: every write another
operation of the bundle could observe goes to a bundle-local
temporary, committed only after all operations computed — the
interpreter's read-before-write commit, without buffers and without
per-operation eligibility (an operation needs no direct variant to be
inlined in a bundle).

Each instruction is lowered once, in its final form: every mode
applies the same exact rewrites (see :class:`_Emitter`) — a 32-bit
mask dropped where the value is provably in range, branch-free sign
extension instead of ``s8/s16/s32`` calls, signed comparisons by
sign-bit flip, identity folds on substituted field values and an
open-coded aligned word load.  The interpreter's ``sim_`` functions,
the superblock engine's plans, their fused-timing variants and the
ahead-of-time modules therefore run the same statements for an
instruction, and no later pass rewrites them.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Tuple

from ..adl.behavior import BehaviorError, parse_behavior
from ..adl.model import Operation

MASK32 = 0xFFFFFFFF

#: Memory-load intrinsics and the local aliases they compile to.
_LOADS = {"M1": "ld1", "M2": "ld2", "M4": "ld4"}
_STORE_SIZES = {"S1": 1, "S2": 2, "S4": 4}
_HELPERS = {"sdiv", "srem"}


# The sign-extension intrinsics' definitions.  Generated code inlines
# them (see :class:`_Emitter`); ``sdiv``/``srem`` stay helper calls.


def s8(x: int) -> int:
    x &= 0xFF
    return x - 0x100 if x & 0x80 else x


def s16(x: int) -> int:
    x &= 0xFFFF
    return x - 0x10000 if x & 0x8000 else x


def s32(x: int) -> int:
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


def sdiv(a: int, b: int) -> int:
    """Truncating signed division; division by zero yields -1."""
    a, b = s32(a), s32(b)
    if b == 0:
        return -1
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def srem(a: int, b: int) -> int:
    """Truncating signed remainder; by zero yields the dividend."""
    a, b = s32(a), s32(b)
    if b == 0:
        return a
    return a - sdiv(a, b) * b


#: Globals visible to generated simulation functions.
SIM_GLOBALS: Dict[str, object] = {"sdiv": sdiv, "srem": srem}


#: Sign-extension intrinsics: ``name -> (mask, sign bit)``.  Lowered
#: to the branch-free ``((x & mask) ^ sign) - sign`` (see :class:`_Emitter`).
_SIGN32 = 0x80000000
_SEXT = {"s8": (0xFF, 0x80), "s16": (0xFFFF, 0x8000), "s32": (MASK32, _SIGN32)}

#: ``M4(a)`` open-codes the aligned-word fast path of ``Memory.load4``:
#: the masked address goes to ``_za``; an aligned address on a page
#: with a word view (4 KiB pages, 32-bit words) indexes it directly,
#: anything else calls the bound ``ld4``.  Big-endian hosts keep no
#: word views, so ``_zg`` returns None and every load takes ``ld4``.
#: The temporaries may be shared by several sites in one function:
#: each site's uses sit between its own assignment and its result.
_LOAD4 = (
    "(_zw[(_za & 4095) >> 2] if not (_za := {}) & 3"
    " and (_zw := _zg(_za >> 12)) is not None else ld4(_za))"
)

#: Operators congruent mod 2**32 in both operands (bit *i* of the
#: result depends only on bits ``<= i`` of each); ``<<`` is congruent
#: in its left operand.
_RING_OPS = (ast.Add, ast.Sub, ast.Mult, ast.BitAnd, ast.BitOr, ast.BitXor)
#: ``x <op> 0`` is ``x``.
_ZERO_RIGHT = (ast.Add, ast.Sub, ast.LShift, ast.RShift, ast.BitOr, ast.BitXor)


class _Emitter:
    """Translate validated behaviour AST nodes into Python source.

    ``direct`` switches W/S lowering from buffer appends to immediate
    register/memory writes (the superblock engine's translated mode).
    ``subst`` maps field names (and ``IP``/``NIP``) to integer values,
    substituted as literals when inlining an op instance into a
    superblock body; ``local_prefix`` keeps behaviour-local variables
    of different inlined instructions from colliding.

    ``bundle`` (a :class:`_Bundle`) selects bundle mode: a W/S a later
    operation could observe lowers to bundle-local temporaries that the
    bundle commits after every operation computed.  With
    ``bundle_tail`` the emitter lowers the
    control part of a bundle's branch, which runs after that commit:
    register reads of registers the bundle writes come from the
    pre-commit snapshots the bundle takes.

    Every mode lowers expressions with the same exact rewrites.  A
    value is *clean* when it is provably in ``[0, 2**32)``: a register
    read (snapshots included), a load, a literal in range, ``&`` with a
    clean operand, ``|``/``^`` of clean operands, ``>>`` of a clean
    value, or a conditional whose arms are clean.  Then:

    * a 32-bit masked context — a ``W`` value (bundle temporaries
      included), a ``JABS`` target, ``x & 0xFFFFFFFF`` — drops the
      mask when its value is clean, and inside it ``s32(x)`` and inner
      ``& 0xFFFFFFFF`` drop too (only the value mod 2**32 matters
      there, which ``+ - * & | ^ ~``, unary ``-`` and the left operand
      of ``<<`` preserve);
    * ``sN(x)`` becomes ``((x & mask) ^ sign) - sign``, and ``s32`` of
      a clean value ``(x ^ sign) - sign``;
    * ``s32(a) < s32(b)`` (any ordering) compares ``a ^ 2**31`` with
      ``b ^ 2**31``, both masked — an order-preserving map onto
      ``[0, 2**32)`` — and ``==``/``!=`` compare the masked values;
    * ``x + 0``, ``x - 0``, ``x << 0``, ``x >> 0``, ``x | 0``,
      ``x ^ 0`` and ``x * 1`` fold once field values are literals;
    * ``M4(a)`` open-codes the word-view fast path of
      ``Memory.load4`` (:data:`_LOAD4`; the prologue binds ``_zg``).
    """

    def __init__(
        self,
        op: Operation,
        *,
        direct: bool = False,
        subst: Optional[Dict[str, int]] = None,
        local_prefix: str = "",
        bundle: Optional["_Bundle"] = None,
        bundle_tail: bool = False,
    ) -> None:
        self.op = op
        self.direct = direct
        self.subst = subst
        self.local_prefix = local_prefix
        self.bundle = bundle
        self.bundle_tail = bundle_tail
        self.field_names = {f.name for f in op.value_fields}
        self.locals: set = set()
        self.uses_regs = False
        self.uses_loads: set = set()
        self.uses_stores: set = set()

    # -- expressions ---------------------------------------------------

    def expr(self, node: ast.expr) -> str:
        return self._lower(node)[0]

    def _literal(self, node: ast.expr) -> Optional[int]:
        """The integer value of a literal or substituted field."""
        if isinstance(node, ast.Constant):
            value = node.value
            return value if type(value) is int else None
        if (
            self.subst is not None
            and isinstance(node, ast.Name)
            and (node.id in self.field_names or node.id in ("IP", "NIP"))
        ):
            return self.subst[node.id]
        return None

    def _mask32(self, node: ast.expr) -> str:
        """``node & 0xFFFFFFFF``, without the mask when it is clean."""
        text, clean = self._lower(node, ring=True)
        return text if clean else f"({text} & {MASK32})"

    def _lower(self, node: ast.expr, ring: bool = False) -> Tuple[str, bool]:
        """Lower ``node`` to ``(source, clean)``.

        With ``ring`` only the value mod 2**32 matters (the caller
        masks it); ``clean`` always describes the emitted source.
        """
        value = self._literal(node)
        if value is not None:
            return repr(value), 0 <= value <= MASK32
        if isinstance(node, ast.Constant):
            return repr(node.value), False
        if isinstance(node, ast.Name):
            if node.id == "NIP":
                return "next_ip", False
            if node.id == "IP":
                return "ip", False
            if node.id in self.field_names:
                return node.id, False
            if node.id in self.locals:
                return self.local_prefix + node.id, False
            raise BehaviorError(
                f"operation {self.op.name!r}: unknown name {node.id!r}"
            )
        if isinstance(node, ast.BinOp):
            return self._binop(node, ring)
        if isinstance(node, ast.UnaryOp):
            inner = ring and isinstance(node.op, (ast.USub, ast.Invert))
            text = self._lower(node.operand, inner)[0]
            return f"({_UNARYOPS[type(node.op)]}{text})", False
        if isinstance(node, ast.BoolOp):
            joiner = " and " if isinstance(node.op, ast.And) else " or "
            text = joiner.join(self.expr(v) for v in node.values)
            return f"({text})", False
        if isinstance(node, ast.Compare):
            return self._compare(node), False
        if isinstance(node, ast.IfExp):
            body, body_clean = self._lower(node.body, ring)
            orelse, orelse_clean = self._lower(node.orelse, ring)
            return (
                f"({body} if {self.expr(node.test)} else {orelse})",
                body_clean and orelse_clean,
            )
        if isinstance(node, ast.Call):
            return self._call_expr(node, ring)
        raise BehaviorError(
            f"operation {self.op.name!r}: unsupported expression "
            f"{type(node).__name__}"
        )

    def _binop(self, node: ast.BinOp, ring: bool) -> Tuple[str, bool]:
        op = node.op
        left = self._literal(node.left)
        right = self._literal(node.right)
        if right == 0 and isinstance(op, _ZERO_RIGHT):
            return self._lower(node.left, ring)
        if right == 1 and isinstance(op, ast.Mult):
            return self._lower(node.left, ring)
        if isinstance(op, ast.BitAnd) and MASK32 in (left, right):
            other = node.left if right == MASK32 else node.right
            return self._mask32(other), True
        ring_op = ring and isinstance(op, _RING_OPS)
        l_text, l_clean = self._lower(
            node.left, ring_op or (ring and isinstance(op, ast.LShift))
        )
        r_text, r_clean = self._lower(node.right, ring_op)
        if isinstance(op, ast.BitAnd):
            clean = l_clean or r_clean
        elif isinstance(op, (ast.BitOr, ast.BitXor)):
            clean = l_clean and r_clean
        else:
            clean = isinstance(op, ast.RShift) and l_clean
        return f"({l_text} {_BINOPS[type(op)]} {r_text})", clean

    def _compare(self, node: ast.Compare) -> str:
        if len(node.ops) == 1:
            left, right = node.left, node.comparators[0]
            op = node.ops[0]
            if _is_s32(left) and _is_s32(right):
                a = self._mask32(left.args[0])
                b = self._mask32(right.args[0])
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    a, b = f"({a} ^ {_SIGN32})", f"({b} ^ {_SIGN32})"
                return f"({a} {_CMPOPS[type(op)]} {b})"
        parts = [self.expr(node.left)]
        for op_, comp in zip(node.ops, node.comparators):
            parts.append(_CMPOPS[type(op_)])
            parts.append(self.expr(comp))
        return "(" + " ".join(parts) + ")"

    def _call_expr(self, node: ast.Call, ring: bool) -> Tuple[str, bool]:
        name = node.func.id  # validated to be ast.Name by parse_behavior
        if name == "R":
            self.uses_regs = True
            reg = self.expr(node.args[0])
            if self.bundle_tail and reg in self.bundle.written:
                return self.bundle.snapshot(reg), True
            return f"regs[{reg}]", True
        if name in _LOADS:
            self.uses_loads.add(name)
            if name == "M4":
                return _LOAD4.format(self._mask32(node.args[0])), True
            return f"{_LOADS[name]}({self.expr(node.args[0])})", True
        if name in _SEXT:
            if name == "s32" and ring:
                return self._lower(node.args[0], True)
            mask, sign = _SEXT[name]
            text, clean = self._lower(node.args[0], True)
            if not (name == "s32" and clean):
                text = f"({text} & {mask})"
            return f"(({text} ^ {sign}) - {sign})", False
        if name in _HELPERS:
            args = ", ".join(self.expr(a) for a in node.args)
            return f"{name}({args})", False
        raise BehaviorError(
            f"operation {self.op.name!r}: {name}() is not a value intrinsic"
        )

    # -- statements ----------------------------------------------------

    def stmt(self, node: ast.stmt, indent: str, out: List[str]) -> None:
        if isinstance(node, ast.Pass):
            out.append(f"{indent}pass")
            return
        if isinstance(node, ast.Assign):
            target = node.targets[0].id  # validated as plain Name
            value = self.expr(node.value)  # before target becomes local
            self.locals.add(target)
            out.append(f"{indent}{self.local_prefix}{target} = {value}")
            return
        if isinstance(node, ast.If):
            out.append(f"{indent}if {self.expr(node.test)}:")
            for sub in node.body:
                self.stmt(sub, indent + "    ", out)
            if node.orelse:
                out.append(f"{indent}else:")
                for sub in node.orelse:
                    self.stmt(sub, indent + "    ", out)
            return
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            self._call_stmt(node.value, indent, out)
            return
        raise BehaviorError(
            f"operation {self.op.name!r}: unsupported statement "
            f"{type(node).__name__}"
        )

    def _call_stmt(self, node: ast.Call, indent: str, out: List[str]) -> None:
        name = node.func.id
        args = node.args
        if self.bundle is not None and name not in ("BR", "JABS"):
            self._bundle_stmt(name, node, indent, out)
            return
        if name == "W":
            reg = self.expr(args[0])
            value = self._mask32(args[1])
            if self.direct:
                # Immediate write; the guard keeps r0 hard-wired to 0
                # (folded away when the target register is a literal).
                if reg.isdigit():
                    if int(reg) != 0:
                        self.uses_regs = True
                        out.append(f"{indent}regs[{reg}] = {value}")
                    return
                self.uses_regs = True
                out.append(f"{indent}if {reg}:")
                out.append(f"{indent}    regs[{reg}] = {value}")
            else:
                out.append(f"{indent}regwr.append(({reg}, {value}))")
        elif name in _STORE_SIZES:
            size = _STORE_SIZES[name]
            addr, value = self.expr(args[0]), self.expr(args[1])
            if self.direct:
                self.uses_stores.add(size)
                out.append(f"{indent}st{size}({addr}, {value})")
            else:
                out.append(f"{indent}memwr.append(({size}, {addr}, {value}))")
        elif name == "BR":
            nip = repr(self.subst["NIP"]) if self.subst else "next_ip"
            out.append(f"{indent}return {nip} + ({self.expr(args[0])} << 2)")
        elif name == "JABS":
            out.append(f"{indent}return {self._mask32(args[0])}")
        elif name == "SWITCH":
            out.append(f"{indent}state.switch_isa({self.expr(args[0])})")
        elif name == "SIM":
            out.append(f"{indent}return state.simop({self.expr(args[0])})")
        elif name == "HALT":
            out.append(f"{indent}state.halted = True")
        else:
            # A value intrinsic used for its side effect — emit as-is.
            out.append(f"{indent}{self.expr(node)}")

    def _bundle_stmt(
        self, name: str, node: ast.Call, indent: str, out: List[str],
    ) -> None:
        """Bundle mode: a W/S whose effect a later operation of the
        bundle could observe computes into temporaries that the bundle
        commits after its last operation; any other writes in place."""
        bundle = self.bundle
        args = node.args
        if name == "W" or name in _STORE_SIZES:
            if self.bundle_tail or indent != bundle.indent:
                # A write the commit could not order statically (under
                # a condition, or after the control transfer).
                raise BehaviorError(
                    f"operation {self.op.name!r}: conditional {name}() "
                    "cannot be bundled"
                )
            if name == "W":
                reg = self.expr(args[0])
                if not reg.isdigit():
                    raise BehaviorError(
                        f"operation {self.op.name!r}: computed register "
                        "write cannot be bundled"
                    )
                if reg == "0":
                    return
                self.uses_regs = True
                bundle.written.add(reg)
                value = self._mask32(args[1])
                if bundle.later_reads is None or reg in bundle.later_reads \
                        or reg in bundle.deferred:
                    temp = bundle.temp()
                    out.append(f"{indent}{temp} = {value}")
                    bundle.writes.append((reg, temp))
                    bundle.deferred.add(reg)
                else:
                    out.append(f"{indent}regs[{reg}] = {value}")
                return
            size = _STORE_SIZES[name]
            self.uses_stores.add(size)
            addr, value = self.expr(args[0]), self.expr(args[1])
            if bundle.later_loads or bundle.stores:
                addr_t, value_t = bundle.temp(), bundle.temp()
                out.append(f"{indent}{addr_t} = {addr}")
                out.append(f"{indent}{value_t} = {value}")
                bundle.stores.append((size, addr_t, value_t))
            else:
                out.append(f"{indent}st{size}({addr}, {value})")
            return
        if name in ("SWITCH", "SIM", "HALT"):
            # Machine-state side effects mid-bundle: buffered only.
            raise BehaviorError(
                f"operation {self.op.name!r}: {name}() cannot be bundled"
            )
        out.append(f"{indent}{self.expr(node)}")


def _is_s32(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "s32"
        and len(node.args) == 1
    )


_BINOPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Mod: "%", ast.LShift: "<<", ast.RShift: ">>",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
}
_UNARYOPS = {ast.USub: "-", ast.Invert: "~", ast.Not: "not "}
_CMPOPS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=",
}


def access_prologue(uses_regs: bool, loads, stores=()) -> List[str]:
    """Prologue lines binding what generated statements access: the
    register file, the ``ldN``/``stN`` aliases of the loads and stores
    (intrinsic names and sizes) and, for open-coded ``M4``, ``_zg``."""
    out: List[str] = []
    if uses_regs:
        out.append("    regs = state.regs")
    for intrinsic in sorted(loads):
        out.append(f"    {_LOADS[intrinsic]} = state.mem.load{intrinsic[1]}")
    if "M4" in loads:
        out.append("    _zg = state.mem._views.get")
    for size in sorted(stores):
        out.append(f"    st{size} = state.mem.store{size}")
    return out


def sim_function_name(op: Operation) -> str:
    return f"sim_{op.name}"


def direct_function_name(op: Operation) -> str:
    return f"simd_{op.name}"


#: Operation kinds that may get a direct variant.  Control-transfer,
#: simop, switch and halt operations always run buffered (they are
#: superblock terminators anyway); NOPs need no function at all.
_DIRECT_KINDS = frozenset(("alu", "load", "store"))

_WRITE_INTRINSICS = frozenset(("W",)) | frozenset(_STORE_SIZES)
_READ_INTRINSICS = frozenset(("R",)) | frozenset(_LOADS)


def _contains_intrinsic(node: ast.AST, names: frozenset) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id in names
        ):
            return True
    return False


def direct_eligible(op: Operation) -> bool:
    """Whether immediate (unbuffered) writes preserve ``op``'s semantics.

    Within one statement Python evaluates a call's arguments before the
    write they feed, so reads *inside* a writing statement are safe.
    Unsafe is only a register/memory read in a *later* statement after
    some earlier statement wrote — buffered semantics would return the
    pre-instruction value, direct writes the new one.  The check walks
    statements in source order (branch arms sequentially, which is
    conservative) and rejects on the first read-after-write.
    """
    if op.kind not in _DIRECT_KINDS:
        return False
    try:
        tree = parse_behavior(op.name, op.behavior)
    except BehaviorError:
        return False

    def scan(stmts, wrote: bool) -> Tuple[bool, bool]:
        """Returns (eligible, wrote_after)."""
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                if wrote and _contains_intrinsic(stmt.test, _READ_INTRINSICS):
                    return False, wrote
                ok, wrote = scan(stmt.body, wrote)
                if not ok:
                    return False, wrote
                ok, wrote = scan(stmt.orelse, wrote)
                if not ok:
                    return False, wrote
                continue
            if wrote and _contains_intrinsic(stmt, _READ_INTRINSICS):
                return False, wrote
            if _contains_intrinsic(stmt, _WRITE_INTRINSICS):
                wrote = True
        return True, wrote

    ok, _ = scan(tree.body, False)
    return ok


def generate_direct_sim_source(op: Operation) -> Optional[str]:
    """Source of the direct variant, or None when not eligible."""
    if not direct_eligible(op):
        return None
    tree = parse_behavior(op.name, op.behavior)
    emitter = _Emitter(op, direct=True)
    body: List[str] = []
    for stmt in tree.body:
        emitter.stmt(stmt, "    ", body)

    prologue = access_prologue(
        emitter.uses_regs, emitter.uses_loads, emitter.uses_stores
    )
    for index, f in enumerate(op.value_fields):
        prologue.append(f"    {f.name} = v[{index}]")

    lines = [f"def {direct_function_name(op)}(state, v, ip, next_ip):"]
    doc = op.behavior.replace("\n", "; ")
    lines.append(f'    """Direct-write variant generated from: {doc}"""')
    lines.extend(prologue)
    lines.extend(body)
    return "\n".join(lines) + "\n"


def compile_direct_sim_function(op: Operation) -> Optional[Callable]:
    """Compile the direct variant; None when the op is not eligible."""
    source = generate_direct_sim_source(op)
    if source is None:
        return None
    namespace: Dict[str, object] = dict(SIM_GLOBALS)
    exec(compile(source, f"<targetgen-direct:{op.name}>", "exec"), namespace)
    return namespace[direct_function_name(op)]


#: Parsed behaviour trees, memoised for the superblock translator (it
#: inlines the same few dozen operations thousands of times; the tree
#: is read-only so sharing is safe).
_PARSE_CACHE: Dict[Tuple[str, str], ast.Module] = {}


def _parse_cached(op: Operation) -> ast.Module:
    key = (op.name, op.behavior)
    tree = _PARSE_CACHE.get(key)
    if tree is None:
        tree = parse_behavior(op.name, op.behavior)
        _PARSE_CACHE[key] = tree
    return tree


#: (lines, uses_regs, load intrinsics, store sizes) per op instance.
InlinedStmts = Tuple[Tuple[str, ...], bool, frozenset, frozenset]

#: Translation memos of :func:`inline_direct_stmts` and
#: :func:`inline_bundle_stmts`.  Bounded, oldest first out, so a
#: long-lived process (a fuzz campaign, a serve worker) translating
#: program after program does not grow without end.  The seven bundled
#: programs' pinned mixed-ISA builds, AOT-compiled in every namespace
#: and run in one process, fill 551 and 819 entries.
_INLINE_CACHE: Dict[Tuple, InlinedStmts] = {}
_INLINE_CACHE_CAP = 2048
_USES_IP: Dict[Tuple[str, str], bool] = {}


def inline_direct_stmts(
    op: Operation,
    values: Tuple[int, ...],
    ip: int,
    next_ip: int,
    *,
    indent: str = "    ",
) -> InlinedStmts:
    """Inline one op *instance* as direct-write statements.

    The superblock translator calls this for every instruction of a
    straight-line body: decoded field values, the instruction address
    and its successor are substituted as integer literals, turning the
    whole block into one flat Python function with no per-instruction
    calls.  The caller must have checked eligibility (the op's
    ``direct_fn`` is not None).

    Behaviour-local variables get a fixed ``_t_`` prefix: validation
    guarantees locals are assigned before read, so re-using the names
    across inlined instructions is safe.  Results are memoised per
    ``(op, values)`` — real programs repeat the same instruction
    encodings constantly — except for the rare behaviour that mentions
    ``IP``/``NIP``, whose literals differ per address.
    """
    op_key = (op.name, op.behavior)
    uses_ip = _uses_ip(op)
    if not uses_ip:
        key = (op_key, values, indent)
        cached = _INLINE_CACHE.get(key)
        if cached is not None:
            return cached
    tree = _parse_cached(op)
    subst = {f.name: values[index] for index, f in enumerate(op.value_fields)}
    subst["IP"] = ip
    subst["NIP"] = next_ip
    emitter = _Emitter(op, direct=True, subst=subst, local_prefix="_t_")
    out: List[str] = []
    for stmt in tree.body:
        emitter.stmt(stmt, indent, out)
    result: InlinedStmts = (
        tuple(out),
        emitter.uses_regs,
        frozenset(emitter.uses_loads),
        frozenset(emitter.uses_stores),
    )
    if not uses_ip:
        if len(_INLINE_CACHE) >= _INLINE_CACHE_CAP:
            del _INLINE_CACHE[next(iter(_INLINE_CACHE))]  # the oldest
        _INLINE_CACHE[(op_key, values, indent)] = result
    return result


class _Bundle:
    """Emission state shared by the operations of one bundle."""

    def __init__(self, indent: str) -> None:
        self.indent = indent
        #: ``(register literal, temporary)`` in slot order: the commit.
        self.writes: List[Tuple[str, str]] = []
        #: ``(size, address temporary, value temporary)`` in slot order.
        self.stores: List[Tuple[int, str, str]] = []
        #: Register literals the bundle writes, and those it commits.
        self.written: set = set()
        self.deferred: set = set()
        #: What the operations after the current one read: register
        #: literals (None: unknown, so any) and whether they load.
        self.later_reads: Optional[set] = set()
        self.later_loads = False
        #: Pre-commit register snapshots the tail reads.
        self.snapshots: Dict[str, str] = {}
        self._n = 0

    def temp(self) -> str:
        name = f"_b{self._n}"
        self._n += 1
        return name

    def snapshot(self, reg: str) -> str:
        local = self.snapshots.get(reg)
        if local is None:
            local = self.snapshots[reg] = f"_bs{reg}"
        return local


_CONTROL_INTRINSICS = frozenset(("BR", "JABS"))

_BUNDLE_CACHE: Dict[Tuple, Optional[InlinedStmts]] = {}
_BUNDLE_CACHE_CAP = 2048


def _resolve_literal(
    node: ast.expr, fields: Dict[str, int]
) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        return fields.get(node.id)
    return None


def _collect_reads(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            if sub.func.id == "R":
                yield ("reg", sub.args[0])
            elif sub.func.id in _LOADS:
                yield ("mem", None)


def _bundle_reads(stmts, fields: Dict[str, int]):
    """``(register literals read or None if unknown, loads memory)``."""
    regs: Optional[set] = set()
    loads = False
    for stmt in stmts:
        for kind, arg in _collect_reads(stmt):
            if kind == "mem":
                loads = True
                continue
            reg = _resolve_literal(arg, fields)
            if reg is None:
                regs = None
            elif regs is not None:
                regs.add(str(reg))
    return regs, loads


def _uses_ip(op: Operation) -> bool:
    """Whether ``op``'s lowering depends on its address (``IP``/``NIP``
    or a relative ``BR``), which rules out memoising it."""
    op_key = (op.name, op.behavior)
    uses_ip = _USES_IP.get(op_key)
    if uses_ip is None:
        uses_ip = any(
            (isinstance(node, ast.Name) and node.id in ("IP", "NIP"))
            or (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "BR")
            for node in ast.walk(_parse_cached(op))
        )
        _USES_IP[op_key] = uses_ip
    return uses_ip


def inline_bundle_stmts(
    ops,
    ip: int,
    next_ip: int,
    *,
    indent: str = "    ",
) -> Optional[InlinedStmts]:
    """Inline one multi-operation instruction (a VLIW bundle).

    ``ops`` holds the bundle's executed operations as ``(op, values)``
    pairs in slot order.  The emitted statements are, in order:

    * every operation's computation, in slot order — register reads
      see the pre-bundle values, loads read memory before any store of
      the bundle.  A register or memory write that a later operation
      could observe goes to bundle-local temporaries; any other write
      is made in place (writes to r0 are dropped);
    * the deferred register writes in slot order;
    * the deferred stores in slot order;
    * when the bundle holds a branch: the branch's return paths and a
      trailing ``return next_ip``, so every path returns the next IP.
      They run after the write-back, so a register the bundle writes
      is read from a snapshot taken before it.

    A lone operation is a one-operation bundle: a superblock's branch
    terminator inlines here whether or not other operations share its
    instruction, and ``jalr rd, rd`` reads its link register's old
    value from the snapshot.

    None when an operation cannot be bundled (machine-control
    intrinsics, writes under a condition or after the control
    transfer): the instruction keeps the buffered path.
    """
    key = None
    if not any(_uses_ip(op) for op, _ in ops):
        key = (
            tuple((op.name, op.behavior, values) for op, values in ops),
            indent,
        )
        if key in _BUNDLE_CACHE:
            return _BUNDLE_CACHE[key]
    bundle = _Bundle(indent)
    compute: List[str] = []
    tail: List[str] = []
    controls = []
    emitters = []
    try:
        # Split each operation into its computation and its control
        # transfer, and note what each computation reads.
        split = []
        for op, values in ops:
            fields = {
                f.name: values[i] for i, f in enumerate(op.value_fields)
            }
            body, control = [], []
            for stmt in _parse_cached(op).body:
                if _contains_intrinsic(stmt, _CONTROL_INTRINSICS):
                    control.append(stmt)
                elif control:
                    raise BehaviorError(
                        f"operation {op.name!r}: statement after the "
                        "control transfer cannot be bundled"
                    )
                else:
                    body.append(stmt)
            split.append((op, fields, body, control,
                          _bundle_reads(body, fields)))
        for index, (op, fields, body, control, _reads) in enumerate(split):
            # Reads of this operation's own later statements count too.
            later = split[index + 1:] if len(body) < 2 else split[index:]
            bundle.later_reads = set()
            bundle.later_loads = False
            for *_rest, (regs_read, loads_mem) in later:
                if regs_read is None or bundle.later_reads is None:
                    bundle.later_reads = None
                else:
                    bundle.later_reads |= regs_read
                bundle.later_loads = bundle.later_loads or loads_mem
            subst = dict(fields, IP=ip, NIP=next_ip)
            emitter = _Emitter(
                op, direct=True, subst=subst,
                local_prefix=f"_t{index}_", bundle=bundle,
            )
            emitters.append(emitter)
            for stmt in body:
                emitter.stmt(stmt, indent, compute)
            if control:
                controls.append((emitter, control))
        if len(controls) > 1:
            raise BehaviorError("more than one control operation")
        for emitter, control in controls:
            emitter.bundle_tail = True
            for stmt in control:
                emitter.stmt(stmt, indent, tail)
    except BehaviorError:
        result = None
    else:
        lines = [
            f"{indent}{local} = regs[{reg}]"
            for reg, local in bundle.snapshots.items()
        ]
        lines.extend(compute)
        for reg, temp in bundle.writes:
            lines.append(f"{indent}regs[{reg}] = {temp}")
        for size, addr, value in bundle.stores:
            lines.append(f"{indent}st{size}({addr}, {value})")
        if controls:
            lines.extend(tail)
            lines.append(f"{indent}return {next_ip}")
        loads: set = set()
        stores: set = set()
        uses_regs = False
        for emitter in emitters:
            uses_regs = uses_regs or emitter.uses_regs
            loads |= emitter.uses_loads
            stores |= emitter.uses_stores
        result = (
            tuple(lines), uses_regs, frozenset(loads), frozenset(stores)
        )
    if key is not None:
        if len(_BUNDLE_CACHE) >= _BUNDLE_CACHE_CAP:
            del _BUNDLE_CACHE[next(iter(_BUNDLE_CACHE))]  # the oldest
        _BUNDLE_CACHE[key] = result
    return result


def generate_sim_function_source(op: Operation) -> str:
    """Generate the Python source of one operation's simulation function."""
    tree = parse_behavior(op.name, op.behavior)
    emitter = _Emitter(op)
    body: List[str] = []
    for stmt in tree.body:
        emitter.stmt(stmt, "    ", body)

    prologue = access_prologue(emitter.uses_regs, emitter.uses_loads)
    for index, f in enumerate(op.value_fields):
        prologue.append(f"    {f.name} = v[{index}]")

    lines = [f"def {sim_function_name(op)}(state, v, ip, next_ip, regwr, memwr):"]
    doc = op.behavior.replace("\n", "; ")
    lines.append(f'    """Generated from ADL behaviour: {doc}"""')
    lines.extend(prologue)
    lines.extend(body)
    if not body or not body[-1].lstrip().startswith("return"):
        lines.append("    return None")
    return "\n".join(lines) + "\n"


def compile_sim_function(op: Operation) -> Callable:
    """Compile one operation's behaviour into its simulation function."""
    source = generate_sim_function_source(op)
    namespace: Dict[str, object] = dict(SIM_GLOBALS)
    exec(compile(source, f"<targetgen:{op.name}>", "exec"), namespace)
    return namespace[sim_function_name(op)]
