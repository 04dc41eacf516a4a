"""Memory hierarchy approximation (paper Section VI-D).

The delay of each memory access is approximated *in program order* (the
order of the instruction stream executed by the behavioural model), not
in the order the hardware would execute them.  The hierarchy is built
from three module types sharing one interface — a function that maps a
memory access to its completion cycle:

* :class:`MainMemory` — fixed access delay;
* :class:`Cache` — n-way set-associative, write-back, LRU, its lines
  kept in flat per-way lists plus a block-to-way dict (a hit is one dict
  probe).  Because the delay function can be called out of order, every
  line stores the cycle it was written; a hit completes no earlier;
* :class:`ConnectionLimit` — models the limited number of access ports
  of a cache/memory by pushing the start (and completion) cycle to the
  next cycle with a free port.

Cache and connection-limit modules hold a pointer to the submodule next
in the hierarchy and pass misses/write-backs down the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

MASK32 = 0xFFFFFFFF


class MemoryModule:
    """Interface: compute the completion cycle of one memory access."""

    def access(self, addr: int, is_write: bool, slot: int, start: int) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all timing/content state (new simulation run)."""

    def reset_timing(self) -> None:
        """Zero absolute-cycle timestamps, keep content and statistics.

        The sampling tier re-bases the cycle clock to zero at each
        measured interval (:meth:`repro.cycles.base.CycleModel.reset_timing`).
        Levels that remember *when* something happened (cache line
        availability, port reservations) must clear those timestamps —
        they refer to a dead timeline — while keeping *what* happened
        (tags, LRU order, hit/miss counters).
        """


class MainMemory(MemoryModule):
    """Backing store with a fixed, configurable access delay."""

    def __init__(self, delay: int = 18) -> None:
        self.delay = delay
        self.accesses = 0

    def access(self, addr: int, is_write: bool, slot: int, start: int) -> int:
        self.accesses += 1
        return start + self.delay

    def reset(self) -> None:
        self.accesses = 0


class Cache(MemoryModule):
    """n-way set-associative cache, write-back policy, LRU replacement."""

    def __init__(
        self,
        *,
        size: int,
        line_size: int = 32,
        assoc: int = 4,
        delay: int = 3,
        sub: Optional[MemoryModule] = None,
        name: str = "cache",
    ) -> None:
        if size % (line_size * assoc) != 0:
            raise ValueError("cache size must be a multiple of line*assoc")
        self.size = size
        self.line_size = line_size
        self.assoc = assoc
        self.delay = delay
        self.sub = sub if sub is not None else MainMemory()
        self.name = name
        self.num_sets = size // (line_size * assoc)
        self._clear()

    def _clear(self) -> None:
        ways = self.num_sets * self.assoc
        #: Per-way line state, indexed ``set * assoc + way``: resident
        #: block number (-1 when invalid), dirty flag, the cycle the
        #: line's data became available in this cache, and LRU stamp.
        self._block = [-1] * ways
        self._dirty = [False] * ways
        self._fill = [0] * ways
        self._lru = [0] * ways
        #: Block number -> way index of every valid line.
        self._where: Dict[int, int] = {}
        self._lru_clock = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- statistics -------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self._clear()
        self.sub.reset()

    def reset_timing(self) -> None:
        self._fill = [0] * len(self._fill)
        self.sub.reset_timing()

    # -- the delay function (paper Section VI-D) ---------------------------

    def access(self, addr: int, is_write: bool, slot: int, start: int) -> int:
        block = (addr & MASK32) // self.line_size
        self._lru_clock += 1
        current = start + self.delay
        way = self._where.get(block)
        if way is not None:
            self.hits += 1
            self._lru[way] = self._lru_clock
            if is_write:
                self._dirty[way] = True
            # Out-of-order tolerance: the hit cannot complete before
            # the cycle the line was actually filled.
            fill = self._fill[way]
            return fill if fill > current else current

        # Miss: fetch the line from the next hierarchy level.  The
        # victim is the set's first way with the oldest LRU stamp
        # (invalid ways carry stamp 0, so they go first).
        self.misses += 1
        lru = self._lru
        base = block % self.num_sets * self.assoc
        victim = min(range(base, base + self.assoc), key=lru.__getitem__)
        current = self.sub.access(addr, False, slot, current)
        evicted = self._block[victim]
        if evicted >= 0:
            del self._where[evicted]
            if self._dirty[victim]:
                # Write the evicted line back, a second subaccess.
                self.writebacks += 1
                current = self.sub.access(
                    evicted * self.line_size, True, slot, current
                )
        # Store the fetched data into the cache: pay the delay again.
        current += self.delay
        self._block[victim] = block
        self._where[block] = victim
        self._dirty[victim] = is_write
        self._fill[victim] = current
        lru[victim] = self._lru_clock
        return current


class ConnectionLimit(MemoryModule):
    """Port-count limit in front of a cache or memory module.

    Tracks per-cycle port usage; an access whose start cycle has no
    free port is pushed to the next free cycle (Section VI-D).

    ``reserve_completion`` selects the port semantics: the paper
    applies the same mechanism to the completion cycle returned by the
    submodule, which models a *blocking* single-ported array (request
    and response occupy the port; sustained throughput 1 access per 2
    cycles when saturated).  With ``False`` the cache is treated as
    pipelined — one new request per port and cycle, responses free —
    which is what the RTL reference implements; the ablation bench
    quantifies the difference.
    """

    #: Prune bookkeeping when it grows past this many cycles.
    _PRUNE_THRESHOLD = 1 << 16

    def __init__(self, ports: int, sub: MemoryModule,
                 *, reserve_completion: bool = False) -> None:
        if ports < 1:
            raise ValueError("a connection needs at least one port")
        self.ports = ports
        self.sub = sub
        self.reserve_completion = reserve_completion
        self._usage: Dict[int, int] = {}
        self._horizon = 0  # highest start cycle seen (for pruning)
        self.stalls = 0

    def _reserve(self, cycle: int) -> int:
        usage = self._usage
        while usage.get(cycle, 0) >= self.ports:
            cycle += 1
            self.stalls += 1
        usage[cycle] = usage.get(cycle, 0) + 1
        return cycle

    def _prune(self) -> None:
        # Accesses arrive roughly in program order; entries far behind
        # the horizon can never be queried again (register dependencies
        # bound how far back an out-of-order call can reach).
        if len(self._usage) > self._PRUNE_THRESHOLD:
            floor = self._horizon - self._PRUNE_THRESHOLD // 2
            self._usage = {c: n for c, n in self._usage.items() if c >= floor}

    def access(self, addr: int, is_write: bool, slot: int, start: int) -> int:
        start = self._reserve(start)
        if start > self._horizon:
            self._horizon = start
            self._prune()
        completion = self.sub.access(addr, is_write, slot, start)
        if self.reserve_completion:
            completion = self._reserve(completion)
        return completion

    def reset(self) -> None:
        self._usage.clear()
        self._horizon = 0
        self.stalls = 0
        self.sub.reset()

    def reset_timing(self) -> None:
        # Port reservations are pure timing: every key is an absolute
        # cycle on the timeline being abandoned.  The stall counter is
        # a statistic and survives.
        self._usage.clear()
        self._horizon = 0
        self.sub.reset_timing()


@dataclass(frozen=True)
class HierarchyConfig:
    """Parameters of the three-level hierarchy used in the paper (§VII)."""

    l1_size: int = 2 * 1024
    l1_assoc: int = 4
    l1_delay: int = 3
    l1_ports: int = 1
    l2_size: int = 256 * 1024
    l2_assoc: int = 4
    l2_delay: int = 6
    main_delay: int = 18
    line_size: int = 32
    #: Blocking (True, the paper's wording) vs pipelined (False) L1
    #: port semantics; see :class:`ConnectionLimit`.
    l1_blocking_port: bool = False


def build_hierarchy(config: HierarchyConfig = HierarchyConfig()) -> MemoryModule:
    """Build the paper's L1 / L2 / main-memory chain with an L1 port limit."""
    main = MainMemory(config.main_delay)
    l2 = Cache(
        size=config.l2_size,
        line_size=config.line_size,
        assoc=config.l2_assoc,
        delay=config.l2_delay,
        sub=main,
        name="L2",
    )
    l1 = Cache(
        size=config.l1_size,
        line_size=config.line_size,
        assoc=config.l1_assoc,
        delay=config.l1_delay,
        sub=l2,
        name="L1",
    )
    return ConnectionLimit(
        config.l1_ports, l1,
        reserve_completion=config.l1_blocking_port,
    )


def hierarchy_signature(module: MemoryModule) -> str:
    """Stable configuration string of a hierarchy chain.

    Part of a cycle model's :meth:`~repro.cycles.base.CycleModel.
    config_signature`, which namespaces fused plan-cache variants:
    include every parameter that could ever be folded into emitted
    timing code, so a config change can never resurrect stale code.
    """
    parts: List[str] = []
    current: Optional[MemoryModule] = module
    while current is not None:
        if isinstance(current, Cache):
            parts.append(
                f"cache({current.name},{current.size},{current.line_size},"
                f"{current.assoc},{current.delay})"
            )
        elif isinstance(current, ConnectionLimit):
            parts.append(
                f"port({current.ports},{int(current.reserve_completion)})"
            )
        elif isinstance(current, MainMemory):
            parts.append(f"main({current.delay})")
        else:
            parts.append(type(current).__name__)
        current = getattr(current, "sub", None)
    return ">".join(parts)


def save_hierarchy_state(module: MemoryModule) -> List[Dict[str, object]]:
    """Serialise a hierarchy chain to plain data, one dict per level.

    Walks the ``.sub`` chain top-down; :func:`load_hierarchy_state`
    replays the list onto an identically configured chain.  Cache
    content is stored as one flat row per *valid* line (invalid lines
    are the construction default), so short runs checkpoint compactly.
    """
    levels: List[Dict[str, object]] = []
    current: Optional[MemoryModule] = module
    while current is not None:
        if isinstance(current, Cache):
            lines = []
            assoc, num_sets = current.assoc, current.num_sets
            for index, block in enumerate(current._block):
                if block >= 0:
                    set_index, way = divmod(index, assoc)
                    lines.append([set_index, way, block // num_sets,
                                  int(current._dirty[index]),
                                  current._fill[index], current._lru[index]])
            levels.append({
                "kind": "cache",
                "name": current.name,
                "num_sets": current.num_sets,
                "assoc": current.assoc,
                "lines": lines,
                "lru_clock": current._lru_clock,
                "hits": current.hits,
                "misses": current.misses,
                "writebacks": current.writebacks,
            })
        elif isinstance(current, ConnectionLimit):
            levels.append({
                "kind": "port",
                "ports": current.ports,
                "usage": {str(c): n for c, n in current._usage.items()},
                "horizon": current._horizon,
                "stalls": current.stalls,
            })
        elif isinstance(current, MainMemory):
            levels.append({
                "kind": "main",
                "accesses": current.accesses,
            })
        else:
            raise ValueError(
                f"cannot checkpoint memory module {type(current).__name__}"
            )
        current = getattr(current, "sub", None)
    return levels


def load_hierarchy_state(
    module: MemoryModule, levels: List[Dict[str, object]]
) -> None:
    """Inverse of :func:`save_hierarchy_state` on a same-shaped chain."""
    current: Optional[MemoryModule] = module
    for level in levels:
        kind = level["kind"]
        if current is None:
            raise ValueError("checkpoint has more hierarchy levels than "
                             "the configured model")
        if isinstance(current, Cache):
            if kind != "cache" or (
                current.num_sets != level["num_sets"]
                or current.assoc != level["assoc"]
            ):
                raise ValueError(
                    f"hierarchy mismatch at {current.name!r}: checkpoint "
                    f"level is {kind!r} "
                    f"({level.get('num_sets')}x{level.get('assoc')})"
                )
            current._clear()
            for set_index, way, tag, dirty, write_cycle, lru in level["lines"]:
                index = set_index * current.assoc + way
                block = tag * current.num_sets + set_index
                current._block[index] = block
                current._where[block] = index
                current._dirty[index] = bool(dirty)
                current._fill[index] = write_cycle
                current._lru[index] = lru
            current._lru_clock = int(level["lru_clock"])
            current.hits = int(level["hits"])
            current.misses = int(level["misses"])
            current.writebacks = int(level["writebacks"])
        elif isinstance(current, ConnectionLimit):
            if kind != "port" or current.ports != level["ports"]:
                raise ValueError(
                    f"hierarchy mismatch: expected a {level['ports']}-port "
                    f"connection, found {type(current).__name__}"
                )
            current._usage = {int(c): int(n)
                              for c, n in level["usage"].items()}
            current._horizon = int(level["horizon"])
            current.stalls = int(level["stalls"])
        elif isinstance(current, MainMemory):
            if kind != "main":
                raise ValueError("hierarchy mismatch at main memory")
            current.accesses = int(level["accesses"])
        else:
            raise ValueError(
                f"cannot restore memory module {type(current).__name__}"
            )
        current = getattr(current, "sub", None)
    if current is not None:
        raise ValueError("checkpoint has fewer hierarchy levels than "
                         "the configured model")


def find_cache(module: MemoryModule, name: str) -> Optional[Cache]:
    """Walk a hierarchy chain and return the cache called ``name``."""
    current: Optional[MemoryModule] = module
    while current is not None:
        if isinstance(current, Cache) and current.name == name:
            return current
        current = getattr(current, "sub", None)
    return None
