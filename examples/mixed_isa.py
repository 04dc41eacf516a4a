#!/usr/bin/env python3
"""Mixed-ISA execution: per-function instruction formats in one binary.

Demonstrates the paper's headline feature (Sections III-V): the
processor reconfigures its instruction format at runtime via the
``switchtarget`` operation.  The compiler prefixes function symbols
with their ISA, and cross-ISA calls run through generated thunks that
switch the format, call, and switch back.
"""

from repro import build, run
from repro.cycles import DoeModel

SOURCE = """\
// A parallel kernel (worth a wide VLIW) called from control-heavy
// driver code (cheapest on RISC).
int data[256];

int kernel(int *x, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 4) {
        int a = x[i] * 3 + 1;
        int b = x[i + 1] * 5 + 2;
        int c = x[i + 2] * 7 + 3;
        int d = x[i + 3] * 9 + 4;
        acc += (a ^ b) + (c ^ d);
    }
    return acc;
}

int main() {
    for (int i = 0; i < 256; i++) {
        data[i] = i * 13 + 7;
    }
    int total = 0;
    for (int round = 0; round < 4; round++) {
        total += kernel(data, 256);
    }
    print_int(total);
    putchar('\\n');
    return 0;
}
"""


def simulate(label: str, **build_kwargs) -> None:
    built = build(SOURCE, filename="mixed.kc", **build_kwargs)
    result = run(built,
                 cycle_model=DoeModel(issue_width=built.widest_issue_width))
    print(f"{label:28} output={result.output.strip():>10} "
          f"cycles={result.cycles:>7} "
          f"isa-switches={result.stats.isa_switches}")


def main() -> None:
    print("same program, three configurations:\n")
    simulate("all RISC", isa="risc")
    simulate("all VLIW4", isa="vliw4")
    simulate("mixed: kernel on VLIW4", isa="risc",
             isa_map={"kernel": "vliw4"})
    print(
        "\nThe mixed build keeps main on the 1-EDPE RISC format and only\n"
        "reconfigures to the 4-EDPE VLIW format while the kernel runs —\n"
        "the resource/performance trade-off KAHRISMA is designed for."
    )


if __name__ == "__main__":
    main()
