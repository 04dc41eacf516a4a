"""The benchmark workloads of the paper's evaluation (Section VII).

Seven KC programs mirroring (and extending) the paper's benchmark
set: ``cjpeg`` / ``djpeg`` (JPEG-style encoder/decoder), ``fft``
(recursive fixed-point FFT), ``qsort`` (Quicksort), ``aes`` (fully
unrolled AES-128), ``dct4x4`` (H.264 4x4 integer DCT) and ``crc32``
(table-driven CRC-32, a serial table-lookup chain).  Sources are
packaged as ``.kc`` files and regenerated by
``tools/gen_programs.py``.
"""

from __future__ import annotations

import os
from typing import Tuple

_HERE = os.path.dirname(__file__)

#: Program name -> short description (the paper's benchmark table).
PROGRAMS = {
    "cjpeg": "JPEG-style image encoder (MiBench cjpeg stand-in)",
    "djpeg": "JPEG-style image decoder (MiBench djpeg stand-in)",
    "fft": "fixed-point recursive radix-2 FFT",
    "qsort": "recursive Quicksort",
    "aes": "fully unrolled AES-128 (T-table)",
    "dct4x4": "H.264 4x4 integer DCT, fully unrolled",
    "crc32": "table-driven CRC-32 (IEEE 802.3), zlib-compatible",
}

#: Per-function ISA maps that ``repro.framework.selection.select_isas``
#: (defaults) picks for two programs: mixed-ISA builds, VLIW2-8
#: bundles beside RISC code, that the engine test matrix and the
#: determinism gate run beside the all-RISC builds.
PINNED_ISA_MAPS = {
    "cjpeg": {"fdct8x8": "vliw6", "encode_image": "vliw2",
              "fill_image": "vliw6", "main": "vliw4"},
    "dct4x4": {"dct4x4": "vliw8", "main": "vliw4",
               "dequant_block": "vliw4", "quant_block": "vliw6",
               "idct4x4": "vliw8"},
}


def program_names() -> Tuple[str, ...]:
    return tuple(PROGRAMS)


def program_path(name: str) -> str:
    if name not in PROGRAMS:
        raise KeyError(f"unknown program {name!r}; have {sorted(PROGRAMS)}")
    return os.path.join(_HERE, f"{name}.kc")


def load_program(name: str) -> str:
    """Return the KC source text of a benchmark program."""
    with open(program_path(name), "r", encoding="utf-8") as f:
        return f.read()
