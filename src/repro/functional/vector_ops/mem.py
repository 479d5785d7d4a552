"""Vector memory access semantics (VLSU instructions).

Loads and stores move raw bytes — signedness never matters at this level,
so all data travels in unsigned views of the effective element width (EEW).
The EEW of ``vle32`` under SEW=64 differs from SEW; per RVV 1.0 the
effective LMUL is rescaled as ``EMUL = EEW/SEW * LMUL``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import IllegalInstructionError
from ...isa.instructions import MemPattern


@dataclass(frozen=True)
class MemShape:
    """Decoded shape of a vector memory instruction."""

    ew_bytes: int
    emul: int  # effective LMUL of the data register group
    count: int  # elements moved (or bytes for mask loads)


def eew_from_mnemonic(mnemonic: str) -> int:
    """Extract the encoded element width in bits (vle64_v -> 64)."""
    digits = "".join(ch for ch in mnemonic.split("_")[0] if ch.isdigit())
    if not digits:
        raise IllegalInstructionError(f"{mnemonic} has no element width")
    return int(digits)


def data_shape(mnemonic: str, pattern: MemPattern, vl: int, sew: int,
               lmul: int) -> MemShape:
    """Resolve EEW/EMUL/element count for a memory instruction."""
    if pattern is MemPattern.MASK:
        # vlm/vsm move ceil(vl/8) bytes into the mask layout, EMUL=1.
        return MemShape(ew_bytes=1, emul=1, count=(vl + 7) // 8)
    eew = eew_from_mnemonic(mnemonic)
    if pattern is MemPattern.INDEXED:
        # Indexed accesses use SEW-wide data; the mnemonic width is the
        # *index* EEW, handled separately by the engine.
        return MemShape(ew_bytes=sew // 8, emul=lmul, count=vl)
    emul = max(1, eew * lmul // sew)
    if eew * lmul % sew and eew * lmul // sew == 0:
        emul = 1  # fractional EMUL collapses to one register here
    return MemShape(ew_bytes=eew // 8, emul=emul, count=vl)
