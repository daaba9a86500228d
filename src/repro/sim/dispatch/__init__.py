"""Strategy dispatch: the calibrated cost model behind ``"auto"``.

:mod:`repro.sim.dispatch.cost` ranks the execution rungs of
:data:`repro.sim.strategies.LADDER` for one (ops, batch, tally) request;
``backend="auto"`` and ``strategy="auto"`` consult it.  This package also
keeps :func:`program_is_flat`, a structural query on compiled programs.
"""

from __future__ import annotations

from typing import Any

__all__ = ["program_is_flat"]


def program_is_flat(program: Any) -> bool:
    """True when every sampling instruction sits at branch depth 0.

    Sampling sites are MBU headers and X-basis measurements — the
    instructions that consume the outcome stream.  When all of them are at
    the top level, every lane window of the batch reaches every event
    exactly once.  All builder-emitted circuits are flat (MBU blocks open
    at top level; their bodies contain no measurements).  Z measurements
    draw nothing and may nest freely.
    """
    from ...transform.compile import (  # deferred: transform sits above sim
        OP_COND,
        OP_ENDCOND,
        OP_ENDMBU,
        OP_MBU,
        OP_MX,
    )

    scalar = getattr(program, "scalar", program)
    depth = 0
    for instr in scalar.instructions:
        op = instr[0]
        if op == OP_COND:
            depth += 1
        elif op == OP_MBU:
            if depth:
                return False
            depth += 1
        elif op == OP_ENDCOND or op == OP_ENDMBU:
            depth -= 1
        elif op == OP_MX and depth:
            return False
    return True
