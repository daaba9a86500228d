"""Fused execution kernels for compiled bit-plane programs.

This module turns a :class:`~repro.transform.compile.FusedProgram` into
machine-efficient execution, two ways:

**Generated straight-line kernels** (:func:`build_kernel`, the default).
The scope tree is compiled *once per program* into one Python function of
straight-line bigint arithmetic: every plane becomes a local variable,
branch scopes become nested ``if`` blocks on bigint masks, and the whole
instruction stream runs with zero interpreter dispatch — no program
counter, no tuple unpacking, no per-instruction tally bookkeeping.  Three
specializations make this more than dispatch removal:

* *Full-mask elision* — code at branch depth 0 always runs with the
  all-lanes mask, and plane integers never carry bits at or above
  ``batch`` (an invariant every operation preserves), so the ``& mask``
  that dominates a masked bigint update disappears from the top-level
  stream: ``cx`` becomes a single bigint XOR.
* *Swap renaming* — a full-mask ``swap`` exchanges two local variable
  bindings at *codegen* time and emits no runtime code at all.
* *Per-scope tally events* — executed-gate accounting reduces to one
  ``(scope_id, mask)`` event per dynamic scope entry; totals are
  reconstructed afterwards from the program's static per-scope counts.
  The same events drive exact per-lane ``lane_counts`` tracking.

**Generated straight-line numpy kernels** (:func:`build_vector_kernel`,
``strategy="vector"``).  The same once-per-program code generation, but
over the simulator's packed ``(qubits, words)`` uint64 plane matrix
instead of bigints: plane rows become local array views mutated with
in-place ufuncs (``out=``), long same-opcode runs become fancy-indexed
gather/scatter blocks over preallocated scratch, full-mask ``& mask``
is elided at branch depth 0 (the plane-rows-never-carry-invalid-bits
invariant), and a depth-0 ``swap`` is a codegen-time row renaming
resolved by one final permutation write.  Scratch lives on the
*simulator* (grown monotonically, reused across ``reset()`` and
Monte-Carlo repetitions), so the steady state allocates nothing but
measurement outcome packs.  This is the rung that beats the bigint
kernels at wide batches: ``benchmarks/BENCH_dispatch.json`` records the
measured crossover, and ``strategy="auto"`` consults the calibrated cost
model in
:mod:`repro.sim.dispatch.cost` to pick between the two.  See
``docs/performance.md``.

Layering note: this module lives in :mod:`repro.sim` but executes
:mod:`repro.transform` programs, so transform types are imported lazily
inside functions (the transform package imports ``repro.sim.classical``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import numpy as np

__all__ = [
    "build_kernel",
    "generate_source",
    "build_vector_kernel",
    "generate_vector_source",
    "run_fused_vector",
]


def _opcodes():
    from ..transform import compile as tc  # deferred: transform sits above sim

    return tc


# --------------------------------------------------------------------------- #
# generated straight-line kernels (the default fused path)


def _census(fused):
    """Which planes/bits the program touches (needs locals / a write-back)."""
    tc = _opcodes()
    used: set = set()
    written: set = set()
    used_bits: set = set()
    written_bits: set = set()
    stack = [fused.root]
    while stack:
        scope = stack.pop()
        if scope.kind == "mbu":
            used.add(scope.header[0])
            written.add(scope.header[0])
            used_bits.add(scope.header[1])
            written_bits.add(scope.header[1])
        elif scope.kind == "cond":
            used_bits.add(scope.header[0])
        for kind, item in scope.items:
            if kind == "run":
                used.update(int(v) for v in item.operands.ravel())
                written.update(
                    int(item.operands[row, col])
                    for col in (i - 1 for i in tc._RUN_WRITES[item.opcode])
                    for row in range(item.count)
                )
            elif kind == "instr":
                op = item[0]
                if op == tc.OP_MZ or op == tc.OP_MX:
                    used.add(item[1])
                    if op == tc.OP_MX:
                        written.add(item[1])
                    used_bits.add(item[2])
                    written_bits.add(item[2])
                elif op == tc.OP_NOISE:
                    used.add(item[1])
                    written.add(item[1])
                else:
                    used.update(item[1:])
                    written.update(item[i] for i in tc._RUN_WRITES[op])
            else:
                stack.append(item)
    return used, written, used_bits, written_bits


def generate_source(fused, *, events: bool, func_name: str = "_fused_kernel") -> str:
    """Python source of the straight-line kernel for ``fused`` (see
    :func:`build_kernel` for the callable and its metadata)."""
    return _generate(fused, events=events, func_name=func_name)[0]


def _generate(fused, *, events: bool, func_name: str = "_fused_kernel"):
    """Generate the kernel source plus its plane/bit usage metadata.

    The generated function has signature
    ``(P, B, _m0, _batch, _sample, _ev, _noise=None)``: ``P`` is the list
    of per-qubit plane bigints (mutated via write-back), ``B`` the list of
    classical-bit plane bigints (mutated in place), ``_m0`` the all-lanes
    mask ``(1 << batch) - 1`` (callers must pass exactly that — depth-0
    code relies on it), ``_sample`` the engine's ``sample_lanes``, ``_ev``
    a list collecting ``(scope_id, mask)`` tally events (ignored when the
    kernel was generated with ``events=False``) and ``_noise`` the bit-flip
    channel draw ``lanes -> flip mask`` (``None`` disables every noise
    point — the same kernel source serves both).
    """
    tc = _opcodes()
    used, written, used_bits, written_bits = _census(fused)
    var = {q: f"p{q}" for q in sorted(used)}
    lines: List[str] = [
        f"def {func_name}(P, B, _m0, _batch, _sample, _ev, _noise=None):"
    ]
    for q in sorted(used):
        lines.append(f"    p{q} = P[{q}]")
    if events:
        lines.append("    _ev.append((0, _m0))")

    def emit_gate(op: int, operands: Tuple[int, ...], pad: str, mask: str, full: bool) -> None:
        if op == tc.OP_CX:
            c, t = operands
            rhs = var[c] if full else f"{var[c]} & {mask}"
            lines.append(f"{pad}{var[t]} ^= {rhs}")
        elif op == tc.OP_CCX:
            c1, c2, t = operands
            rhs = f"{var[c1]} & {var[c2]}" if full else f"{var[c1]} & {var[c2]} & {mask}"
            lines.append(f"{pad}{var[t]} ^= {rhs}")
        elif op == tc.OP_X:
            (q,) = operands
            lines.append(f"{pad}{var[q]} ^= {mask}")
        elif op == tc.OP_SWAP:
            a, b = operands
            if full:
                # Full-mask swap is a pure renaming of the two locals: zero
                # runtime cost; the write-back below resolves the final map.
                var[a], var[b] = var[b], var[a]
            else:
                lines.append(f"{pad}_d = ({var[a]} ^ {var[b]}) & {mask}")
                lines.append(f"{pad}{var[a]} ^= _d")
                lines.append(f"{pad}{var[b]} ^= _d")
        elif op == tc.OP_CSWAP:
            c, a, b = operands
            guard = var[c] if full else f"{mask} & {var[c]}"
            lines.append(f"{pad}_d = ({var[a]} ^ {var[b]}) & {guard}")
            lines.append(f"{pad}{var[a]} ^= _d")
            lines.append(f"{pad}{var[b]} ^= _d")
        else:  # pragma: no cover - fuse_program only packs the five above
            raise ValueError(f"unexpected opcode {op} in a fused run")

    def emit_scope(scope, depth: int) -> None:
        pad = "    " * (depth + 1)
        mask = "_m0" if depth == 0 else f"_m{depth}"
        full = depth == 0
        for kind, item in scope.items:
            if kind == "run":
                for row in item.operands:
                    emit_gate(item.opcode, tuple(int(v) for v in row), pad, mask, full)
            elif kind == "instr":
                op = item[0]
                if op == tc.OP_MZ:
                    q, b = item[1], item[2]
                    if full:
                        lines.append(f"{pad}B[{b}] = {var[q]}")
                    else:
                        lines.append(
                            f"{pad}B[{b}] = (B[{b}] & ~{mask}) | ({var[q]} & {mask})"
                        )
                elif op == tc.OP_MX:
                    q, b = item[1], item[2]
                    if full:
                        lines.append(f"{pad}_o = _sample(0.5, _batch) & _m0")
                        lines.append(f"{pad}{var[q]} = _o")
                        lines.append(f"{pad}B[{b}] = _o")
                    else:
                        lines.append(f"{pad}_o = _sample(0.5, _batch)")
                        lines.append(
                            f"{pad}{var[q]} = ({var[q]} & ~{mask}) | (_o & {mask})"
                        )
                        lines.append(
                            f"{pad}B[{b}] = (B[{b}] & ~{mask}) | (_o & {mask})"
                        )
                elif op == tc.OP_NOISE:
                    # Bit-flip channel point: one guarded draw, so the same
                    # generated kernel serves noisy and noiseless runs
                    # (callers pass _noise=None to disable).
                    q = item[1]
                    lines.append(f"{pad}if _noise is not None:")
                    rhs = "_noise(_batch)" if full else f"_noise(_batch) & {mask}"
                    lines.append(f"{pad}    {var[q]} ^= {rhs}")
                else:
                    emit_gate(op, item[1:], pad, mask, full)
            else:  # nested scope
                sub = f"_m{depth + 1}"
                if item.kind == "cond":
                    bit, value = item.header
                    if value:
                        src = f"B[{bit}]" if full else f"{mask} & B[{bit}]"
                    else:
                        src = f"{mask} & ~B[{bit}]"
                    lines.append(f"{pad}{sub} = {src}")
                else:  # mbu
                    bit = item.header[1]
                    if full:
                        lines.append(f"{pad}_o = _sample(0.5, _batch) & _m0")
                        lines.append(f"{pad}B[{bit}] = _o")
                        lines.append(f"{pad}{sub} = _o")
                    else:
                        lines.append(f"{pad}_o = _sample(0.5, _batch)")
                        lines.append(
                            f"{pad}B[{bit}] = (B[{bit}] & ~{mask}) | (_o & {mask})"
                        )
                        lines.append(f"{pad}{sub} = {mask} & _o")
                lines.append(f"{pad}if {sub}:")
                body_start = len(lines)
                if events:
                    lines.append(f"{pad}    _ev.append(({item.sid}, {sub}))")
                emit_scope(item, depth + 1)
                if len(lines) == body_start:
                    lines.append(f"{pad}    pass")
                if item.kind == "mbu":
                    q = item.header[0]
                    # Both MBU branches leave the garbage qubit in |0>.
                    if full:
                        lines.append(f"{pad}{var[q]} = 0")
                    else:
                        lines.append(f"{pad}{var[q]} &= ~{mask}")

    emit_scope(fused.root, 0)
    # Write back only planes the program can have changed: read-only and
    # untouched entries of P keep the values the caller marshalled in (they
    # are part of the resident state), and __written_planes__ tells the
    # caller which numpy rows will need repacking.
    for q in sorted(written):
        lines.append(f"    P[{q}] = {var[q]}")
    lines.append("    return None")
    source = "\n".join(lines) + "\n"
    meta = {
        "used_planes": tuple(sorted(used)),
        "written_planes": tuple(sorted(written)),
        "used_bits": tuple(sorted(used_bits)),
        "written_bits": tuple(sorted(written_bits)),
    }
    return source, meta


def build_kernel(fused, *, events: bool) -> Callable:
    """Compile (and return) the straight-line kernel for ``fused``.

    One-time cost per (program, events) pair; cached by
    :meth:`~repro.transform.compile.FusedProgram.kernel`.  The source is
    kept on the function as ``__fused_source__`` for inspection, and the
    plane/bit usage census as ``__used_planes__`` / ``__written_planes__``
    / ``__written_bits__`` (plus ``__used_bits__``) — the written sets tell
    callers which rows of their numpy buffers the kernel can have changed,
    i.e. which ones need repacking.  The caller must still marshal *every*
    plane into the ``P``/``B`` lists it passes in: the lists double as the
    resident state reused by later (possibly different) programs, so
    entries outside ``__used_planes__`` have to be correct too.
    """
    source, meta = _generate(fused, events=events)
    namespace: Dict[str, Any] = {}
    exec(compile(source, f"<fused-kernel:{fused.source or 'circuit'}>", "exec"), namespace)
    fn = namespace["_fused_kernel"]
    fn.__fused_source__ = source
    fn.__used_planes__ = meta["used_planes"]
    fn.__written_planes__ = meta["written_planes"]
    fn.__used_bits__ = meta["used_bits"]
    fn.__written_bits__ = meta["written_bits"]
    return fn


# --------------------------------------------------------------------------- #
# generated straight-line numpy kernels (strategy="vector")

#: Runs shorter than this unroll into per-gate in-place ufuncs; at or
#: above it they emit one fancy-indexed gather/scatter block.  Below ~4
#: gates the gather copies cost more than they amortize.
_VECTOR_RUN_MIN = 4


def generate_vector_source(fused, *, events: bool, func_name: str = "_vector_kernel") -> str:
    """Python source of the straight-line numpy kernel for ``fused`` (see
    :func:`build_vector_kernel` for the callable and its metadata)."""
    return _generate_vector(fused, events=events, func_name=func_name)[0]


def _generate_vector(fused, *, events: bool, func_name: str = "_vector_kernel"):
    """Generate the numpy kernel source, its baked index constants, and
    its plane/bit usage metadata.

    The generated function has signature ``(P, B, _m0, _batch, _sample,
    _ev, _noise, _S, _scr, _gath, _pack, _mask_int)``: ``P``/``B`` are the
    simulator's packed ``(rows, words)`` uint64 plane matrices (mutated in
    place), ``_m0`` the all-lanes validity mask row, ``_S`` preallocated
    scratch rows (row 0 is the ufunc temporary, row d the depth-d branch
    mask), ``_scr``/``_gath`` ``(max_run, words)`` gather scratch,
    ``_pack`` bigint → word array and ``_mask_int`` word array → bigint.
    Fancy-index operand columns of vectorized runs are baked into the
    function's globals as ``np.intp`` constants — already remapped through
    the codegen-time row permutation that full-mask swaps maintain, so a
    depth-0 ``swap`` costs nothing at run time and one final permutation
    write puts rows back in canonical order.
    """
    tc = _opcodes()
    used, written, used_bits, written_bits = _census(fused)
    var = {q: f"_p{q}" for q in sorted(used)}
    bvar = {b: f"_b{b}" for b in sorted(used_bits)}
    perm = {q: q for q in sorted(used)}
    consts: Dict[str, Any] = {}
    body: List[str] = []
    max_run = 0
    max_depth = 0
    n_const = 0

    def bake(indices) -> str:
        nonlocal n_const
        name = f"_rc{n_const}"
        n_const += 1
        consts[name] = np.array(indices, dtype=np.intp)
        return name

    def emit_gate(op: int, operands: Tuple[int, ...], pad: str, mask: str, full: bool) -> None:
        if op == tc.OP_CX:
            c, t = operands
            if full:
                body.append(f"{pad}{var[t]} ^= {var[c]}")
            else:
                body.append(f"{pad}_np.bitwise_and({var[c]}, {mask}, out=_t)")
                body.append(f"{pad}{var[t]} ^= _t")
        elif op == tc.OP_CCX:
            c1, c2, t = operands
            body.append(f"{pad}_np.bitwise_and({var[c1]}, {var[c2]}, out=_t)")
            if not full:
                body.append(f"{pad}_t &= {mask}")
            body.append(f"{pad}{var[t]} ^= _t")
        elif op == tc.OP_X:
            (q,) = operands
            body.append(f"{pad}{var[q]} ^= {mask}")
        elif op == tc.OP_SWAP:
            a, b = operands
            if full:
                # Pure renaming: rows trade names at codegen time; the
                # final permutation write restores canonical row order.
                var[a], var[b] = var[b], var[a]
                perm[a], perm[b] = perm[b], perm[a]
            else:
                body.append(f"{pad}_np.bitwise_xor({var[a]}, {var[b]}, out=_t)")
                body.append(f"{pad}_t &= {mask}")
                body.append(f"{pad}{var[a]} ^= _t")
                body.append(f"{pad}{var[b]} ^= _t")
        elif op == tc.OP_CSWAP:
            c, a, b = operands
            body.append(f"{pad}_np.bitwise_xor({var[a]}, {var[b]}, out=_t)")
            body.append(f"{pad}_t &= {var[c]}")
            if not full:
                body.append(f"{pad}_t &= {mask}")
            body.append(f"{pad}{var[a]} ^= _t")
            body.append(f"{pad}{var[b]} ^= _t")
        else:  # pragma: no cover - fuse_program only packs the five above
            raise ValueError(f"unexpected opcode {op} in a fused run")

    def emit_run(item, pad: str, mask: str, full: bool) -> None:
        nonlocal max_run
        op = item.opcode
        ops = item.operands
        k = item.count
        if full and op == tc.OP_SWAP:
            for row in ops:
                emit_gate(op, tuple(int(v) for v in row), pad, mask, full)
            return
        if k < _VECTOR_RUN_MIN:
            for row in ops:
                emit_gate(op, tuple(int(v) for v in row), pad, mask, full)
            return
        cols = [
            bake([perm[int(v)] for v in ops[:, i]]) for i in range(ops.shape[1])
        ]
        if op == tc.OP_X:
            body.append(f"{pad}P[{cols[0]}] ^= {mask}")
            return
        max_run = max(max_run, k)
        if op == tc.OP_CX:
            c, t = cols
            body.append(f'{pad}_s = _take(P, {c}, axis=0, out=_scr[:{k}], mode="clip")')
            if not full:
                body.append(f"{pad}_s &= {mask}")
            body.append(f'{pad}_g = _take(P, {t}, axis=0, out=_gath[:{k}], mode="clip")')
            body.append(f"{pad}_g ^= _s")
            body.append(f"{pad}P[{t}] = _g")
        elif op == tc.OP_CCX:
            c1, c2, t = cols
            body.append(f'{pad}_s = _take(P, {c1}, axis=0, out=_scr[:{k}], mode="clip")')
            body.append(f'{pad}_s &= _take(P, {c2}, axis=0, out=_gath[:{k}], mode="clip")')
            if not full:
                body.append(f"{pad}_s &= {mask}")
            body.append(f'{pad}_g = _take(P, {t}, axis=0, out=_gath[:{k}], mode="clip")')
            body.append(f"{pad}_g ^= _s")
            body.append(f"{pad}P[{t}] = _g")
        elif op == tc.OP_SWAP:  # masked only: full swap runs renamed above
            a, b = cols
            body.append(f'{pad}_s = _take(P, {a}, axis=0, out=_scr[:{k}], mode="clip")')
            body.append(f'{pad}_s ^= _take(P, {b}, axis=0, out=_gath[:{k}], mode="clip")')
            body.append(f"{pad}_s &= {mask}")
            for side in (a, b):
                body.append(
                    f'{pad}_g = _take(P, {side}, axis=0, out=_gath[:{k}], mode="clip")'
                )
                body.append(f"{pad}_g ^= _s")
                body.append(f"{pad}P[{side}] = _g")
        else:  # OP_CSWAP
            c, a, b = cols
            body.append(f'{pad}_s = _take(P, {a}, axis=0, out=_scr[:{k}], mode="clip")')
            body.append(f'{pad}_s ^= _take(P, {b}, axis=0, out=_gath[:{k}], mode="clip")')
            body.append(f'{pad}_s &= _take(P, {c}, axis=0, out=_gath[:{k}], mode="clip")')
            if not full:
                body.append(f"{pad}_s &= {mask}")
            for side in (a, b):
                body.append(
                    f'{pad}_g = _take(P, {side}, axis=0, out=_gath[:{k}], mode="clip")'
                )
                body.append(f"{pad}_g ^= _s")
                body.append(f"{pad}P[{side}] = _g")

    def emit_scope(scope, depth: int) -> None:
        nonlocal max_depth
        pad = "    " * (depth + 1)
        mask = "_m0" if depth == 0 else f"_m{depth}"
        full = depth == 0
        for kind, item in scope.items:
            if kind == "run":
                emit_run(item, pad, mask, full)
            elif kind == "instr":
                op = item[0]
                if op == tc.OP_MZ:
                    q, b = item[1], item[2]
                    if full:
                        body.append(f"{pad}_np.copyto({bvar[b]}, {var[q]})")
                    else:
                        # b ^= (b ^ q) & mask: masked merge without ~mask
                        body.append(
                            f"{pad}_np.bitwise_xor({bvar[b]}, {var[q]}, out=_t)"
                        )
                        body.append(f"{pad}_t &= {mask}")
                        body.append(f"{pad}{bvar[b]} ^= _t")
                elif op == tc.OP_MX:
                    q, b = item[1], item[2]
                    body.append(f"{pad}_o = _pack(_sample(0.5, _batch))")
                    if full:
                        body.append(f"{pad}_np.copyto({var[q]}, _o)")
                        body.append(f"{pad}_np.copyto({bvar[b]}, _o)")
                    else:
                        for dst in (var[q], bvar[b]):
                            body.append(f"{pad}_np.bitwise_xor({dst}, _o, out=_t)")
                            body.append(f"{pad}_t &= {mask}")
                            body.append(f"{pad}{dst} ^= _t")
                elif op == tc.OP_NOISE:
                    q = item[1]
                    body.append(f"{pad}if _noise is not None:")
                    body.append(f"{pad}    _f = _pack(_noise(_batch))")
                    if not full:
                        body.append(f"{pad}    _f &= {mask}")
                    body.append(f"{pad}    {var[q]} ^= _f")
                else:
                    emit_gate(op, item[1:], pad, mask, full)
            else:  # nested scope
                max_depth = max(max_depth, depth + 1)
                sub = f"_m{depth + 1}"
                if item.kind == "cond":
                    bit, value = item.header
                    if value:
                        if full:
                            body.append(f"{pad}_np.copyto({sub}, {bvar[bit]})")
                        else:
                            body.append(
                                f"{pad}_np.bitwise_and({mask}, {bvar[bit]}, out={sub})"
                            )
                    else:
                        if full:
                            # bit rows never carry invalid lanes: m0 & ~b == b ^ m0
                            body.append(
                                f"{pad}_np.bitwise_xor({bvar[bit]}, _m0, out={sub})"
                            )
                        else:
                            body.append(
                                f"{pad}_np.bitwise_and({mask}, {bvar[bit]}, out={sub})"
                            )
                            body.append(
                                f"{pad}_np.bitwise_xor({sub}, {mask}, out={sub})"
                            )
                else:  # mbu
                    bit = item.header[1]
                    body.append(f"{pad}_o = _pack(_sample(0.5, _batch))")
                    if full:
                        body.append(f"{pad}_np.copyto({bvar[bit]}, _o)")
                        # _o is freshly packed: safe to own as the mask row
                        body.append(f"{pad}{sub} = _o")
                    else:
                        body.append(f"{pad}_np.bitwise_xor({bvar[bit]}, _o, out=_t)")
                        body.append(f"{pad}_t &= {mask}")
                        body.append(f"{pad}{bvar[bit]} ^= _t")
                        body.append(f"{pad}_np.bitwise_and({mask}, _o, out={sub})")
                body.append(f"{pad}if {sub}.any():")
                body_start = len(body)
                if events:
                    body.append(f"{pad}    _ev.append(({item.sid}, _mask_int({sub})))")
                emit_scope(item, depth + 1)
                if len(body) == body_start:
                    body.append(f"{pad}    pass")
                if item.kind == "mbu":
                    q = item.header[0]
                    # Both MBU branches leave the garbage qubit in |0>; the
                    # clear runs under the *outer* mask even when the whole
                    # branch body was skipped.
                    if full:
                        body.append(f"{pad}{var[q]}.fill(0)")
                    else:
                        body.append(f"{pad}_np.bitwise_and({var[q]}, {mask}, out=_t)")
                        body.append(f"{pad}{var[q]} ^= _t")

    emit_scope(fused.root, 0)
    moved = [q for q in sorted(used) if perm[q] != q]
    lines: List[str] = [
        f"def {func_name}(P, B, _m0, _batch, _sample, _ev, _noise, "
        "_S, _scr, _gath, _pack, _mask_int):"
    ]
    for q in sorted(used):
        lines.append(f"    _p{q} = P[{q}]")
    for b in sorted(used_bits):
        lines.append(f"    _b{b} = B[{b}]")
    lines.append("    _t = _S[0]")
    for d in range(1, max_depth + 1):
        lines.append(f"    _m{d} = _S[{d}]")
    if events:
        lines.append("    _ev.append((0, _mask_int(_m0)))")
    lines.extend(body)
    if moved:
        dst = bake(moved)
        src = bake([perm[q] for q in moved])
        lines.append(f"    P[{dst}] = P[{src}]")
        written = set(written) | set(moved)
    lines.append("    return None")
    source = "\n".join(lines) + "\n"
    meta = {
        "used_planes": tuple(sorted(used)),
        "written_planes": tuple(sorted(written)),
        "used_bits": tuple(sorted(used_bits)),
        "written_bits": tuple(sorted(written_bits)),
        "scratch_rows": 1 + max_depth,
        "max_run": max_run,
    }
    return source, consts, meta


def build_vector_kernel(fused, *, events: bool) -> Callable:
    """Compile (and return) the straight-line numpy kernel for ``fused``.

    One-time cost per (program, events) pair; cached by
    :meth:`~repro.transform.compile.FusedProgram.kernel` under
    ``kind="vector"``.  Exposes the same introspection attributes as
    :func:`build_kernel` (``__fused_source__``, ``__used_planes__``,
    ``__written_planes__``, ``__used_bits__``, ``__written_bits__``) plus
    ``__scratch_rows__`` (mask/temp rows the caller must provide in
    ``_S``) and ``__max_run__`` (rows needed in ``_scr``/``_gath``).
    Unlike the bigint kernels, execution happens directly on the
    simulator's resident numpy matrices — use :func:`run_fused_vector`.
    """
    source, consts, meta = _generate_vector(fused, events=events)
    namespace: Dict[str, Any] = {"_np": np, "_take": np.take}
    namespace.update(consts)
    exec(compile(source, f"<vector-kernel:{fused.source or 'circuit'}>", "exec"), namespace)
    fn = namespace["_vector_kernel"]
    fn.__fused_source__ = source
    fn.__used_planes__ = meta["used_planes"]
    fn.__written_planes__ = meta["written_planes"]
    fn.__used_bits__ = meta["used_bits"]
    fn.__written_bits__ = meta["written_bits"]
    fn.__scratch_rows__ = meta["scratch_rows"]
    fn.__max_run__ = meta["max_run"]
    return fn


def run_fused_vector(sim, fused, collect_events: bool) -> List[Tuple[int, int]]:
    """Execute ``fused``'s generated numpy kernel on ``sim``'s plane matrices.

    Scratch (mask rows plus run gather buffers) is cached on the simulator
    and grown monotonically, so Monte-Carlo repetition loops — which call
    ``reset()`` between runs — pay allocation once, not per run.  Returns
    the ``(scope_id, mask_int)`` tally events (empty when
    ``collect_events`` is false), the same protocol as the other fused
    paths.
    """
    kernel = fused.kernel(events=collect_events, kind="vector")
    words = sim.words
    dtype = sim.planes.dtype
    rows_needed = kernel.__scratch_rows__
    run_needed = max(kernel.__max_run__, 1)
    cached = getattr(sim, "_vector_scratch", None)
    if (
        cached is None
        or cached[0].shape[1] != words
        or cached[0].shape[0] < rows_needed
        or cached[1].shape[0] < run_needed
    ):
        if cached is not None and cached[0].shape[1] == words:
            rows_needed = max(rows_needed, cached[0].shape[0])
            run_needed = max(run_needed, cached[1].shape[0])
        scratch = np.empty((rows_needed, words), dtype=dtype)
        scr = np.empty((run_needed, words), dtype=dtype)
        gath = np.empty_like(scr)
        cached = (scratch, scr, gath)
        sim._vector_scratch = cached
    scratch, scr, gath = cached
    noise = sim._noise_lanes if sim._noise_stream is not None else None
    events: List[Tuple[int, int]] = []

    def pack(value: int) -> np.ndarray:
        return np.frombuffer(value.to_bytes(words * 8, "little"), dtype=dtype).copy()

    def mask_int(mask: np.ndarray) -> int:
        return int.from_bytes(np.ascontiguousarray(mask).tobytes(), "little")

    kernel(
        sim.planes, sim.bit_planes, sim._valid, sim.batch,
        sim.engine.sample_lanes, events, noise, scratch, scr, gath,
        pack, mask_int,
    )
    return events
