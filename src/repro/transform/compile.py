"""Lowering circuits to linear bit-plane programs: :func:`compile_program`.

The interpretive bit-plane walk (``ExecutionEngine`` driving
``BitplaneSimulator``) pays per-operation Python overhead: ``isinstance``
dispatch, gate-name string comparisons, tally bookkeeping and dynamic
garbage-qubit checks.  All of that is static: for a fixed circuit the
control-flow nesting, the MBU garbage stack, which gates are basis-state
no-ops (diagonal/phase gates) and which garbage-targeting gates are
skipped can be resolved *once, at compile time*.

:func:`compile_program` flattens the nested ``Conditional``/``MBUBlock``
IR into a linear instruction stream of small tuples:

* integer opcodes with pre-extracted qubit/bit operands;
* ``COND``/``MBU`` instructions carrying a pre-computed jump target, so a
  branch with zero active lanes skips its whole body in O(1);
* phase-only gates, annotations and statically-skipped garbage gates are
  dropped from the stream entirely (their *tally* contribution is kept —
  see below);
* compile-time errors for anything the bit-plane semantics cannot run
  (bare ``h``, measuring a garbage qubit, reading garbage as a control),
  mirroring the interpretive backend's runtime checks.

Executed-gate accounting stays exact: every instruction carries the tuple
of gate-name tallies it accounts for (dropped ops attach to the next
instruction in the same branch scope, or to a flush ``NOP`` — weights are
constant within a scope, so order is irrelevant), and the VM accumulates
*integer* executed-lane counts per name, folding them into the engine's
``GateCounts`` as ``Fraction(total, batch)`` at the end — identical to the
interpretive average-per-lane tally.

:meth:`repro.sim.bitplane.BitplaneSimulator.run_compiled` executes these
programs; ``benchmarks/bench_transform.py`` records the compiled-vs-
interpretive speedup to ``benchmarks/BENCH_transform.json``.

Two further compile-time optimizations sit on top of the flattening:

* **Peephole cancellation** (``cancel=True``, the default): adjacent
  identical self-inverse instructions — the stream-level image of
  ``cancel_adjacent`` inverse pairs, after phase gates and statically
  skipped garbage gates have dropped out — are removed *from the stream
  only*.  Their tally contribution is kept (both gates execute; their net
  state effect is identity), so results and gate accounting stay identical
  to the interpretive walk.  ``swap``/``cswap`` operands are canonicalized
  (sorted swapped pair) so symmetric pairs cancel too.
* **Fusion** (:func:`fuse_program`): the linear stream is regrouped into a
  :class:`FusedProgram` — a branch-scope tree whose straight-line segments
  carry *superinstructions*: maximal runs of same-opcode instructions with
  operands pre-packed into numpy index arrays.  A run splits when an
  instruction reads *or writes* a plane written earlier in the same run
  (the write-conflict check), so every run is safe to execute as a few
  gather/scatter array ops — and has unique write targets by construction.
  Tally metadata is aggregated per branch scope (weights are constant
  within a scope), which is what lets the fused VM replace per-instruction
  tally bookkeeping with one event per scope *entry*.
  :mod:`repro.sim.kernels` executes fused programs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.ops import (
    PHASE_ONLY_GATES,
    Annotation,
    Conditional,
    Gate,
    MBUBlock,
    Measurement,
    Operation,
)
from ..sim.classical import UnsupportedGateError, garbage_gate_skips

__all__ = [
    "CompiledProgram",
    "compile_program",
    "FusedProgram",
    "FusedRun",
    "FusedScope",
    "fuse_program",
    "OP_NOP",
    "OP_X",
    "OP_CX",
    "OP_CCX",
    "OP_SWAP",
    "OP_CSWAP",
    "OP_MZ",
    "OP_MX",
    "OP_COND",
    "OP_ENDCOND",
    "OP_MBU",
    "OP_ENDMBU",
    "OP_NOISE",
]

# Opcodes (ints, compared by the VM's dispatch chain — ordered by typical
# frequency in ripple-carry arithmetic: cx, ccx, x dominate).
OP_NOP = 0      # (OP_NOP,)                      tally-only flush
OP_X = 1        # (OP_X, q)
OP_CX = 2       # (OP_CX, c, t)
OP_CCX = 3      # (OP_CCX, c1, c2, t)
OP_SWAP = 4     # (OP_SWAP, a, b)
OP_CSWAP = 5    # (OP_CSWAP, c, a, b)
OP_MZ = 6       # (OP_MZ, q, bit)
OP_MX = 7       # (OP_MX, q, bit)
OP_COND = 8     # (OP_COND, bit, value, jump)    jump = pc of matching ENDCOND
OP_ENDCOND = 9  # (OP_ENDCOND,)
OP_MBU = 10     # (OP_MBU, q, bit, jump)         jump = pc of matching ENDMBU
OP_ENDMBU = 11  # (OP_ENDMBU, q)
OP_NOISE = 12   # (OP_NOISE, q)                  bit-flip channel point (repro.noise)

# Gates that only kick phases on computational-basis states (value no-ops);
# shared with the interpretive bit-plane backend so the two cannot diverge.
_PHASE_ONLY = PHASE_ONLY_GATES

_GATE_OPCODE = {"x": OP_X, "y": OP_X, "cx": OP_CX, "ccx": OP_CCX,
                "swap": OP_SWAP, "cswap": OP_CSWAP}

#: Self-inverse at the stream level: two adjacent identical instructions of
#: these opcodes are a value-identity on every lane (x/y both lower to OP_X,
#: and an x·y pair is phase-only on basis states, so name differences are
#: irrelevant here — tally names are preserved separately).
_CANCELLABLE = frozenset({OP_X, OP_CX, OP_CCX, OP_SWAP, OP_CSWAP})


@dataclass(frozen=True, slots=True)
class CompiledProgram:
    """A circuit lowered to a linear bit-plane instruction stream.

    ``instructions[pc]`` is an opcode tuple; ``tallies[pc]`` is the tuple
    of gate names that instruction accounts for.  ``has_tally`` records
    whether tally metadata was compiled in at all (``tally=False`` programs
    can only be executed with tallying disabled).  ``source`` names the
    circuit the program was compiled from; ``num_qubits``/``num_bits`` pin
    the layout a simulator must provide.
    """

    num_qubits: int
    num_bits: int
    instructions: Tuple[Tuple[int, ...], ...]
    tallies: Tuple[Tuple[str, ...], ...]
    has_tally: bool = True
    source: str = ""

    def __len__(self) -> int:
        return len(self.instructions)

    def counts_static(self) -> Dict[str, int]:
        """Instruction-count census by opcode (diagnostics / tests)."""
        census: Dict[str, int] = {}
        names = {v: k for k, v in globals().items() if k.startswith("OP_")}
        for instr in self.instructions:
            key = names[instr[0]]
            census[key] = census.get(key, 0) + 1
        return census


@dataclass(slots=True)
class _Emitter:
    tally: bool
    cancel: bool = False
    instructions: List[Tuple[int, ...]] = field(default_factory=list)
    tallies: List[Tuple[str, ...]] = field(default_factory=list)
    pending: List[str] = field(default_factory=list)

    def note(self, *names: str) -> None:
        if self.tally:
            self.pending.extend(names)

    def emit(self, instr: Tuple[int, ...]) -> int:
        if (
            self.cancel
            and instr[0] in _CANCELLABLE
            and self.instructions
            and self.instructions[-1] == instr
        ):
            # Adjacent identical self-inverse pair: a value-identity on every
            # lane.  Drop both from the stream but keep both tally
            # contributions (the gates execute; only their net effect is
            # nothing).  Scope headers/ends and measurements never match a
            # gate tuple, so cancellation cannot cross a barrier, and only
            # the tail is ever popped, so recorded jump-patch pcs stay valid.
            self.instructions.pop()
            self.pending.extend(self.tallies.pop())
            return -1
        self.instructions.append(instr)
        self.tallies.append(tuple(self.pending))
        self.pending.clear()
        return len(self.instructions) - 1

    def flush(self) -> None:
        """Attach leftover tally names to a NOP before leaving a scope
        (weights differ across scope boundaries, so they cannot ride on an
        outer instruction)."""
        if self.pending:
            self.emit((OP_NOP,))

    def patch_jump(self, pc: int, target: int) -> None:
        instr = self.instructions[pc]
        self.instructions[pc] = instr[:-1] + (target,)


def compile_program(
    circuit: Circuit, tally: bool = True, cancel: bool = True
) -> CompiledProgram:
    """Flatten ``circuit`` into a :class:`CompiledProgram`.

    ``tally=False`` drops all executed-gate accounting metadata, which lets
    the VM skip tally work entirely — the fastest configuration.  Raises
    :class:`~repro.sim.classical.UnsupportedGateError` at *compile* time
    for operations without basis-state semantics (the interpretive backend
    would raise at run time).

    ``cancel=True`` (the default) peephole-eliminates adjacent identical
    self-inverse instructions from the stream — the compiled analogue of
    running :class:`~repro.transform.passes.CancelAdjacentPass` to a
    fixpoint, except that the cancelled gates' tally contributions are
    *kept*, so the executed-gate accounting still matches the interpretive
    walk exactly.  Compiled streams therefore never carry adjacent inverse
    pairs.
    """
    emitter = _Emitter(tally, cancel=cancel)
    _compile_ops(circuit.ops, emitter, garbage=[])
    emitter.flush()
    return CompiledProgram(
        num_qubits=circuit.num_qubits,
        num_bits=circuit.num_bits,
        instructions=tuple(emitter.instructions),
        tallies=tuple(emitter.tallies),
        has_tally=tally,
        source=circuit.name,
    )


def _compile_ops(ops: Sequence[Operation], em: _Emitter, garbage: List[int]) -> None:
    for op in ops:
        if isinstance(op, Gate):
            name = op.name
            em.note(name)
            if garbage and garbage_gate_skips(op, garbage):
                continue  # statically resolved: phase-only on the +/- garbage
            if name in _PHASE_ONLY:
                continue
            opcode = _GATE_OPCODE.get(name)
            if opcode is None:
                raise UnsupportedGateError(
                    f"gate {name!r} has no basis-state semantics; "
                    "compiled bit-plane programs cannot contain it"
                )
            qubits = op.qubits
            # Canonicalize the symmetric operand pair so swap(a,b)/swap(b,a)
            # compile identically (they are the same permutation) — this is
            # what lets peephole cancellation and run packing treat them as
            # equal.
            if opcode == OP_SWAP:
                qubits = tuple(sorted(qubits))
            elif opcode == OP_CSWAP:
                qubits = (qubits[0], *sorted(qubits[1:]))
            em.emit((opcode, *qubits))
        elif isinstance(op, Measurement):
            if op.qubit in garbage:
                raise UnsupportedGateError(
                    "measurement of garbage qubit inside MBU body"
                )
            if op.basis == "x":
                em.note("h", "measure")
                em.emit((OP_MX, op.qubit, op.bit))
            else:
                em.note("measure")
                em.emit((OP_MZ, op.qubit, op.bit))
        elif isinstance(op, Conditional):
            header = em.emit((OP_COND, op.bit, op.value, -1))
            _compile_ops(op.body, em, garbage)
            em.flush()
            end = em.emit((OP_ENDCOND,))
            em.patch_jump(header, end)
        elif isinstance(op, MBUBlock):
            if op.qubit in garbage:
                raise UnsupportedGateError("nested MBU on an active garbage qubit")
            em.note("h", "measure")
            header = em.emit((OP_MBU, op.qubit, op.bit, -1))
            garbage.append(op.qubit)
            _compile_ops(op.body, em, garbage)
            garbage.pop()
            em.flush()
            end = em.emit((OP_ENDMBU, op.qubit))
            em.patch_jump(header, end)
        elif isinstance(op, Annotation):
            # Noise points survive compilation as explicit channel
            # instructions (no tally: a channel is not a gate); structural
            # begin/end/note markers drop out of the stream.  OP_NOISE is
            # deliberately not _CANCELLABLE — it randomizes the plane, so
            # the instructions around it must never peephole-cancel across
            # it (adjacency is broken by the emitted instruction itself).
            if op.kind == "noise":
                em.emit((OP_NOISE, int(op.label)))
            continue
        else:  # pragma: no cover
            raise TypeError(f"unknown operation {op!r}")


# --------------------------------------------------------------------------- #
# the fusion stage


#: Planes a fusable gate instruction writes, per opcode (operand
#: positions); its keys are the opcodes fusion may group into runs.
#: ``swap``/``cswap`` write non-commutatively (the delta depends on current
#: values), so both swapped operands are writes.
_RUN_WRITES = {OP_X: (1,), OP_CX: (2,), OP_CCX: (3,), OP_SWAP: (1, 2),
               OP_CSWAP: (2, 3)}


class FusedRun:
    """A superinstruction: ``count`` same-opcode gates as one array op.

    ``operands`` is a ``(count, arity)`` index array (``np.intp``), one row
    per fused gate, columns in the opcode's operand order.  By construction
    (the write-conflict check in :func:`fuse_program`) no fused gate reads
    or writes a plane written earlier in the same run, so the run can
    execute as gather → combine → scatter, and its write targets are
    unique.
    """

    __slots__ = ("opcode", "operands", "count")

    def __init__(self, opcode: int, operands: np.ndarray) -> None:
        self.opcode = opcode
        self.operands = operands
        self.count = int(operands.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"FusedRun(opcode={self.opcode}, count={self.count})"

    def __getstate__(self):
        return (self.opcode, self.operands)

    def __setstate__(self, state):
        self.__init__(*state)


class FusedScope:
    """One branch scope of a fused program.

    ``kind`` is ``"root"``, ``"cond"`` or ``"mbu"``; ``header`` carries the
    branch operands (``()``, ``(bit, value)`` or ``(qubit, bit)``).
    ``items`` is the scope's straight-line body: ``("run", FusedRun)``,
    ``("instr", opcode_tuple)`` (measurements and unfused singletons), and
    ``("scope", FusedScope)`` entries.  ``counts`` maps gate name to the
    number of times it executes per entry of this scope (nested scopes
    excluded — they have their own counts), which is the whole of the fused
    VM's tally metadata: executed totals are ``counts[name] * active_lanes``
    summed over dynamic scope entries.
    """

    __slots__ = ("sid", "kind", "header", "items", "counts")

    def __init__(self, sid: int, kind: str, header: Tuple[int, ...]) -> None:
        self.sid = sid
        self.kind = kind
        self.header = header
        self.items: List[Tuple[str, Any]] = []
        self.counts: Dict[str, int] = {}

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"FusedScope(sid={self.sid}, kind={self.kind!r}, items={len(self.items)})"

    def __getstate__(self):
        return (self.sid, self.kind, self.header, self.items, self.counts)

    def __setstate__(self, state):
        self.sid, self.kind, self.header, self.items, self.counts = state


class FusedProgram:
    """A compiled program regrouped for array-at-a-time execution.

    ``root`` is the scope tree (``scopes[0]``); ``scopes`` indexes every
    scope by ``sid`` for tally post-processing.  ``scalar`` keeps the
    flat :class:`CompiledProgram` the fusion ran on — its instruction
    count is the size the cost model and diagnostics measure.  Generated
    kernels (see :mod:`repro.sim.kernels`) are cached per program and are
    *not* pickled: an unpickled fused program recompiles its kernel on
    first use.
    """

    __slots__ = ("num_qubits", "num_bits", "root", "scopes", "scalar",
                 "has_tally", "source", "_kernels")

    def __init__(
        self,
        num_qubits: int,
        num_bits: int,
        root: FusedScope,
        scopes: Tuple[FusedScope, ...],
        scalar: CompiledProgram,
        has_tally: bool,
        source: str = "",
    ) -> None:
        self.num_qubits = num_qubits
        self.num_bits = num_bits
        self.root = root
        self.scopes = scopes
        self.scalar = scalar
        self.has_tally = has_tally
        self.source = source
        self._kernels: Dict[Tuple[str, bool], Any] = {}

    def __len__(self) -> int:
        return len(self.scalar)

    def __repr__(self) -> str:  # pragma: no cover - display only
        stats = self.fusion_stats()
        return (
            f"FusedProgram({self.source!r}, instructions={len(self)}, "
            f"runs={stats['runs']}, fused={stats['fused_instructions']})"
        )

    def __getstate__(self):
        return (self.num_qubits, self.num_bits, self.root, self.scopes,
                self.scalar, self.has_tally, self.source)

    def __setstate__(self, state):
        self.__init__(*state)

    def kernel(self, events: bool, kind: str = "codegen"):
        """The (cached) generated straight-line kernel for this program:
        ``kind="codegen"`` is the bigint kernel
        (:func:`repro.sim.kernels.build_kernel`), ``kind="vector"`` the
        numpy one (:func:`repro.sim.kernels.build_vector_kernel`)."""
        key = (kind, events)
        fn = self._kernels.get(key)
        if fn is None:
            # deferred import: sim layers above transform
            from ..sim.kernels import build_kernel, build_vector_kernel

            if kind == "vector":
                fn = build_vector_kernel(self, events=events)
            elif kind == "codegen":
                fn = build_kernel(self, events=events)
            else:
                raise ValueError(
                    f"unknown generated-kernel kind {kind!r}; "
                    "options: 'codegen', 'vector'"
                )
            self._kernels[key] = fn
        return fn

    def fusion_stats(self) -> Dict[str, int]:
        """Superinstruction census: how much of the stream was fused."""
        runs = fused = scalars = scopes = 0
        longest = 0
        stack = [self.root]
        while stack:
            scope = stack.pop()
            scopes += 1
            for kind, item in scope.items:
                if kind == "run":
                    runs += 1
                    fused += item.count
                    longest = max(longest, item.count)
                elif kind == "instr":
                    scalars += 1
                else:
                    stack.append(item)
        return {
            "runs": runs,
            "fused_instructions": fused,
            "scalar_instructions": scalars,
            "longest_run": longest,
            "scopes": scopes,
        }


#: Memo of recently fused caller-held programs, keyed by the compiled
#: program's id.  Entries hold a strong reference to their source
#: program, so a live entry's key can never be recycled; the LRU bound
#: keeps the memo from pinning old programs forever, and programs fused
#: on the fly (``memoize=False`` call sites) never enter it at all.
#: Guarded by a lock: threaded sweep workers share one process-wide memo.
_FUSED_MEMO: "Dict[int, Tuple[CompiledProgram, FusedProgram]]" = {}
_FUSED_MEMO_MAX = 16
_FUSED_MEMO_LOCK = threading.Lock()


def fuse_program(
    program: Union[CompiledProgram, Circuit],
    tally: Optional[bool] = None,
    *,
    memoize: Optional[bool] = None,
) -> FusedProgram:
    """Regroup a compiled program into a :class:`FusedProgram`.

    Accepts a :class:`CompiledProgram` or a :class:`~repro.circuits.circuit.Circuit`
    (compiled on the fly with ``tally`` metadata, default on).  Within each
    branch scope, maximal runs of same-opcode gate instructions become
    :class:`FusedRun` superinstructions; a run splits when the next
    instruction touches (reads or writes) a plane written earlier in the
    run, so fused execution order is indistinguishable from sequential.
    Measurements and branch headers are barriers.  Per-instruction tally
    tuples are aggregated into per-scope ``counts``.

    Fusing the *same* :class:`CompiledProgram` object again returns the
    memoized :class:`FusedProgram` (and
    with it the cached generated kernel), so repeatedly executing a
    pre-compiled program — the sweep and benchmark pattern — pays fusion
    and code generation once.  ``memoize`` defaults to exactly that case
    (a caller-held :class:`CompiledProgram`); pass ``memoize=False`` when
    fusing a program nobody retains a handle to, so the memo doesn't pin
    it.
    """
    if isinstance(program, Circuit):
        program = compile_program(program, tally=True if tally is None else tally)
        if memoize is None:
            memoize = False  # the key object dies with this call frame
    else:
        if memoize is None:
            memoize = True
        if memoize:
            with _FUSED_MEMO_LOCK:
                entry = _FUSED_MEMO.get(id(program))
                if entry is not None and entry[0] is program:
                    # refresh recency: a hot program is not the next eviction
                    _FUSED_MEMO.pop(id(program))
                    _FUSED_MEMO[id(program)] = entry
                    return entry[1]
    instructions = program.instructions
    tallies = program.tallies

    root = FusedScope(0, "root", ())
    scopes: List[FusedScope] = [root]
    stack = [root]

    run_op: Optional[int] = None
    run_ops: List[Tuple[int, ...]] = []
    run_written: set = set()

    def flush_run() -> None:
        nonlocal run_op
        if not run_ops:
            return
        scope = stack[-1]
        if len(run_ops) == 1:
            scope.items.append(("instr", run_ops[0]))
        else:
            operands = np.array(
                [instr[1:] for instr in run_ops], dtype=np.intp
            ).reshape(len(run_ops), -1)
            scope.items.append(("run", FusedRun(run_op, operands)))
        run_ops.clear()
        run_written.clear()
        run_op = None

    for pc, instr in enumerate(instructions):
        op = instr[0]
        names = tallies[pc]
        if names:
            counts = stack[-1].counts
            for name in names:
                counts[name] = counts.get(name, 0) + 1
        if op in _RUN_WRITES:
            touched = {instr[1 + i] for i in range(len(instr) - 1)}
            writes = {instr[i] for i in _RUN_WRITES[op]}
            if op != run_op or (touched & run_written):
                flush_run()
                run_op = op
            run_ops.append(instr)
            run_written |= writes
        elif op == OP_NOP:
            continue  # tally-only: names already credited to the scope
        elif op == OP_COND or op == OP_MBU:
            flush_run()
            kind = "cond" if op == OP_COND else "mbu"
            scope = FusedScope(len(scopes), kind, (instr[1], instr[2]))
            scopes.append(scope)
            stack[-1].items.append(("scope", scope))
            stack.append(scope)
        elif op == OP_ENDCOND or op == OP_ENDMBU:
            flush_run()
            stack.pop()
        else:  # OP_MZ / OP_MX / OP_NOISE
            flush_run()
            stack[-1].items.append(("instr", instr))
    flush_run()

    fused = FusedProgram(
        num_qubits=program.num_qubits,
        num_bits=program.num_bits,
        root=root,
        scopes=tuple(scopes),
        scalar=program,
        has_tally=program.has_tally,
        source=program.source,
    )
    if memoize:
        with _FUSED_MEMO_LOCK:
            if len(_FUSED_MEMO) >= _FUSED_MEMO_MAX:
                _FUSED_MEMO.pop(next(iter(_FUSED_MEMO)))
            _FUSED_MEMO[id(program)] = (program, fused)
    return fused
