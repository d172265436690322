"""Native tier: time-axis-vectorized macro kernels (NumPy / optional Numba).

The macro-step engine (:mod:`repro.core.macropath`) removes per-cycle
Python dispatch by unrolling one sequencer period into straight-line
Python — but every cycle of every Dnode is still a handful of Python
bytecode operations.  This module goes one axis further: it vectorizes
over **time**.  For a steady-state configuration the whole T-cycle
window is one dataflow graph per Dnode phase, so each microword becomes
a single NumPy array operation over all T/period executions at once:

* every Dnode gets a **visible-out array** ``VO`` where ``VO[D + t]``
  is the value of its OUT register visible *during* cycle ``t`` (the
  first ``D + 1`` entries seed the pre-window history: the live OUT
  latch and the downstream switch's feedback pipeline).  An OUT write
  at phase ``p`` is one strided store ``VO[D+1+p :: period] = res_p``;
  the remaining residues are forward-filled from the nearest earlier
  write, so an upstream read at any pipeline lag is a strided load;
* register and SELF reads resolve at compile time to the nearest
  previous writer within the period (same period instance, or the
  previous one — a one-slot shift of that writer's result vector);
* a single-writer MAC accumulating into its own destination register is
  a linear recurrence with the closed form ``cumsum`` (exact in int64:
  products are bounded by 2**30, so billions of terms fit);
* FIFO reads/pops are schedule-determined, so the window is clipped to
  the **safe prefix** the current occupancy can serve with no underflow
  (:meth:`NativePlan.safe_cycles`); host-port reads are sliced from a
  bulk host window's word arrays (or pre-gathered in interpreter order
  from a per-cycle reader), and a bulk window's tap samples are slices
  of the tapped Dnode's ``VO`` array.

The generated kernel is one pure-array function ``_core``; when Numba
is importable (and not disabled via :func:`set_numba_enabled`) it is
``@njit``-compiled on first use, falling back to the NumPy version on
any compile or first-call failure.  ``_core`` only ever overwrites its
output arrays, so re-running the Python version after a failed jitted
call is safe.

Eligibility — :func:`compile_native` returns None (the ring then falls
back native → macro-step → fast path) when:

* the period exceeds :data:`~repro.core.macropath.MAX_PERIOD` or the
  unroll cap (same limits as the macro tier);
* any routed feedback tap or feedback-source operand is out of range
  (the interpreter raises at runtime; the fall-back engines reproduce
  that error exactly);
* the Dnode dependence graph over one cycle is cyclic (a ring-closing
  configuration where every layer feeds the next has no time-parallel
  order), or a within-Dnode register dependence is a non-MAC recurrence
  (e.g. a cross-phase register swap, or a saturating MACS accumulator —
  saturation is not linear, so there is no closed form).

Bit-identity: for every completed window the native tier commits
exactly the interpreter's architectural state — OUT latches, register
files, pipelines, FIFO contents and pop accounting, statistics, cycle
counters, host-read order.  Like the macro tier, an aborted window
(host reader missing / invalid word) commits nothing: divergence from
the interpreter is bounded to the error cycle itself.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING, Union

import numpy as np

from repro import word
from repro.core.alu import NUMPY, render_expr, signed_expr
from repro.core.dnode import DnodeMode, _MULTIPLY_OPS, _OP_COST
from repro.core.hostio import HostWindow
from repro.core.isa import Dest, Flag, Opcode, Source
from repro.core.macropath import MAX_PERIOD, MAX_UNROLL_CELLS, macro_period
from repro.core.plancache import Ineligible
from repro.core.switch import PortKind
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring

#: Cap on Dnode-count x window-cycles per kernel call: windows beyond it
#: are split, bounding peak VO-array memory (~8 MB of int64 at the cap).
MAX_WINDOW_CELLS = 1 << 20

#: Sentinel: jit resolution finished, native kernel runs as plain NumPy.
_JIT_OFF = object()

_NUMBA = {"enabled": True}


def set_numba_enabled(enabled: bool) -> None:
    """Gate the optional Numba jit globally (tests force the pure-NumPy
    path with False; plans already jitted keep their compiled kernel)."""
    _NUMBA["enabled"] = bool(enabled)


def numba_available() -> bool:
    """True when Numba can be imported and is not disabled."""
    if not _NUMBA["enabled"]:
        return False
    try:
        import numba  # noqa: F401 - availability probe
    except Exception:
        return False
    return hasattr(numba, "njit")


class _Ineligible(Exception):
    """Internal: configuration cannot be time-vectorized."""


class NativePlan:
    """One steady-state configuration compiled to a time-vector kernel."""

    __slots__ = ("period", "source", "_core", "_jit", "_counter_entries",
                 "_meta", "_max_periods")

    def __init__(self, period, core, source, counter_entries, meta,
                 max_periods):
        self.period = period
        self.source = source
        self._core = core
        self._jit = None
        self._counter_entries = counter_entries
        self._meta = meta
        self._max_periods = max_periods

    def matches_phase(self) -> bool:
        """True when every local counter sits at the baked entry phase."""
        for lc, c0, _limit in self._counter_entries:
            if lc._counter != c0:
                return False
        return True

    def entry_phase(self) -> tuple:
        """The baked entry counters (the ring's native cache key part)."""
        return tuple(c0 for _lc, c0, _limit in self._counter_entries)

    def safe_cycles(self, cycles: int) -> int:
        """Longest whole-period prefix of *cycles* this plan can run with
        no FIFO underflow, given the live queue occupancies.

        The schedule fixes pops-per-period and the read offsets within a
        period, so safety is a pure occupancy computation; the unsafe
        remainder falls back to the macro/fast-path tiers, which handle
        underflow (and strict-FIFO errors) cycle-exactly.
        """
        per = self.period
        n = cycles // per
        if n <= 0:
            return 0
        for queue, ppp, maxprefix in self._meta["fifo_gates"]:
            occ = len(queue)
            if ppp == 0:
                # Reads but never a pop: any occupancy serves forever.
                if occ == 0:
                    return 0
                continue
            limit = occ // ppp
            if maxprefix is not None:
                limit = min(limit, (occ - maxprefix - 1) // ppp + 1)
            n = min(n, limit)
            if n <= 0:
                return 0
        return n * per

    def jit_active(self) -> bool:
        """True when the kernel currently runs through a jitted build."""
        return self._jit is not None and self._jit is not _JIT_OFF

    def run(self, cycles: int, bus: int, host_in) -> None:
        """Advance *cycles* fabric clocks (must be a safe period multiple)."""
        n = cycles // self.period
        while n > 0:
            m = min(n, self._max_periods)
            self._window(m, bus, host_in)
            n -= m

    # ------------------------------------------------------------------

    def _resolve_kernel(self):
        jit = self._jit
        if jit is None:
            jit = _JIT_OFF
            if numba_available():
                try:
                    import numba
                    jit = numba.njit(cache=False)(self._core)
                except Exception:
                    jit = _JIT_OFF
            self._jit = jit
        return self._core if jit is _JIT_OFF else jit

    def _window(self, n: int, bus: int, host_in) -> None:
        """Run one n-period window: gather, kernel, write back."""
        meta = self._meta
        ring = meta["ring"]
        depth = meta["depth"]
        T = n * self.period
        c0 = ring.cycles

        # Host words: a bulk window's arrays are sliced at this window's
        # cycle offset.  A per-cycle reader is gathered in the
        # interpreter's routed-port order (layer, position, port), with
        # ring.cycles tracking the simulated cycle so cycle-dependent
        # host closures observe exactly what they would per-cycle;
        # nothing is committed if a read raises.
        host_ports = meta["host_ports"]
        window = host_in if type(host_in) is HostWindow else None
        hv: List[np.ndarray] = []
        if host_ports and window is not None:
            off = c0 - window.base
            hv = [window.array(ch)[off:off + T]
                  for _l, _p, _port, ch in host_ports]
        elif host_ports:
            if host_in is None:
                l, p, port, ch = host_ports[0]
                raise SimulationError(
                    f"switch {l} routes port {port} of position {p} to "
                    f"host channel {ch}, but no host reader was supplied"
                )
            hv = [np.empty(T, np.int64) for _ in host_ports]
            try:
                for j in range(T):
                    ring.cycles = c0 + j
                    for slot, (_l, _p, _port, ch) in enumerate(host_ports):
                        hv[slot][j] = word.check(
                            host_in(ch), f"host channel {ch}")
            finally:
                ring.cycles = c0

        # FIFO gather: each read site gets its length-n value vector.
        fv: List[np.ndarray] = []
        for queue, prefix, ppp in meta["fifo_reads"]:
            if ppp:
                needed = prefix + (n - 1) * ppp + 1
                head = np.fromiter(
                    itertools.islice(queue, needed), np.int64, needed)
                fv.append(head[prefix::ppp][:n])
            else:
                fv.append(np.zeros(n, np.int64) + queue[0])

        init = np.empty(max(1, len(meta["init_fill"])), np.int64)
        for i, (kind, obj, idx) in enumerate(meta["init_fill"]):
            init[i] = obj[idx] if kind == "reg" else obj._out

        # VO history seed: Rp(s) of the downstream switch is the OUT
        # visible s cycles ago, stored at VO[depth - s].
        vos: List[np.ndarray] = []
        for dn, down_sw, p in meta["vo_seed"]:
            pipe = down_sw._pipes[p]
            head = down_sw._head
            vo = np.empty(T + depth + 1, np.int64)
            vo[:depth] = [pipe[(head + depth - 1 - i) % depth]
                          for i in range(depth)]
            vo[depth] = dn._out
            vos.append(vo)

        fin = np.zeros(max(1, meta["fin_count"]), np.int64)
        args = (n, bus, init, fin, *vos, *hv, *fv)
        core = self._resolve_kernel()
        if core is self._core:
            core(*args)
        else:
            try:
                core(*args)
            except Exception:
                # A jitted build that fails at call time (unsupported
                # construct surfacing late) is retired permanently; the
                # kernel only overwrites its outputs, so re-running the
                # NumPy version recomputes the window exactly.
                self._jit = _JIT_OFF
                self._core(*args)

        for values, r, k in meta["fin_regs"]:
            values[r] = int(fin[k])
        for i, (dn, _sw, _p) in enumerate(meta["vo_seed"]):
            dn._out = int(vos[i][depth + T])
        for sw, lane_vo in meta["pipes"]:
            head = sw._head
            for pipe, vi in zip(sw._pipes, lane_vo):
                tail = vos[vi][T:T + depth].tolist()
                for i in range(depth):
                    pipe[(head + depth - 1 - i) % depth] = tail[i]
        for queue, pops, stats in meta["fifo_pops"]:
            total = n * pops
            for _ in range(total):
                queue.popleft()
            stats.fifo_pops += total
        for stats in meta["all_stats"]:
            stats.cycles += T
        for stats, ti, ta, tm in meta["stat_totals"]:
            stats.instructions += n * ti
            stats.arithmetic_ops += n * ta
            if tm:
                stats.multiplies += n * tm
        # Entry phase is period-preserving (every LIMIT divides the
        # period), so local counters are already correct; only the
        # global clocks move.
        ring.cycles = c0 + T
        ring.native_cycles += T
        if window is not None:
            # Post-commit OUT after cycle t is the value visible during
            # t + 1: the tap history is one slice of the VO array.
            width = meta["width"]
            for (l, p), samples in window.history.items():
                vo = vos[l * width + p]
                samples.extend(vo[depth + 1:depth + 1 + T].tolist())


def compile_native(ring: "Ring") -> Optional[NativePlan]:
    """Compile *ring*'s current configuration into a native plan.

    Returns None when the configuration is ineligible; the caller falls
    back to the macro-step / fast-path tiers.
    """
    plan = try_native(ring)
    return None if type(plan) is Ineligible else plan


def try_native(ring: "Ring") -> Union[NativePlan, Ineligible]:
    """Like :func:`compile_native`, but an ineligible configuration
    yields an :class:`~repro.core.plancache.Ineligible` verdict naming
    the reason."""
    try:
        return _compile(ring)
    except _Ineligible as exc:
        return Ineligible("native", str(exc))


def _compile(ring: "Ring") -> NativePlan:
    geometry = ring.geometry
    period = macro_period(ring)
    if period > MAX_PERIOD or period * geometry.dnodes > MAX_UNROLL_CELLS:
        raise _Ineligible("period too long to unroll")
    layers, width = geometry.layers, geometry.width
    depth = geometry.pipeline_depth
    P = period

    def dn_index(l: int, p: int) -> int:
        return l * width + p

    # --- per-phase microword schedule (same extraction as macropath) --
    counter_entries = []
    schedule: Dict[Tuple[int, int], list] = {}
    for l in range(layers):
        for p in range(width):
            dn = ring._dnodes[l][p]
            if dn.mode is DnodeMode.LOCAL:
                lc = dn.local
                limit = lc.limit
                c0 = lc._counter
                counter_entries.append((lc, c0, limit))
                slots = lc.slots()
                schedule[(l, p)] = [slots[(c0 + j) % limit]
                                    for j in range(P)]
            else:
                schedule[(l, p)] = [dn.global_word] * P

    # --- routed-port survey -------------------------------------------
    # The interpreter resolves BOTH routed ports of every position every
    # cycle: host channels are read (in layer/position/port order) and
    # out-of-range feedback taps raise, whether or not the microword
    # uses the operand.  Host ports become pre-gathered arrays; an
    # out-of-range tap anywhere makes the window ineligible so the
    # fall-back engines surface the identical runtime error.
    host_ports: List[Tuple[int, int, int, int]] = []
    host_slot: Dict[Tuple[int, int, int], int] = {}
    port_src: Dict[Tuple[int, int, int], object] = {}
    for l in range(layers):
        sw = ring._switches[l]
        for p in range(width):
            for port in (1, 2):
                src = sw.config.source_for(p, port)
                port_src[(l, p, port)] = src
                if src.kind is PortKind.HOST:
                    host_slot[(l, p, port)] = len(host_ports)
                    host_ports.append((l, p, port, src.index))
                elif src.kind is PortKind.RP:
                    if not (1 <= src.index <= depth
                            and 1 <= src.lane <= width):
                        raise _Ineligible("out-of-range feedback tap")

    # --- operand resolution -------------------------------------------
    init_index: Dict[tuple, int] = {}
    init_fill: List[tuple] = []

    def init_of(key, accessor) -> int:
        idx = init_index.get(key)
        if idx is None:
            idx = len(init_fill)
            init_index[key] = idx
            init_fill.append(accessor)
        return idx

    fifo_slot: Dict[Tuple[int, int, int, int], int] = {}
    fifo_reads: List[tuple] = []      # (queue, prefix, pops_per_period)
    fifo_read_prefixes: Dict[Tuple[int, int, int], int] = {}
    pop_phases: Dict[Tuple[int, int, int], List[int]] = {}
    for (l, p), sched in schedule.items():
        for phase, mw in enumerate(sched):
            if mw.flags & Flag.POP_FIFO1:
                pop_phases.setdefault((l, p, 1), []).append(phase)
            if mw.flags & Flag.POP_FIFO2:
                pop_phases.setdefault((l, p, 2), []).append(phase)

    # ops[dnode index][phase] -> op record for computed results
    ops: Dict[int, Dict[int, dict]] = {i: {} for i in
                                       range(geometry.dnodes)}
    # FIFO read sites that compute nothing (Dest.NONE) still gate safety.

    for l in range(layers):
        lu = ring.upstream_layer(l)
        for p in range(width):
            dn = ring._dnodes[l][p]
            i = dn_index(l, p)
            sched = schedule[(l, p)]
            reg_writers: List[List[int]] = [[] for _ in range(4)]
            out_writers: List[int] = []
            for phase, mw in enumerate(sched):
                if mw.op is Opcode.NOP:
                    continue
                if mw.dst.is_register:
                    reg_writers[int(mw.dst)].append(phase)
                if mw.dst is Dest.OUT or mw.flags & Flag.WRITE_OUT:
                    out_writers.append(phase)

            def resolve_writers(phase, writers, init_key, accessor):
                prev = [w for w in writers if w < phase]
                if prev:
                    return ("res", max(prev))
                if writers:
                    return ("res1", max(writers),
                            init_of(init_key, accessor))
                return ("init", init_of(init_key, accessor))

            def resolve_reg(phase, r):
                return resolve_writers(
                    phase, reg_writers[r], ("reg", l, p, r),
                    ("reg", dn.regs._values, r))

            def fifo_operand(phase, ch):
                pops = pop_phases.get((l, p, ch), ())
                prefix = sum(1 for q in pops if q < phase)
                seen = fifo_read_prefixes.get((l, p, ch))
                if seen is None or prefix > seen:
                    fifo_read_prefixes[(l, p, ch)] = prefix
                key = (l, p, ch, prefix)
                slot = fifo_slot.get(key)
                if slot is None:
                    slot = len(fifo_reads)
                    fifo_slot[key] = slot
                    fifo_reads.append(
                        (ring.fifo(l, p, ch), prefix, len(pops)))
                return ("fifo", slot)

            def port_operand(phase, port):
                src = port_src[(l, p, port)]
                kind = src.kind
                if kind is PortKind.ZERO:
                    return ("const", 0)
                if kind is PortKind.UP:
                    return ("vo", lu, src.index, 0)
                if kind is PortKind.RP:
                    return ("vo", lu, src.lane - 1, src.index)
                if kind is PortKind.BUS:
                    return ("bus",)
                if kind is PortKind.HOST:
                    return ("host", host_slot[(l, p, port)])
                raise _Ineligible(f"unhandled port source {src!r}")

            def resolve_src(phase, mw, src):
                if src <= Source.R3:
                    return resolve_reg(phase, int(src))
                if src is Source.IN1:
                    return port_operand(phase, 1)
                if src is Source.IN2:
                    return port_operand(phase, 2)
                if src is Source.FIFO1:
                    return fifo_operand(phase, 1)
                if src is Source.FIFO2:
                    return fifo_operand(phase, 2)
                if src is Source.BUS:
                    return ("bus",)
                if src is Source.IMM:
                    return ("const", mw.imm)
                if src is Source.SELF:
                    return resolve_writers(
                        phase, out_writers, ("out", l, p),
                        ("out", dn, 0))
                if src is Source.ZERO:
                    return ("const", 0)
                if src.is_feedback:
                    stage = src.feedback_stage
                    lane = src.feedback_lane
                    if not (stage <= depth and lane <= width):
                        raise _Ineligible("out-of-range feedback source")
                    return ("vo", lu, lane - 1, stage)
                raise _Ineligible(f"unhandled source {src!r}")

            for phase, mw in enumerate(sched):
                if mw.op is Opcode.NOP:
                    continue
                computed = (mw.dst.is_register or mw.dst is Dest.OUT
                            or bool(mw.flags & Flag.WRITE_OUT))
                a = resolve_src(phase, mw, mw.src_a)
                b = (resolve_src(phase, mw, mw.src_b)
                     if mw.is_binary else None)
                acc = (resolve_reg(phase, int(mw.dst))
                       if mw.op in (Opcode.MAC, Opcode.MACS) else None)
                if not computed:
                    # Result discarded (Dest.NONE, no WRITE_OUT): the
                    # operand *reads* above still registered their FIFO
                    # gating; nothing to generate.
                    continue

                def dep_of(opnd):
                    if opnd is not None and opnd[0] in ("res", "res1"):
                        return opnd[1]
                    return None

                recurrent = False
                deps = set()
                for opnd in (a, b):
                    d = dep_of(opnd)
                    if d == phase:
                        raise _Ineligible("operand self-recurrence")
                    if d is not None:
                        deps.add(d)
                d = dep_of(acc)
                if d == phase:
                    # Single-writer MAC into its own register: linear
                    # recurrence with an exact cumsum closed form.
                    # MACS saturates (non-linear): no closed form.
                    if mw.op is not Opcode.MAC:
                        raise _Ineligible("saturating accumulator loop")
                    recurrent = True
                elif d is not None:
                    deps.add(d)
                ops[i][phase] = {
                    "mw": mw, "a": a, "b": b, "acc": acc,
                    "recurrent": recurrent, "deps": deps,
                    "reg_writers": reg_writers, "out_writers": out_writers,
                }
            # Stash the writer maps even for all-NOP dnodes (needed for
            # VO fill + final writeback bookkeeping).
            ops[i]["_writers"] = (reg_writers, out_writers)  # type: ignore

    # --- within-Dnode op order (Kahn; any residual cycle bails) -------
    op_order: Dict[int, List[int]] = {}
    for i, table in ops.items():
        phases = [ph for ph in table if isinstance(ph, int)]
        indeg = {ph: 0 for ph in phases}
        users: Dict[int, List[int]] = {ph: [] for ph in phases}
        for ph in phases:
            for d in table[ph]["deps"]:
                indeg[ph] += 1
                users[d].append(ph)
        ready = sorted(ph for ph in phases if indeg[ph] == 0)
        order: List[int] = []
        while ready:
            ph = ready.pop(0)
            order.append(ph)
            for u in sorted(users[ph]):
                indeg[u] -= 1
                if indeg[u] == 0:
                    ready.append(u)
        if len(order) != len(phases):
            raise _Ineligible("cyclic register dependence")
        op_order[i] = order

    # --- Dnode-level dependence graph over the window -----------------
    dn_deps: Dict[int, set] = {i: set() for i in range(geometry.dnodes)}
    for i, table in ops.items():
        for ph in op_order[i]:
            rec = table[ph]
            for opnd in (rec["a"], rec["b"], rec["acc"]):
                if opnd is not None and opnd[0] == "vo":
                    dn_deps[i].add(dn_index(opnd[1], opnd[2]))
    indeg = {i: len(dn_deps[i]) for i in dn_deps}
    users2: Dict[int, List[int]] = {i: [] for i in dn_deps}
    for i, deps in dn_deps.items():
        for d in deps:
            users2[d].append(i)
    ready = sorted(i for i in dn_deps if indeg[i] == 0)
    dn_order: List[int] = []
    while ready:
        i = ready.pop(0)
        dn_order.append(i)
        for u in sorted(users2[i]):
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if len(dn_order) != geometry.dnodes:
        raise _Ineligible("cross-Dnode dependence cycle")

    # --- code generation ----------------------------------------------
    lines: List[str] = []
    temp_count = [0]

    def emit(text: str) -> None:
        lines.append("    " + text)

    def operand_expr(i: int, phase: int, opnd) -> Tuple[str, bool]:
        tag = opnd[0]
        if tag == "const":
            return str(opnd[1]), False
        if tag == "bus":
            return "bus", False
        if tag == "init":
            return f"_INIT[{opnd[1]}]", False
        if tag == "vo":
            ul, up, lag = opnd[1], opnd[2], opnd[3]
            start = depth + phase - lag
            return (f"_vo_{dn_index(ul, up)}"
                    f"[{start}:{start} + n * {P}:{P}]"), True
        if tag == "res":
            return f"_r_{i}_{opnd[1]}", True
        if tag == "res1":
            psi, ii = opnd[1], opnd[2]
            temp_count[0] += 1
            t = f"_t{temp_count[0]}"
            emit(f"{t} = np.empty(n, np.int64)")
            emit(f"{t}[0] = _INIT[{ii}]")
            emit(f"{t}[1:] = _r_{i}_{psi}[:n - 1]")
            return t, True
        if tag == "host":
            return (f"_hv_{opnd[1]}[{phase}:{phase} + n * {P}:{P}]"), True
        if tag == "fifo":
            return f"_fv_{opnd[1]}", True
        raise _Ineligible(f"unhandled operand {opnd!r}")

    fin_index: Dict[tuple, int] = {}
    fin_regs: List[tuple] = []

    for i in dn_order:
        l, p = divmod(i, width)
        dn = ring._dnodes[l][p]
        table = ops[i]
        reg_writers, out_writers = table["_writers"]  # type: ignore
        for ph in op_order[i]:
            rec = table[ph]
            mw = rec["mw"]
            a, a_arr = operand_expr(i, ph, rec["a"])
            b = b_arr = None
            if rec["b"] is not None:
                b, b_arr = operand_expr(i, ph, rec["b"])
            if rec["recurrent"]:
                acc_init = rec["acc"][2]
                prod = (f"(np.zeros(n, np.int64) + "
                        f"({signed_expr(a)} * {signed_expr(b)}))")
                expr = (f"(np.cumsum({prod}) + "
                        f"((_INIT[{acc_init}] ^ 32768) - 32768)) & 65535")
                emit(f"_r_{i}_{ph} = {expr}")
                continue
            acc = None
            acc_arr = False
            if rec["acc"] is not None:
                acc, acc_arr = operand_expr(i, ph, rec["acc"])
            expr = render_expr(mw.op, NUMPY, a, b, acc,
                               str(word.to_signed(mw.imm)))
            if not (a_arr or b_arr or acc_arr):
                expr = f"np.zeros(n, np.int64) + ({expr})"
            emit(f"_r_{i}_{ph} = {expr}")

        # Final register values: the chronologically last writer's last
        # element.
        for r in range(4):
            writers = reg_writers[r]
            if writers:
                k = len(fin_regs)
                fin_index[(i, r)] = k
                fin_regs.append((dn.regs._values, r, k))
                emit(f"_FIN[{k}] = _r_{i}_{max(writers)}[n - 1]")

        # Visible-out materialization: strided stores for write phases,
        # forward fill for the rest (sources are always write residues,
        # so fill order is irrelevant).
        wset = sorted(set(out_writers))
        if not wset:
            emit(f"_vo_{i}[{depth + 1}:] = _vo_{i}[{depth}]")
        else:
            for psi in wset:
                start = depth + 1 + psi
                emit(f"_vo_{i}[{start}:{start} + n * {P}:{P}] "
                     f"= _r_{i}_{psi}")
            for c in range(P):
                if c in wset:
                    continue
                delta = min((c - psi) % P for psi in wset)
                s = c - delta
                t0 = depth + 1 + c
                if s >= 0:
                    s0 = depth + 1 + s
                    emit(f"_vo_{i}[{t0}:{t0} + n * {P}:{P}] "
                         f"= _vo_{i}[{s0}:{s0} + n * {P}:{P}]")
                else:
                    s0 = depth + 1 + s + P
                    emit(f"_vo_{i}[{t0 + P}:{t0} + n * {P}:{P}] "
                         f"= _vo_{i}[{s0}:{s0} + (n - 1) * {P}:{P}]")
                    emit(f"_vo_{i}[{t0}] = _vo_{i}[{depth}]")

    # --- kernel assembly ----------------------------------------------
    params = ["n", "bus", "_INIT", "_FIN"]
    params += [f"_vo_{i}" for i in range(geometry.dnodes)]
    params += [f"_hv_{j}" for j in range(len(host_ports))]
    params += [f"_fv_{j}" for j in range(len(fifo_reads))]
    header = f"def _core({', '.join(params)}):"
    body = lines if lines else ["    pass"]
    source = "\n".join([header] + body) + "\n"
    env: Dict[str, object] = {"np": np}
    code = compile(source, f"<native period={P} ring={ring!r}>", "exec")
    exec(code, env)

    # --- runtime metadata ---------------------------------------------
    vo_seed = []
    for i in range(geometry.dnodes):
        l, p = divmod(i, width)
        down = ring._switches[(l + 1) % layers]
        vo_seed.append((ring._dnodes[l][p], down, p))
    pipes = []
    for k in range(layers):
        lu = ring.upstream_layer(k)
        pipes.append((ring._switches[k],
                      [dn_index(lu, j) for j in range(width)]))

    fifo_gates = []
    fifo_pops = []
    keys = set(pop_phases) | set(fifo_read_prefixes)
    for key in sorted(keys):
        l, p, ch = key
        queue = ring.fifo(l, p, ch)
        ppp = len(pop_phases.get(key, ()))
        maxprefix = fifo_read_prefixes.get(key)
        fifo_gates.append((queue, ppp, maxprefix))
        if ppp:
            fifo_pops.append((queue, ppp, ring._dnodes[l][p].stats))

    stat_totals = []
    for l in range(layers):
        for p in range(width):
            ti = ta = tm = 0
            for mw in schedule[(l, p)]:
                if mw.op is not Opcode.NOP:
                    ti += 1
                    ta += _OP_COST.get(mw.op, 1)
                    if mw.op in _MULTIPLY_OPS:
                        tm += 1
            if ti:
                stat_totals.append(
                    (ring._dnodes[l][p].stats, ti, ta, tm))

    meta = {
        "ring": ring,
        "depth": depth,
        "width": width,
        "host_ports": host_ports,
        "fifo_reads": fifo_reads,
        "fifo_gates": fifo_gates,
        "fifo_pops": fifo_pops,
        "init_fill": init_fill,
        "vo_seed": vo_seed,
        "pipes": pipes,
        "fin_count": len(fin_regs),
        "fin_regs": fin_regs,
        "all_stats": tuple(dn.stats for dn in ring.all_dnodes()),
        "stat_totals": stat_totals,
    }
    max_periods = max(1, MAX_WINDOW_CELLS // max(1, geometry.dnodes * P))
    return NativePlan(P, env["_core"], source, tuple(counter_entries),
                      meta, max_periods)


__all__ = ["NativePlan", "compile_native", "try_native",
           "numba_available", "set_numba_enabled", "MAX_WINDOW_CELLS"]
