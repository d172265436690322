"""Pre-decoded steady-state execution engine for the ring fabric.

The paper's scalability argument (§4.2) rests on the configuration being
*static between controller writes*: the datapath does no per-cycle decode —
routing, microwords and modes are latched state, and the clock merely moves
data through them.  The generic :meth:`~repro.core.ring.Ring.step`
interpreter re-derives all of that every cycle (enum dispatch through the
switch routing, a fresh ``DnodeInputs`` record and FIFO/Rp accessor
closures per Dnode, O(depth) pipeline shifts).  This module performs that
derivation **once per configuration**, compiling the fabric into flat
per-Dnode thunks:

* every operand fetch is resolved to a direct closure over the concrete
  upstream Dnode, feedback-pipeline slot, FIFO deque, bus or host channel
  it reads — no routing tables or enum dispatch on the cycle path;
* execute/stage/commit work is specialised per microword (per local-
  sequencer slot in local mode), so idle Dnodes cost nothing at all;
* feedback pipelines advance by one ring-buffer index write per lane.

Semantics are bit-identical to the interpreter for every observable state
element (registers, OUT latches, pipelines, FIFOs, counters, statistics,
underflow accounting, and error behaviour on non-aborted cycles); the
equivalence suite in ``tests/core/test_fastpath_equivalence.py`` proves it
on randomised programs.  The only divergence is *inside* a cycle aborted
by a strict-FIFO error: the interpreter raises before shifting the
feedback pipelines, the fast path after (and per-Dnode ``stats.cycles``
reflects completed cycles only).

The :class:`~repro.core.ring.Ring` owns plan lifetime: every configuration
mutation (Dnode microword/mode, local-sequencer slot/LIMIT, switch route)
invalidates the current plan, the next cycle falls back to the
interpreter, and a new plan is compiled once the configuration has been
stable for a full cycle — so controller-driven hardware multiplexing
(a reconfiguration every cycle) never pays compilation overhead.

Observability composes with the plan rather than disabling it: a *sampled*
observer (a :class:`~repro.analysis.trace.SignalTrace` with a capture
interval or cycle window) lets :meth:`~repro.core.ring.Ring.run` chunk-run
the compiled thunks between capture points — ``plan.run(n)`` up to the
next due cycle, one observer dispatch, repeat — so traced steady state
keeps batched execution.  Only an every-cycle observer forces per-cycle
dispatch.  Because a chunk boundary is an ordinary post-commit point, the
captured samples are bit-identical to an interpreted (or every-cycle
traced) run decimated to the same schedule.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro import word
from repro.core.alu import SCALAR, render_expr
from repro.core.dnode import (
    Dnode,
    DnodeMode,
    _MULTIPLY_OPS,
    _OP_COST,
)
from repro.core.hostio import HostWindow
from repro.core.isa import (
    ACCUMULATING_OPS,
    Dest,
    Flag,
    MicroWord,
    Opcode,
    Source,
    is_binary_op,
)
from repro.core.switch import PortKind, Switch
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring

#: Signature of every compiled per-cycle callable: ``(bus, host_in)``.
CycleThunk = Callable[[int, Optional[Callable[[int], int]]], object]


class CompiledPlan:
    """One fabric configuration compiled to flat per-cycle thunks.

    The plan also owns the configuration's fused kernels: ``kernels``
    maps ``(tier, entry phase)`` to a macro or native kernel, or to the
    :class:`~repro.core.plancache.Ineligible` verdict that refused it,
    so the kernels live and die with the plan in the ring's plan cache.
    """

    __slots__ = ("_ring", "_evals", "_shifts", "_commits", "_stats",
                 "kernels")

    def __init__(self, ring: "Ring", evals, shifts, commits, stats):
        self._ring = ring
        self._evals = tuple(evals)
        self._shifts = tuple(shifts)
        self._commits = tuple(commits)
        self._stats = tuple(stats)
        self.kernels: dict = {}

    def run(self, cycles: int, bus: int,
            host_in: Optional[Callable[[int], int]]) -> int:
        """Execute *cycles* fabric clocks through the compiled thunks.

        The caller (the ring) has already validated ``bus`` and checked
        that this plan is current.  A bulk
        :class:`~repro.core.hostio.HostWindow` serves as the host reader
        and gets its tap samples appended after each commit.  Returns the
        number of cycles fully executed (== *cycles* unless an exception
        aborts the run).
        """
        ring = self._ring
        evals = self._evals
        shifts = self._shifts
        commits = self._commits
        recorders = (host_in.recorders() if type(host_in) is HostWindow
                     else ())
        executed = 0
        try:
            for _ in range(cycles):
                for ev in evals:
                    ev(bus, host_in)
                for sh in shifts:
                    sh()
                for cm in commits:
                    cm()
                ring.cycles += 1
                executed += 1
                for dn, record in recorders:
                    record(dn._out)
        finally:
            if executed:
                for stats in self._stats:
                    stats.cycles += executed
        return executed


# ----------------------------------------------------------------------
# Operand-fetch compilation
# ----------------------------------------------------------------------


def _const_getter(value: int) -> CycleThunk:
    return lambda bus, host_in, _v=value: _v


def _up_getter(upstream: Dnode) -> CycleThunk:
    return lambda bus, host_in, _u=upstream: _u._out


def _self_getter(dn: Dnode) -> CycleThunk:
    return lambda bus, host_in, _d=dn: _d._out


def _bus_getter() -> CycleThunk:
    return lambda bus, host_in: bus


def _reg_getter(dn: Dnode, index: int) -> CycleThunk:
    return lambda bus, host_in, _v=dn.regs._values, _i=index: _v[_i]


def _rp_getter(sw: Switch, stage: int, lane: int) -> CycleThunk:
    """Feedback tap read, resolved to a rotating-buffer index."""
    if not (1 <= stage <= sw.pipeline_depth and 1 <= lane <= sw.width):
        # Out-of-range taps are a runtime error in the interpreter (the
        # geometry can have a shallower pipeline than the ISA's Rp range);
        # reproduce the identical error lazily at read time.
        return lambda bus, host_in, _s=sw, _st=stage, _ln=lane: \
            _s.rp_read(_st, _ln)
    pipe = sw._pipes[lane - 1]
    offset = stage - 1
    depth = sw.pipeline_depth
    return lambda bus, host_in, _p=pipe, _s=sw, _o=offset, _d=depth: \
        _p[(_s._head + _o) % _d]


def _fifo_getter(ring: "Ring", dn: Dnode, channel: int) -> CycleThunk:
    queue = ring.fifo(dn.layer, dn.position, channel)
    check = word.check
    what = f"{dn.name} FIFO{channel}"

    def get(bus, host_in, _q=queue, _r=ring, _l=dn.layer, _p=dn.position,
            _c=channel, _check=check, _what=what):
        if _q:
            return _check(_q[0], _what)
        if _r.strict_fifos:
            raise SimulationError(
                f"D{_l}.{_p} read empty FIFO{_c} at cycle {_r.cycles}"
            )
        _r.fifo_underflows += 1
        return 0

    return get


def _host_fetch(sw: Switch, pos: int, port: int, channel: int,
                cell: List[int], slot: int) -> CycleThunk:
    """Eager direct-port read: one host call per routed port per cycle."""
    check = word.check

    def fetch(bus, host_in, _sw=sw, _pos=pos, _port=port, _ch=channel,
              _cell=cell, _slot=slot, _check=check):
        if host_in is None:
            raise SimulationError(
                f"switch {_sw.index} routes port {_port} of position "
                f"{_pos} to host channel {_ch}, but no host "
                f"reader was supplied"
            )
        _cell[_slot] = _check(host_in(_ch), f"host channel {_ch}")

    return fetch


def _compile_ports(ring: "Ring", sw: Switch, upstream: List[Dnode],
                   pos: int):
    """Resolve both switch input ports of one downstream Dnode.

    Returns ``(getters, eagers)``: per-port value getters for operand use,
    plus the fetches that must run every cycle regardless of use because
    they are observable — host-port reads (stream underrun accounting and
    the missing-reader error) and out-of-range feedback taps, which the
    interpreter resolves eagerly for every routed port.
    """
    getters = {}
    eagers = []
    cell = [0, 0]
    for port in (1, 2):
        src = sw.config.source_for(pos, port)
        kind = src.kind
        if kind is PortKind.ZERO:
            getters[port] = _const_getter(0)
        elif kind is PortKind.UP:
            getters[port] = _up_getter(upstream[src.index])
        elif kind is PortKind.RP:
            getter = _rp_getter(sw, src.index, src.lane)
            getters[port] = getter
            if not (1 <= src.index <= sw.pipeline_depth
                    and 1 <= src.lane <= sw.width):
                eagers.append(getter)
        elif kind is PortKind.BUS:
            getters[port] = _bus_getter()
        elif kind is PortKind.HOST:
            slot = port - 1
            eagers.append(_host_fetch(sw, pos, port, src.index, cell, slot))
            getters[port] = (
                lambda bus, host_in, _cell=cell, _slot=slot: _cell[_slot])
        else:  # pragma: no cover - exhaustive over PortKind
            raise SimulationError(f"unhandled port source {src!r}")
    return getters, eagers


def _operand_getter(ring: "Ring", dn: Dnode, sw: Switch, mw: MicroWord,
                    src: Source, port_getters) -> CycleThunk:
    if src <= Source.R3:
        return _reg_getter(dn, int(src))
    if src is Source.IN1:
        return port_getters[1]
    if src is Source.IN2:
        return port_getters[2]
    if src is Source.FIFO1:
        return _fifo_getter(ring, dn, 1)
    if src is Source.FIFO2:
        return _fifo_getter(ring, dn, 2)
    if src is Source.BUS:
        return _bus_getter()
    if src is Source.IMM:
        return _const_getter(mw.imm)
    if src is Source.SELF:
        return _self_getter(dn)
    if src is Source.ZERO:
        return _const_getter(0)
    if src.is_feedback:
        return _rp_getter(sw, src.feedback_stage, src.feedback_lane)
    raise SimulationError(f"unhandled source {src!r}")


# ----------------------------------------------------------------------
# Execute/stage compilation
# ----------------------------------------------------------------------


#: One compute-thunk factory per opcode, rendered from
#: :data:`repro.core.alu.EXPRESSIONS` and shared by every plan, so plan
#: compile cost does not grow with coefficients.
_COMPUTE_FACTORIES: Dict[Opcode, Callable[..., CycleThunk]] = {}


def _compute_factory(op: Opcode) -> Callable[..., CycleThunk]:
    """``make(get_a, get_b, regs, dst, coeff)`` -> *op*'s result thunk.

    Operands are read once into locals: a template may use one twice,
    and a FIFO getter pops.
    """
    factory = _COMPUTE_FACTORIES.get(op)
    if factory is None:
        lines = ["a = _ga(bus, host_in)"]
        b = acc = coeff = None
        if is_binary_op(op):
            lines.append("b = _gb(bus, host_in)")
            b = "b"
        if op in ACCUMULATING_OPS:
            lines.append("acc = _v[_i]")
            acc = "acc"
        if op is Opcode.MADD or op is Opcode.MSUB:
            coeff = "_c"
        lines.append(f"return {render_expr(op, SCALAR, 'a', b, acc, coeff)}")
        source = ("def make(_ga, _gb, _v, _i, _c):\n"
                  "    def compute(bus, host_in):\n"
                  + "".join(f"        {line}\n" for line in lines)
                  + "    return compute\n")
        env = {"_sat": word.saturate_signed}
        exec(source, env)
        factory = _COMPUTE_FACTORIES[op] = env["make"]
    return factory


def _compile_body(ring: "Ring", dn: Dnode, sw: Switch, mw: MicroWord,
                  port_getters) -> Optional[CycleThunk]:
    """Compile the evaluate-phase work of one microword.

    Returns None when the word does nothing observable during evaluation
    (a NOP — its pop requests, if any, are handled at commit).
    """
    if mw.op is Opcode.NOP:
        return None
    get_a = _operand_getter(ring, dn, sw, mw, mw.src_a, port_getters)
    get_b = None
    if mw.is_binary:
        get_b = _operand_getter(ring, dn, sw, mw, mw.src_b, port_getters)
    compute = _compute_factory(mw.op)(get_a, get_b, dn.regs._values,
                                      int(mw.dst), word.to_signed(mw.imm))

    stats = dn.stats
    cost = _OP_COST.get(mw.op, 1)
    count_mul = mw.op in _MULTIPLY_OPS
    rf = dn.regs
    di = int(mw.dst) if mw.dst.is_register else None
    to_out = mw.dst is Dest.OUT or bool(mw.flags & Flag.WRITE_OUT)

    if di is not None and to_out:
        def body(bus, host_in, _s=stats, _c=cost, _mul=count_mul,
                 _f=compute, _rf=rf, _i=di, _d=dn):
            _s.instructions += 1
            _s.arithmetic_ops += _c
            if _mul:
                _s.multiplies += 1
            r = _f(bus, host_in)
            _rf._pending_index = _i
            _rf._pending_value = r
            _d._out_pending = r
    elif di is not None:
        def body(bus, host_in, _s=stats, _c=cost, _mul=count_mul,
                 _f=compute, _rf=rf, _i=di):
            _s.instructions += 1
            _s.arithmetic_ops += _c
            if _mul:
                _s.multiplies += 1
            _rf._pending_value = _f(bus, host_in)
            _rf._pending_index = _i
    elif to_out:
        def body(bus, host_in, _s=stats, _c=cost, _mul=count_mul,
                 _f=compute, _d=dn):
            _s.instructions += 1
            _s.arithmetic_ops += _c
            if _mul:
                _s.multiplies += 1
            _d._out_pending = _f(bus, host_in)
    else:
        def body(bus, host_in, _s=stats, _c=cost, _mul=count_mul,
                 _f=compute):
            _s.instructions += 1
            _s.arithmetic_ops += _c
            if _mul:
                _s.multiplies += 1
            _f(bus, host_in)
    return body


# ----------------------------------------------------------------------
# Commit-phase compilation
# ----------------------------------------------------------------------


def _pops_of(mw: MicroWord) -> tuple:
    pops = []
    if mw.flags & Flag.POP_FIFO1:
        pops.append(1)
    if mw.flags & Flag.POP_FIFO2:
        pops.append(2)
    return tuple(pops)


def _pop_thunk(ring: "Ring", dn: Dnode, channel: int) -> Callable[[], None]:
    """One FIFO pop with the fabric's landed/underflow accounting."""
    queue = ring.fifo(dn.layer, dn.position, channel)
    stats = dn.stats

    def pop(_q=queue, _r=ring, _s=stats, _l=dn.layer, _p=dn.position,
            _c=channel):
        if _q:
            _q.popleft()
            _s.fifo_pops += 1
        elif _r.strict_fifos:
            raise SimulationError(
                f"D{_l}.{_p} popped empty FIFO{_c} at cycle {_r.cycles}"
            )
        else:
            _r.fifo_underflows += 1

    return pop


def _out_commit(dn: Dnode) -> Callable[[], None]:
    def commit_out(_d=dn):
        p = _d._out_pending
        if p is not None:
            _d._out = p
            _d._out_pending = None
    return commit_out


def _compile_commit(ring: "Ring", dn: Dnode,
                    active_words: List[MicroWord],
                    is_local: bool) -> Optional[Callable[[], None]]:
    executing = [mw for mw in active_words if mw.op is not Opcode.NOP]
    writes_reg = any(mw.dst.is_register for mw in executing)
    writes_out = any(mw.dst is Dest.OUT or mw.flags & Flag.WRITE_OUT
                     for mw in executing)
    pops_by_word = [_pops_of(mw) for mw in active_words]
    any_pops = any(pops_by_word)

    actions: List[Callable[[], None]] = []
    if writes_reg:
        actions.append(dn.regs.commit)
    if writes_out:
        actions.append(_out_commit(dn))
    if is_local:
        lc = dn.local
        if any_pops:
            # Pops belong to the slot that executed this cycle — the
            # counter value *before* the sequencer advances.
            table = tuple(
                tuple(_pop_thunk(ring, dn, ch) for ch in pops)
                for pops in pops_by_word
            )

            def advance_and_pop(_lc=lc, _t=table):
                c = _lc._counter
                _lc._counter = (c + 1) % _lc._limit
                for pop in _t[c]:
                    pop()

            actions.append(advance_and_pop)
        else:
            def advance(_lc=lc):
                _lc._counter = (_lc._counter + 1) % _lc._limit
            actions.append(advance)
    elif any_pops:
        for ch in pops_by_word[0]:
            actions.append(_pop_thunk(ring, dn, ch))

    if not actions:
        return None
    if len(actions) == 1:
        return actions[0]
    acts = tuple(actions)

    def commit(_a=acts):
        for action in _a:
            action()

    return commit


# ----------------------------------------------------------------------
# Plan assembly
# ----------------------------------------------------------------------


def _make_shift(sw: Switch, upstream: List[Dnode]) -> Callable[[], None]:
    pairs = tuple(zip(sw._pipes, upstream))
    depth = sw.pipeline_depth

    def shift(_sw=sw, _pairs=pairs, _d=depth):
        head = (_sw._head - 1) % _d
        _sw._head = head
        for pipe, up in _pairs:
            pipe[head] = up._out

    return shift


def _wrap_eagers(eagers, core: Optional[CycleThunk]) -> Optional[CycleThunk]:
    if not eagers:
        return core
    if core is None and len(eagers) == 1:
        return eagers[0]
    fetches = tuple(eagers)
    if core is None:
        def ev(bus, host_in, _f=fetches):
            for fetch in _f:
                fetch(bus, host_in)
        return ev

    def ev(bus, host_in, _f=fetches, _core=core):
        for fetch in _f:
            fetch(bus, host_in)
        _core(bus, host_in)
    return ev


def _compile_dnode(ring: "Ring", dn: Dnode, sw: Switch,
                   upstream: List[Dnode]):
    """Compile one Dnode into (eval thunk, commit thunk), either None."""
    port_getters, eagers = _compile_ports(ring, sw, upstream, dn.position)
    if dn.mode is DnodeMode.LOCAL:
        limit = dn.local.limit
        active_words = dn.local.slots()[:limit]
        bodies = [
            _compile_body(ring, dn, sw, mw, port_getters)
            for mw in active_words
        ]
        core: Optional[CycleThunk] = None
        if any(body is not None for body in bodies):
            slot_bodies = tuple(bodies)
            lc = dn.local

            def core(bus, host_in, _lc=lc, _b=slot_bodies):
                body = _b[_lc._counter]
                if body is not None:
                    body(bus, host_in)
        commit = _compile_commit(ring, dn, active_words, is_local=True)
    else:
        mw = dn.global_word
        active_words = [mw]
        core = _compile_body(ring, dn, sw, mw, port_getters)
        commit = _compile_commit(ring, dn, active_words, is_local=False)
    return _wrap_eagers(eagers, core), commit


def compile_plan(ring: "Ring") -> CompiledPlan:
    """Pre-decode *ring*'s current configuration into a steady-state plan.

    The plan stays bit-identical to the interpreter as long as the
    configuration does not change; the ring invalidates it on every
    configuration mutation and falls back to the interpreter for the
    following cycle.
    """
    geometry = ring.geometry
    evals = []
    commits = []
    stats = []
    for layer in range(geometry.layers):
        sw = ring._switches[layer]
        upstream = ring._dnodes[ring.upstream_layer(layer)]
        for pos in range(geometry.width):
            dn = ring._dnodes[layer][pos]
            stats.append(dn.stats)
            ev, cm = _compile_dnode(ring, dn, sw, upstream)
            if ev is not None:
                evals.append(ev)
            if cm is not None:
                commits.append(cm)
    shifts = [
        _make_shift(ring._switches[k],
                    ring._dnodes[ring.upstream_layer(k)])
        for k in range(geometry.layers)
    ]
    return CompiledPlan(ring, evals, shifts, commits, stats)


__all__ = ["CompiledPlan", "compile_plan"]
