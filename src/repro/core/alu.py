"""Combinational model of the Dnode ALU + hardwired multiplier.

The paper's Dnode datapath (Fig. 3) pairs a 16-bit ALU with a hardwired
multiplier that can be "associated in a fully combinational way", so dual
operations such as multiply-accumulate complete in a single cycle.  This
module is purely functional: :func:`execute_op` maps ``(opcode, a, b, acc)``
to a 16-bit result with no state, which keeps it trivially property-testable.

All values are raw 16-bit bus words (see :mod:`repro.word`).  Signed
interpretation is two's complement.

The scalar handlers are the reference semantics.  The engines that
generate code (macro-step, native and batch) instead read
:data:`EXPRESSIONS`, one expression template per opcode, rendered by
:func:`render_expr` as scalar Python or as NumPy.  Adding an opcode means
an :class:`~repro.core.isa.Opcode` entry, a handler here and a template
here; the INT16 overflow audit checks both renderings against
:func:`execute_op`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro import word
from repro.core.isa import Opcode
from repro.errors import SimulationError


def _add(a: int, b: int) -> int:
    return word.wrap(a + b)


def _sub(a: int, b: int) -> int:
    return word.wrap(a - b)


def _mul_full(a: int, b: int) -> int:
    """Signed 16x16 -> 32-bit product (Python int)."""
    return word.to_signed(a) * word.to_signed(b)


def _mul(a: int, b: int) -> int:
    return _mul_full(a, b) & word.MASK


def _mulh(a: int, b: int) -> int:
    return (_mul_full(a, b) >> word.WIDTH) & word.MASK


def _shift_amount(b: int) -> int:
    """Hardware shifters use the low 4 bits of the amount operand."""
    return b & (word.WIDTH - 1)


def _shl(a: int, b: int) -> int:
    return word.wrap(a << _shift_amount(b))


def _shr(a: int, b: int) -> int:
    return (a & word.MASK) >> _shift_amount(b)


def _asr(a: int, b: int) -> int:
    return word.from_signed(word.to_signed(a) >> _shift_amount(b))


def _abs(a: int) -> int:
    # Like hardware, |INT_MIN| wraps back to INT_MIN (0x8000).
    return word.wrap(abs(word.to_signed(a)))


def _absdiff(a: int, b: int) -> int:
    return word.wrap(abs(word.to_signed(a) - word.to_signed(b)))


def _min(a: int, b: int) -> int:
    return a if word.to_signed(a) <= word.to_signed(b) else b


def _max(a: int, b: int) -> int:
    return a if word.to_signed(a) >= word.to_signed(b) else b


def _addsat(a: int, b: int) -> int:
    return word.saturate_signed(word.to_signed(a) + word.to_signed(b))


def _subsat(a: int, b: int) -> int:
    return word.saturate_signed(word.to_signed(a) - word.to_signed(b))


def _cmpeq(a: int, b: int) -> int:
    return 1 if a == b else 0


def _cmplt(a: int, b: int) -> int:
    return 1 if word.to_signed(a) < word.to_signed(b) else 0


def _avg2(a: int, b: int) -> int:
    return word.from_signed((word.to_signed(a) + word.to_signed(b)) >> 1)


_UNARY: Dict[Opcode, Callable[[int], int]] = {
    Opcode.MOV: lambda a: a,
    Opcode.NOT: lambda a: (~a) & word.MASK,
    Opcode.NEG: lambda a: word.wrap(-word.to_signed(a)),
    Opcode.ABS: _abs,
}

_BINARY: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: _add,
    Opcode.SUB: _sub,
    Opcode.MUL: _mul,
    Opcode.MULH: _mulh,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: _shl,
    Opcode.SHR: _shr,
    Opcode.ASR: _asr,
    Opcode.ABSDIFF: _absdiff,
    Opcode.MIN: _min,
    Opcode.MAX: _max,
    Opcode.ADDSAT: _addsat,
    Opcode.SUBSAT: _subsat,
    Opcode.CMPEQ: _cmpeq,
    Opcode.CMPLT: _cmplt,
    Opcode.AVG2: _avg2,
}


def unary_handler(op: Opcode) -> Callable[[int], int]:
    """The combinational function of a unary opcode (fast-path compiler).

    Raises:
        SimulationError: if *op* is not a simple unary operation.
    """
    handler = _UNARY.get(op)
    if handler is None:
        raise SimulationError(f"opcode {op!r} has no unary handler")
    return handler


def binary_handler(op: Opcode) -> Callable[[int, int], int]:
    """The combinational function of a binary opcode (fast-path compiler).

    Raises:
        SimulationError: if *op* is not a simple binary operation.
    """
    handler = _BINARY.get(op)
    if handler is None:
        raise SimulationError(f"opcode {op!r} has no binary handler")
    return handler


def mul_full(a: int, b: int) -> int:
    """Signed 16x16 -> full-precision product (fast-path compiler)."""
    return _mul_full(a, b)


def execute_op(op: Opcode, a: int, b: int = 0, acc: int = 0,
               imm: int = 0) -> int:
    """Evaluate one Dnode operation combinationally.

    Args:
        op: the opcode to execute.
        a: first operand (raw 16-bit value).
        b: second operand (raw 16-bit value, ignored by unary ops).
        acc: current value of the destination register, consumed by the
            accumulating opcodes (``MAC``/``MACS``).
        imm: the microword's immediate field, consumed as the multiplier
            coefficient by ``MADD``/``MSUB``.

    Returns:
        The raw 16-bit result.  ``NOP`` returns 0 (nothing observes it).

    Raises:
        SimulationError: for an opcode with no functional model (cannot
            happen for opcodes built through the public ISA).
    """
    word.check(a, "operand A")
    word.check(b, "operand B")
    word.check(acc, "accumulator")
    word.check(imm, "immediate")
    if op is Opcode.NOP:
        return 0
    if op is Opcode.MAC:
        return word.wrap(_mul_full(a, b) + word.to_signed(acc))
    if op is Opcode.MACS:
        return word.saturate_signed(_mul_full(a, b) + word.to_signed(acc))
    if op is Opcode.MADD:
        return word.wrap(word.to_signed(a) + _mul_full(b, imm))
    if op is Opcode.MSUB:
        return word.wrap(word.to_signed(a) - _mul_full(b, imm))
    handler = _UNARY.get(op)
    if handler is not None:
        return handler(a)
    handler_b = _BINARY.get(op)
    if handler_b is not None:
        return handler_b(a, b)
    raise SimulationError(f"opcode {op!r} has no functional model")


# ----------------------------------------------------------------------
# Expression templates for the code-generating engines
# ----------------------------------------------------------------------

#: How a template's integer value becomes a raw word: masked to 16 bits,
#: saturated to INT16, or already canonical.
_WRAP, _SAT, _RAW = "wrap", "sat", "raw"

#: Each opcode's result as a scalar Python expression over the raw
#: operand words ``{a}``, ``{b}`` and ``{acc}`` (the destination register
#: of ``MAC``/``MACS``), their signed views ``{sa}``, ``{sb}`` and
#: ``{sacc}``, and the signed ``MADD``/``MSUB`` coefficient ``{coeff}``;
#: paired with the step that makes the value a raw word.  Conditional
#: expressions are flat (at most one ``if``/``else``).  ``NOP`` has no
#: result and no entry.
EXPRESSIONS: Dict[Opcode, Tuple[str, str]] = {
    Opcode.MOV: ("{a}", _RAW),
    Opcode.ADD: ("{a} + {b}", _WRAP),
    Opcode.SUB: ("{a} - {b}", _WRAP),
    Opcode.MUL: ("{sa} * {sb}", _WRAP),
    Opcode.MULH: ("({sa} * {sb}) >> 16", _WRAP),
    Opcode.MAC: ("{sa} * {sb} + {sacc}", _WRAP),
    Opcode.MACS: ("{sa} * {sb} + {sacc}", _SAT),
    Opcode.MADD: ("{sa} + {sb} * {coeff}", _WRAP),
    Opcode.MSUB: ("{sa} - {sb} * {coeff}", _WRAP),
    Opcode.AND: ("{a} & {b}", _RAW),
    Opcode.OR: ("{a} | {b}", _RAW),
    Opcode.XOR: ("{a} ^ {b}", _RAW),
    Opcode.NOT: ("~{a}", _WRAP),
    Opcode.NEG: ("-{sa}", _WRAP),
    Opcode.ABS: ("abs({sa})", _WRAP),
    Opcode.SHL: ("{a} << ({b} & 15)", _WRAP),
    Opcode.SHR: ("{a} >> ({b} & 15)", _RAW),
    Opcode.ASR: ("{sa} >> ({b} & 15)", _WRAP),
    Opcode.ABSDIFF: ("abs({sa} - {sb})", _WRAP),
    Opcode.MIN: ("{a} if {sa} <= {sb} else {b}", _RAW),
    Opcode.MAX: ("{a} if {sa} >= {sb} else {b}", _RAW),
    Opcode.ADDSAT: ("{sa} + {sb}", _SAT),
    Opcode.SUBSAT: ("{sa} - {sb}", _SAT),
    Opcode.CMPEQ: ("1 if {a} == {b} else 0", _RAW),
    Opcode.CMPLT: ("1 if {sa} < {sb} else 0", _RAW),
    Opcode.AVG2: ("({sa} + {sb}) >> 1", _WRAP),
}

#: Dialects of :func:`render_expr`.
SCALAR = "scalar"
NUMPY = "numpy"


def signed_expr(expr: str) -> str:
    """Branchless signed view of a raw 16-bit word expression (either
    dialect)."""
    return f"((({expr}) ^ 32768) - 32768)"


def render_expr(op: Opcode, dialect: str, a: str, b: Optional[str] = None,
                acc: Optional[str] = None,
                coeff: Optional[str] = None) -> str:
    """Source text of *op*'s result over operand expressions.

    Operand expressions must be pure: a template may use one twice.  The
    :data:`SCALAR` dialect (``abs``, conditional expressions) calls
    ``_sat`` (:func:`repro.word.saturate_signed`) for saturating opcodes;
    the :data:`NUMPY` dialect (``np.abs``, ``np.where``, a clip) needs
    only ``np`` in scope and evaluates elementwise over integer arrays
    wide enough for a signed 16x16 product.

    Raises:
        SimulationError: if *op* has no template (``NOP``).
    """
    try:
        template, final = EXPRESSIONS[op]
    except KeyError:
        raise SimulationError(f"opcode {op!r} has no expression") from None
    if dialect == NUMPY:
        template = template.replace("abs(", "np.abs(")
        if " if " in template:
            value, rest = template.split(" if ")
            cond, other = rest.split(" else ")
            template = f"np.where({cond}, {value}, {other})"
    elif dialect != SCALAR:
        raise ValueError(f"unknown dialect {dialect!r}")
    fields = {}
    for name, expr in (("a", a), ("b", b), ("acc", acc)):
        if expr is not None:
            fields[name] = f"({expr})"
            fields["s" + name] = signed_expr(expr)
    if coeff is not None:
        fields["coeff"] = f"({coeff})"
    expr = template.format(**fields)
    if final == _WRAP:
        return f"({expr}) & 65535"
    if final == _SAT:
        if dialect == SCALAR:
            return f"_sat({expr})"
        return f"(np.minimum(np.maximum({expr}, -32768), 32767) & 65535)"
    return f"({expr})"
