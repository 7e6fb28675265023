"""RK4 programs for :class:`~repro.hybrid.flows.CallableFlow` locations.

:func:`advance_source` turns a flow into generated Python source that
integrates the flow's outputs in place over a runtime's slot floats, with
the operations of ``CallableFlow.advance`` in their order, so the
compiled kernel (and every batched lane) stays bit-identical to the
reference engine.  The compiled kernel's step programs
(:mod:`repro.hybrid.simulate.programs`) inline that source, names
prefixed per runtime; nothing else compiles it.

When :class:`KernelTranslation` can show that it reproduces the flow's
kernel, the kernel's body is inlined into the four RK4 stages: arguments
become the stage's locals, frozen parameters become constants, and one
test over step-constant values is decided once per advance, with one RK4
loop per outcome.  Any other kernel is called once per stage.  The
contract is spelled out in the ``CallableFlow`` docstring.
"""

from __future__ import annotations

import __future__
import ast
import dataclasses
import functools
import inspect
import math
import textwrap
import types
from typing import Dict, List, Mapping

from repro.hybrid.flows import CallableFlow


#: Operators a translated kernel may use, by their source text; a test
#: decided once per advance uses only those that cannot raise on numbers.
_ARITHMETIC = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_NONRAISING = (ast.Add, ast.Sub, ast.Mult)
_ORDERINGS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
              ast.GtE: ">="}
#: Statement blocks one translated stage may expand to before the kernel
#: keeps its call (a fall-through ``if`` copies the statements after it).
_MAX_BLOCKS = 256


class _KeepCall(Exception):
    """The kernel is outside what the translator reproduces: keep its call."""


def _is_number(value) -> bool:
    """A constant a translated kernel may hold: a bool, float or exact int."""
    return (type(value) in (bool, float)
            or type(value) is int and abs(value) <= 2 ** 53)


def _frozen_dataclass(value) -> bool:
    """Whether ``value`` is an instance of a frozen dataclass."""
    params = getattr(type(value), "__dataclass_params__", None)
    return params is not None and params.frozen


def _kernel_definition(kernel) -> ast.FunctionDef | None:
    """The parsed ``def`` of a plain kernel function, or ``None`` (keep the call).

    The source must be one undecorated ``def`` that compiles to the
    kernel's own bytecode, so the tree is the code that runs; a wrapper
    (whose source :func:`inspect.getsource` reports as the wrapped
    function's) fails that comparison and keeps running.
    """
    if type(kernel) is not types.FunctionType:
        return None
    return _parse_kernel(kernel)


@functools.lru_cache(maxsize=256)
def _parse_kernel(kernel: types.FunctionType) -> ast.FunctionDef | None:
    own = kernel.__code__
    try:
        module = ast.parse(textwrap.dedent(inspect.getsource(kernel)))
        code = compile(module, own.co_filename, "exec", dont_inherit=True,
                       flags=own.co_flags & __future__.annotations.compiler_flag)
    except (OSError, TypeError, SyntaxError):
        return None
    definition = module.body[0] if len(module.body) == 1 else None
    if (not isinstance(definition, ast.FunctionDef) or definition.decorator_list
            or definition.name != kernel.__name__):
        return None
    parsed = next(const for const in code.co_consts if isinstance(const, types.CodeType))
    if any(getattr(parsed, attr) != getattr(own, attr)
           for attr in ("co_code", "co_consts", "co_names", "co_varnames", "co_argcount",
                        "co_posonlyargcount", "co_kwonlyargcount", "co_flags")):
        return None
    return definition


class KernelTranslation:
    """A :class:`CallableFlow` kernel's body as inline RK4 stage source.

    The kernel's statements are ``if``/``elif``/``else`` and ``return``.
    A kernel argument that is an output reads its stage probe (``x{i}`` at
    stage 1, ``s{k}_{i}`` after), another input its value read once per
    advance (``u{j}``), a number parameter and a field of a
    frozen-dataclass parameter their value at lowering (a literal, or
    ``c{n}`` in :attr:`constants`).  Anything else -- an assignment, a
    call, a global or builtin, a mutable parameter, a path that returns
    nothing -- raises :class:`_KeepCall`.  Every expression is emitted
    fully parenthesized, so it parses to the kernel's own tree and performs
    the kernel's operations in the kernel's order; a ``return`` assigns the
    stage's ``k{k}_{i}``.

    :attr:`decided` is the first test (outermost first) that reads only
    step-constant values (inputs that are not outputs, parameters,
    literals) with operators that cannot raise, or ``None``: the program
    evaluates it once per advance and runs one RK4 loop per outcome, whose
    stages take the decided branch.  Other tests stay in the stages.
    """

    def __init__(self, flow: CallableFlow, prefix: str = ""):
        #: Prefix of every name the stage source binds (one per runtime
        #: when several programs share one function).
        self.prefix = prefix
        definition = _kernel_definition(flow.kernel)
        if definition is None:
            raise _KeepCall
        names = [arg.arg for arg in definition.args.args]
        if len(names) != len(flow.inputs) + len(flow.params):
            raise _KeepCall
        self.outputs = len(flow.outputs)
        #: Kernel argument -> ("state", output index) | ("fixed", input
        #: index) | ("param", value).
        self.bindings: Dict[str, tuple] = {}
        for j, (name, _) in enumerate(flow.inputs):
            self.bindings[names[j]] = (("state", flow.outputs.index(name))
                                       if name in flow.outputs else ("fixed", j))
        for name, value in zip(names[len(flow.inputs):], flow.params):
            self.bindings[name] = ("param", value)
        body = definition.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        self.body = body
        self.constants: Dict[str, object] = {}
        self.constant_names: Dict[str, str] = {}
        read = {node.id for node in ast.walk(definition) if isinstance(node, ast.Name)}
        #: Output indices whose stage probes the kernel reads; input
        #: indices it reads once per advance.
        self.probes = sorted(value for name, (kind, value) in self.bindings.items()
                             if kind == "state" and name in read)
        self.fixed = sorted(value for name, (kind, value) in self.bindings.items()
                            if kind == "fixed" and name in read)
        tests = (self.expression(node.test, 1)
                 for node in ast.walk(ast.Module(body=body, type_ignores=[]))
                 if isinstance(node, ast.If))
        self.decided: str | None = next((text for text, decidable in tests if decidable),
                                        None)

    def stage(self, k: int, outcome: bool | None) -> List[str]:
        """Source lines of RK4 stage ``k`` where :attr:`decided` is ``outcome``."""
        self.budget = _MAX_BLOCKS
        return self.block(self.body, k, outcome)

    def block(self, statements: list, k: int, outcome: bool | None) -> List[str]:
        """Lines running ``statements`` to the ``return`` that ends every path."""
        self.budget -= 1
        if self.budget < 0 or not statements:
            raise _KeepCall  # too many copies, or a path that returns None
        statement, rest = statements[0], statements[1:]
        if isinstance(statement, ast.Return) and statement.value is not None:
            return [self.result(statement.value, k)]
        if not isinstance(statement, ast.If):
            raise _KeepCall
        text, _ = self.expression(statement.test, k)
        if text == self.decided:
            taken = statement.body if outcome else statement.orelse
            return self.block(taken + rest, k, outcome)
        return [f"if {text}:", *_indent(self.block(statement.body + rest, k, outcome)),
                "else:", *_indent(self.block(statement.orelse + rest, k, outcome))]

    def result(self, value: ast.expr, k: int) -> str:
        """The stage's ``k{k}_{i} = ...`` assignment for a returned value."""
        if self.outputs == 1:
            values = [value]
        elif isinstance(value, ast.Tuple) and len(value.elts) == self.outputs:
            values = value.elts
        else:
            raise _KeepCall
        sources = [self.expression(item, k)[0] for item in values]
        targets = ", ".join(f"{self.prefix}k{k}_{i}" for i in range(self.outputs))
        return f"{targets} = {', '.join(sources)}"

    def expression(self, node: ast.expr, k: int) -> tuple[str, bool]:
        """Source of ``node`` with its names bound for stage ``k``, and whether
        it is decidable once per advance (step-constant and unable to raise)."""
        if isinstance(node, ast.Constant) and _is_number(node.value):
            return repr(node.value), True
        if isinstance(node, ast.Name):
            return self.name(node.id, k)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            kind, value = self.bindings.get(node.value.id, (None, None))
            if (kind == "param" and _frozen_dataclass(value)
                    and node.attr in {field.name for field in dataclasses.fields(value)}):
                return self.constant(getattr(value, node.attr)), True
            raise _KeepCall
        if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
            left, a = self.expression(node.left, k)
            right, b = self.expression(node.right, k)
            return (f"({left} {_ARITHMETIC[type(node.op)]} {right})",
                    a and b and isinstance(node.op, _NONRAISING))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand, decidable = self.expression(node.operand, k)
            return f"(-{operand})", decidable
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and type(node.ops[0]) in _ORDERINGS):
            left, a = self.expression(node.left, k)
            right, b = self.expression(node.comparators[0], k)
            return f"({left} {_ORDERINGS[type(node.ops[0])]} {right})", a and b
        raise _KeepCall

    def name(self, name: str, k: int) -> tuple[str, bool]:
        """What kernel name ``name`` reads at stage ``k``."""
        kind, value = self.bindings.get(name, (None, None))
        prefix = self.prefix
        if kind == "state":
            return (f"{prefix}x{value}" if k == 1 else f"{prefix}s{k}_{value}"), False
        if kind == "fixed":
            return f"{prefix}u{value}", True
        if kind == "param" and _is_number(value):
            return self.constant(value), True
        raise _KeepCall  # a global, a builtin, a free variable

    def constant(self, value) -> str:
        """A value bound at lowering: a literal when its text is exact."""
        if not _is_number(value):
            raise _KeepCall
        if _exact_literal(value):
            return repr(value)
        name = self.constant_names.get(repr(value))
        if name is None:
            name = self.constant_names[repr(value)] = (
                f"{self.prefix}c{len(self.constants)}")
            self.constants[name] = value
        return name


def _exact_literal(value) -> bool:
    """Whether ``repr(value)`` parses back to ``value`` as a positive literal."""
    return type(value) is bool or math.isfinite(value) and math.copysign(1.0, value) > 0


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def advance_source(flow: CallableFlow, slot_of: Mapping[str, int], env: Dict[str, object],
                   prefix: str = "", values: str = "values", rt: str = "rt") -> List[str]:
    """Source lines that advance the slot list named ``values`` by ``dt``.

    The lines read the locals ``dt`` and ``rt`` (the runtime, for inputs
    with no slot at lowering); every other name they bind or read starts
    with ``prefix``, so the blocks of several runtimes can share one
    function, and ``env`` receives the globals they read.  The substep is
    a literal.  Kernels that :class:`KernelTranslation` cannot reproduce
    keep their call per stage.
    """
    try:
        return _advance_lines(flow, slot_of, env, prefix, values, rt,
                              KernelTranslation(flow, prefix))
    except _KeepCall:
        return _advance_lines(flow, slot_of, env, prefix, values, rt, None)


def _advance_lines(flow: CallableFlow, slot_of: Mapping[str, int], env: Dict[str, object],
                   p: str, values: str, rt: str,
                   translation: KernelTranslation | None) -> List[str]:
    """:func:`advance_source` with ``translation``'s stages or kernel calls."""
    outputs = flow.outputs
    substep = flow.substep
    if _is_number(substep) and _exact_literal(substep):
        substep = repr(substep)
    else:
        env[f"{p}substep"] = substep
        substep = f"{p}substep"
    lines = []
    if translation is None:
        env[f"{p}kernel"] = flow.kernel
        env.update((f"{p}p{j}", param) for j, param in enumerate(flow.params))
        fixed = [j for j, (name, _) in enumerate(flow.inputs) if name not in outputs]
        test = None
    else:
        fixed = translation.fixed
        test = translation.decided
    for j in fixed:
        slot = slot_of.get(flow.inputs[j][0])
        if slot is None:
            env[f"{p}input{j}"] = flow.inputs[j]
        lines.append(f"{p}u{j} = {values}[{slot}]" if slot is not None
                     else f"{p}u{j} = {rt}.get(*{p}input{j})")
    lines += [f"{p}x{i} = {values}[{slot_of[name]}]" for i, name in enumerate(outputs)]

    def stage(k, step, outcome):
        """Source of RK4 stage k: outputs probed ``step`` along stage k-1."""
        if translation is not None:
            probes = ([] if step is None else
                      [f"{p}s{k}_{i} = {p}x{i} + {p}k{k - 1}_{i} * {p}{step}"
                       for i in translation.probes])
            return probes + translation.stage(k, outcome)
        args = []
        for j, (name, _) in enumerate(flow.inputs):
            if name not in outputs:
                args.append(f"{p}u{j}")
                continue
            i = outputs.index(name)
            args.append(f"{p}x{i}" if step is None
                        else f"{p}x{i} + {p}k{k - 1}_{i} * {p}{step}")
        args += [f"{p}p{j}" for j in range(len(flow.params))]
        targets = ", ".join(f"{p}k{k}_{i}" for i in range(len(outputs)))
        return [f"{targets} = {p}kernel({', '.join(args)})"]

    def loop(outcome):
        """The RK4 loop whose stages take the decided test's ``outcome``."""
        body = [f"{p}h = {substep} if {substep} <= {p}remaining else {p}remaining",
                f"{p}half = {p}h / 2.0"]
        for k, step in ((1, None), (2, "half"), (3, "half"), (4, "h")):
            body += stage(k, step, outcome)
        body += [f"{p}x{i} = {p}x{i} + ({p}k1_{i} + 2.0 * {p}k2_{i} + 2.0 * {p}k3_{i}"
                 f" + {p}k4_{i}) / 6.0 * {p}h" for i in range(len(outputs))]
        body.append(f"{p}remaining -= {p}h")
        return [f"while {p}remaining > 1e-12:", *_indent(body)]

    lines.append(f"{p}remaining = dt")
    if test is None:
        lines += loop(None)
    else:
        lines += [f"if {test}:", *_indent(loop(True)), "else:", *_indent(loop(False))]
    lines += [f"{values}[{slot_of[name]}] = {p}x{i}" for i, name in enumerate(outputs)]
    if translation is not None:
        env.update(translation.constants)
    return ["if dt > 1e-12:", *_indent(lines)]
