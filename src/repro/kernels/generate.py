"""Seeded random well-formed kernel generation.

Every workload this module emits is simultaneously a new scenario for
the paper's fetch-strategy comparison and a differential fuzz test of
the four engines: the generated kernel compiles through
:class:`~repro.kernels.codegen.StructuredCompiler` to a real PIPE
program *and* executes in the float32-exact reference interpreter, and
the two must agree bit-for-bit.

Design rules:

* **Pure-hash randomness.**  All choices derive from a splitmix64
  stream (:class:`HashRand`) seeded by the caller — no ``random``
  module, no global state, no platform dependence.  The same seed and
  budget always produce the same kernel, byte for byte.
* **Well-formed by construction.**  Array lengths are powers of two and
  every computed (data-dependent) element index is masked with
  ``length - 1`` at the top level, so pointer-chasing accesses are
  in-bounds no matter what values the chased cells hold.  Affine
  accesses are bounded by choosing iteration counts against the array
  length.  Indirect (classic-style) accesses go through a read-only
  index array whose initial contents are in-range by construction and
  which the generator never writes.
* **Fits the structured compiler's register budget.**  The generator
  keeps loop depth + scalar counts inside the six-register pool and
  estimates expression scratch pressure with the same accounting the
  compiler uses; if a candidate still fails to compile or validate, it
  deterministically retries with a smaller shape derived from the same
  seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .codegen import CompileError, compile_kernel
from .dsl import (
    Affine,
    ArrayDecl,
    BinOp,
    Computed,
    ConstRef,
    Expr,
    If,
    IndexRef,
    Indirect,
    IntBinOp,
    IntConst,
    IntExpr,
    IntLoad,
    IntScalarRef,
    IntScalarUpdate,
    IntStore,
    Kernel,
    KernelValidationError,
    Load,
    LoadIndirect,
    Loop,
    OUTER_LOOP_VAR,
    ScalarRef,
    ScalarUpdate,
    Statement,
    Store,
    validate_kernel,
)

__all__ = [
    "BUDGETS",
    "GeneratedWorkload",
    "HashRand",
    "ShapeBudget",
    "generate_workload",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF


class HashRand:
    """A splitmix64 stream: tiny, fast, and fully deterministic.

    Used instead of :mod:`random` so generated kernels are stable
    across Python versions and immune to global-state leakage.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self.next_u64() % (high - low + 1)

    def choice(self, items):
        return items[self.next_u64() % len(items)]

    def weighted(self, pairs):
        """Pick from ``[(item, weight), ...]`` by integer weights."""
        total = sum(weight for _, weight in pairs)
        point = self.next_u64() % total
        for item, weight in pairs:
            if point < weight:
                return item
            point -= weight
        raise AssertionError("unreachable")  # pragma: no cover

    def chance(self, numerator: int, denominator: int) -> bool:
        return self.next_u64() % denominator < numerator

    def f32_small(self) -> float:
        """A small exact binary fraction (representable in float32)."""
        mantissa = self.randint(1, 255)
        exponent = self.randint(-4, 2)
        sign = -1.0 if self.chance(1, 4) else 1.0
        return sign * mantissa * (2.0**exponent) / 16.0


@dataclass(frozen=True)
class ShapeBudget:
    """Size/shape envelope one generated kernel is sampled from.

    All bounds are inclusive.  ``float_array_length`` and
    ``int_array_length`` must be powers of two (computed indices are
    masked with ``length - 1``).
    """

    name: str
    max_outer_iterations: int = 10  #: outer trip count in [2, this]
    max_loop_depth: int = 2  #: 1 = outer loop only
    max_trips: int = 5  #: nested-loop trip counts in [2, this]
    max_block_statements: int = 4  #: per block (body of kernel/loop/if)
    max_total_statements: int = 12  #: whole-kernel statement budget
    max_float_expr_depth: int = 2  #: BinOp nesting
    max_int_expr_depth: int = 2  #: IntBinOp nesting below the mask
    num_float_arrays: int = 3
    num_int_arrays: int = 2
    float_array_length: int = 64
    int_array_length: int = 16
    max_consts: int = 2
    max_float_scalars: int = 1
    max_int_scalars: int = 1

    def __post_init__(self) -> None:
        for length in (self.float_array_length, self.int_array_length):
            if length & (length - 1):
                raise ValueError(f"array length {length} is not a power of two")


#: Named budgets for the CLI / CI.  "default" is the fuzzing workhorse;
#: "tiny" keeps programs small enough for per-seed trace comparison in
#: tier-1; "deep" stresses nesting and expression pressure.
BUDGETS = {
    "tiny": ShapeBudget(
        name="tiny",
        max_outer_iterations=6,
        max_loop_depth=2,
        max_trips=3,
        max_block_statements=3,
        max_total_statements=7,
        num_float_arrays=2,
        num_int_arrays=1,
        float_array_length=32,
        int_array_length=8,
    ),
    "default": ShapeBudget(name="default"),
    "deep": ShapeBudget(
        name="deep",
        max_outer_iterations=8,
        max_loop_depth=3,
        max_trips=4,
        max_block_statements=3,
        max_total_statements=16,
        max_float_expr_depth=3,
        num_float_arrays=4,
        num_int_arrays=2,
    ),
}


@dataclass(frozen=True)
class GeneratedWorkload:
    """One generated kernel plus the array declarations it runs over."""

    seed: int
    budget: str
    kernel: Kernel
    arrays: tuple[ArrayDecl, ...]


class _KernelBuilder:
    """Samples one kernel from a budget using a HashRand stream."""

    def __init__(self, rand: HashRand, budget: ShapeBudget):
        self.rand = rand
        self.budget = budget
        self.statements_left = budget.max_total_statements

        # ---- declarations ------------------------------------------------
        self.float_arrays = [f"fa{n}" for n in range(budget.num_float_arrays)]
        self.int_arrays = [f"ia{n}" for n in range(budget.num_int_arrays)]
        #: read-only in-range index array for classic indirect accesses
        self.index_array = "idx"
        self.float_mask = budget.float_array_length - 1
        self.int_mask = budget.int_array_length - 1

        self.consts = {
            f"c{n}": rand.f32_small()
            for n in range(rand.randint(1, budget.max_consts))
        }
        self.scalars = {
            f"s{n}": rand.f32_small()
            for n in range(rand.randint(0, budget.max_float_scalars))
        }
        self.int_scalars = {
            f"k{n}": rand.randint(0, self.float_mask)
            for n in range(rand.randint(0, budget.max_int_scalars))
        }
        self.iterations = rand.randint(2, budget.max_outer_iterations)

        # The structured compiler's pool is six registers; the outer
        # variable, nested variables, and every scalar each take one,
        # and at least three must remain as scratch for the deepest
        # expression shapes the budget allows.
        self.register_slack = 6 - 3 - 1  # pool - scratch floor - outer var
        self.register_slack -= len(self.scalars) + len(self.int_scalars)
        self.loop_counter = 0

    # ------------------------------------------------------------------
    # Integer expressions
    # ------------------------------------------------------------------
    def _int_leaf(self, loop_vars: list[str]) -> IntExpr:
        options = [(IndexRef(self.rand.choice(loop_vars)), 4)]
        options.append((IntConst(self.rand.randint(0, 7)), 2))
        if self.int_scalars:
            options.append(
                (IntScalarRef(self.rand.choice(sorted(self.int_scalars))), 3)
            )
        return self.rand.weighted(options)

    def _int_expr(self, loop_vars: list[str], depth: int) -> IntExpr:
        if depth <= 0 or self.rand.chance(1, 3):
            return self._int_leaf(loop_vars)
        op = self.rand.choice(("+", "-", "&", "|", "^", "<<", ">>"))
        if self.rand.chance(1, 2):
            rhs: IntExpr = IntConst(self.rand.randint(0, 7))
        else:
            rhs = self._int_leaf(loop_vars)
        lhs = self._int_expr(loop_vars, depth - 1)
        return IntBinOp(op, lhs, rhs)

    def _masked_index(self, loop_vars: list[str], mask: int) -> Computed:
        """A computed element index, masked in-bounds by construction."""
        inner = self._int_expr(loop_vars, self.budget.max_int_expr_depth)
        if self.rand.chance(1, 4):
            # pointer-chase: index through an int array, then mask
            inner = IntLoad(
                self.rand.choice(self.int_arrays + [self.index_array]),
                IntBinOp("&", inner, IntConst(self.int_mask)),
            )
        return Computed(IntBinOp("&", inner, IntConst(mask)))

    def _condition(self, loop_vars: list[str]) -> IntExpr:
        op = self.rand.choice(("==", "!=", "<", "<="))
        lhs = self._int_expr(loop_vars, 1)
        rhs = IntConst(self.rand.randint(0, self.iterations))
        return IntBinOp(op, lhs, rhs)

    # ------------------------------------------------------------------
    # Float expressions
    # ------------------------------------------------------------------
    def _affine(self) -> Affine:
        mult = self.rand.weighted(((1, 6), (2, 2), (3, 1)))
        limit = (self.budget.float_array_length - 1) - mult * (
            self.iterations - 1
        )
        offset = self.rand.randint(0, max(0, min(2, limit)))
        return Affine(mult, offset)

    def _float_leaf(self, loop_vars: list[str]) -> Expr:
        options: list[tuple[Expr, int]] = [
            (Load(self.rand.choice(self.float_arrays), self._affine()), 4),
            (
                Load(
                    self.rand.choice(self.float_arrays),
                    self._masked_index(loop_vars, self.float_mask),
                ),
                3,
            ),
            (ConstRef(self.rand.choice(sorted(self.consts))), 2),
        ]
        if self.scalars:
            options.append((ScalarRef(self.rand.choice(sorted(self.scalars))), 3))
        if self.rand.chance(1, 3):
            options.append(
                (
                    LoadIndirect(
                        self.rand.choice(self.float_arrays),
                        Indirect(self.index_array, self._indirect_affine()),
                    ),
                    2,
                )
            )
        return self.rand.weighted(options)

    def _indirect_affine(self) -> Affine:
        limit = (self.budget.int_array_length - 1) - (self.iterations - 1)
        return Affine(1, self.rand.randint(0, max(0, min(2, limit))))

    def _float_expr(self, loop_vars: list[str], depth: int) -> Expr:
        if depth <= 0 or self.rand.chance(1, 3):
            return self._float_leaf(loop_vars)
        op = self.rand.weighted((("+", 4), ("*", 4), ("-", 2), ("/", 1)))
        return BinOp(
            op,
            self._float_expr(loop_vars, depth - 1),
            self._float_expr(loop_vars, depth - 1),
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _statement(self, loop_vars: list[str], depth: int) -> Statement:
        self.statements_left -= 1
        kinds = [("store", 5), ("int_store", 2)]
        if self.scalars:
            kinds.append(("scalar", 3))
        if self.int_scalars:
            kinds.append(("int_scalar", 3))
        if depth < self.budget.max_loop_depth and self.register_slack > 0:
            kinds.append(("loop", 3))
        kinds.append(("if", 3))
        kind = self.rand.weighted(kinds)

        if kind == "store":
            array = self.rand.choice(self.float_arrays)
            index_kind = self.rand.weighted(
                (("affine", 4), ("computed", 3), ("indirect", 1))
            )
            if index_kind == "affine":
                index: Affine | Computed | Indirect = self._affine()
            elif index_kind == "computed":
                index = self._masked_index(loop_vars, self.float_mask)
            else:
                index = Indirect(self.index_array, self._indirect_affine())
            expr = self._float_expr(loop_vars, self.budget.max_float_expr_depth)
            return Store(array, index, expr)
        if kind == "int_store":
            array = self.rand.choice(self.int_arrays)
            index = self._masked_index(loop_vars, self.int_mask)
            value = IntBinOp(
                "&",
                self._int_expr(loop_vars, self.budget.max_int_expr_depth),
                IntConst(self.int_mask),
            )
            return IntStore(array, index, value)
        if kind == "scalar":
            name = self.rand.choice(sorted(self.scalars))
            expr = self._float_expr(loop_vars, self.budget.max_float_expr_depth)
            if self.rand.chance(2, 3):  # reductions dominate
                expr = BinOp(self.rand.choice(("+", "*")), ScalarRef(name), expr)
            return ScalarUpdate(name, expr)
        if kind == "int_scalar":
            name = self.rand.choice(sorted(self.int_scalars))
            if self.rand.chance(1, 2):
                # pointer chase: k = chase[k & mask] & mask
                value: IntExpr = IntBinOp(
                    "&",
                    IntLoad(
                        self.rand.choice(self.int_arrays + [self.index_array]),
                        IntBinOp("&", IntScalarRef(name), IntConst(self.int_mask)),
                    ),
                    IntConst(self.float_mask),
                )
            else:
                value = IntBinOp(
                    "&",
                    self._int_expr(loop_vars, self.budget.max_int_expr_depth),
                    IntConst(self.float_mask),
                )
            return IntScalarUpdate(name, value)
        if kind == "loop":
            self.register_slack -= 1
            self.loop_counter += 1
            var = f"j{self.loop_counter}"
            trips = self.rand.randint(2, self.budget.max_trips)
            body = self._block(loop_vars + [var], depth + 1, minimum=1)
            self.register_slack += 1  # sibling loops may reuse the slot
            return Loop(var, trips, body)
        assert kind == "if"
        cond = self._condition(loop_vars)
        then = self._block(loop_vars, depth + 1, minimum=1)
        orelse: tuple[Statement, ...] = ()
        if self.rand.chance(1, 2) and self.statements_left > 0:
            orelse = self._block(loop_vars, depth + 1, minimum=1)
        return If(cond, then, orelse)

    def _block(
        self, loop_vars: list[str], depth: int, minimum: int
    ) -> tuple[Statement, ...]:
        count = self.rand.randint(
            minimum, max(minimum, self.budget.max_block_statements)
        )
        out = []
        for _ in range(count):
            if self.statements_left <= 0 and len(out) >= minimum:
                break
            out.append(self._statement(loop_vars, depth))
        return tuple(out)

    # ------------------------------------------------------------------
    def build(self, seed: int) -> tuple[Kernel, tuple[ArrayDecl, ...]]:
        statements = self._block([OUTER_LOOP_VAR], depth=1, minimum=2)
        kernel = Kernel(
            number=0,
            name=f"generated seed={seed}",
            iterations=self.iterations,
            statements=statements,
            consts=self.consts,
            scalars=self.scalars,
            int_scalars=self.int_scalars,
            tag=f"gen{seed}",
        )
        arrays = self._arrays()
        return kernel, arrays

    def _arrays(self) -> tuple[ArrayDecl, ...]:
        rand = self.rand
        decls = []
        for name in self.float_arrays:
            init = tuple(
                rand.f32_small() for _ in range(min(16, self.budget.float_array_length))
            )
            decls.append(
                ArrayDecl(name, self.budget.float_array_length, "float", init)
            )
        for name in self.int_arrays:
            init = tuple(
                rand.randint(0, self.int_mask)
                for _ in range(self.budget.int_array_length)
            )
            decls.append(
                ArrayDecl(name, self.budget.int_array_length, "int", init)
            )
        # idx: read-only, every value a valid element of every float array
        idx_init = tuple(
            rand.randint(0, self.budget.float_array_length - 1)
            for _ in range(self.budget.int_array_length)
        )
        decls.append(
            ArrayDecl(
                self.index_array, self.budget.int_array_length, "int", idx_init
            )
        )
        return tuple(decls)


_MAX_ATTEMPTS = 32


def generate_workload(
    seed: int, budget: ShapeBudget | str = "default"
) -> GeneratedWorkload:
    """Generate one well-formed kernel + arrays from ``seed``.

    Deterministic: the same (seed, budget) pair always returns the same
    workload.  The result is guaranteed to validate and compile — the
    generator retries with deterministically shrunken shapes in the
    (rare) case a sample exceeds the compiler's register budget.
    """
    if isinstance(budget, str):
        try:
            budget = BUDGETS[budget]
        except KeyError:
            raise ValueError(
                f"unknown budget {budget!r}; choose from {sorted(BUDGETS)}"
            ) from None
    for attempt in range(_MAX_ATTEMPTS):
        # Fold the attempt into the stream seed so retries explore new
        # shapes while staying a pure function of (seed, budget).
        rand = HashRand((seed << 8) ^ attempt ^ 0xC0FFEE)
        shrunk = budget
        if attempt:
            shrunk = replace(
                budget,
                max_loop_depth=1,
                max_float_expr_depth=1,
                max_int_expr_depth=1,
                max_int_scalars=0,
                max_float_scalars=min(1, budget.max_float_scalars),
            )
        builder = _KernelBuilder(rand, shrunk)
        kernel, arrays = builder.build(seed)
        try:
            validate_kernel(kernel, list(arrays))
            compile_kernel(kernel)
        except (KernelValidationError, CompileError):
            continue
        return GeneratedWorkload(
            seed=seed, budget=budget.name, kernel=kernel, arrays=arrays
        )
    raise AssertionError(  # pragma: no cover - shrunken shapes always fit
        f"seed {seed}: no valid kernel within {_MAX_ATTEMPTS} attempts"
    )
