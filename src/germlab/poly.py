"""Exact multivariate polynomial arithmetic over rational coefficients.

Everything downstream (Jacobians, Milnor determinants, pullbacks, mixed
germs and Laurent arcs) reduces to the handful of operations defined here,
so the module stays deliberately small: one stored form, graded-lex
ordering for printing, and one routine for determinants and maximal
minors, first-row expansion with memoized sub-minors.  No floats in any
identity.

A polynomial is stored packed (Monagan & Pearce, "Sparse polynomial
division using a heap", JSC 2011): integer numerators over one common
denominator, each keyed by one int that packs an exponent vector.  The top
field of a key is the total degree and the lower fields are the exponents,
so a monomial product is one integer add, a graded-lex comparison is one
integer compare and a derivative shifts a key by one variable's weight.
Sums, products, exact division and printing read and write these integers;
`Polynomial.terms`, exponent tuples to Fractions, is a view built on each
read.  One kernel, `_sum_of_products`, serves a single product, a matrix
product entry, one expansion step of a minor and, through `substitute`,
each substitution of ring values (`pullback_numerator`, `compose_exact`,
the family limit of `condition_b_family_check`, `CurveFamily.pullback`):
every chain of factors is multiplied in packed ints and summed in one
integer accumulator.  `Polynomial.evaluate` at a rational point also runs
in integers, over one common denominator; at floats it is the scalar loop.

Polynomial and the two rings built on Polynomial parts, the Laurent arcs
sum_k p_k * t^k of `curves` and the mixed polynomials re + i*im of
`mixed`, share one operator set, `RingElement`: `+`, `-`, `*` and `**`
are written once over each ring's `const` and `sum_of_products`, and
`substitute` reads both from the class of its values.  The two built
rings are `Graded`, sums of parts indexed by a grade; their products,
pairings, pullbacks and realifications expand through one routine,
`_graded_chains`, which spreads chains of graded factors into chains of
parts, one `_sum_of_products` per resulting part.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]
MAX_ARITY = 10  # variables in one context; exponents are dense tuples


def _coeff(c) -> Fraction:
    if isinstance(c, float):
        raise TypeError(f"core arithmetic is exact; got the float {c!r}")
    return c if isinstance(c, Fraction) else Fraction(c)


class _Packing:
    """Packed graded-lex keys for exponent vectors of one arity.

    A key has arity + 1 fields of `nbytes` bytes each: the total degree in
    the top field, then e[0], ..., e[n-1].  Integer order on keys is graded
    lex order on vectors, and the key of a product is the sum of the keys as
    long as no field reaches 2**(8 * nbytes); callers pick `nbytes` from a
    bound on the total degree, which bounds every field.
    """

    __slots__ = ("weights", "shifts", "mask", "unpack", "degree_shift")

    def __init__(self, arity: int, nbytes: int):
        w = 8 * nbytes
        self.degree_shift = w * arity  # key >> degree_shift is the total degree
        top = 1 << self.degree_shift
        # key = sum(e[i] * weights[i]): e[i] lands in its own field and,
        # through `top`, adds itself to the degree field.
        self.shifts = shifts = tuple(w * (arity - 1 - i) for i in range(arity))
        self.weights = tuple((1 << s) | top for s in shifts)
        self.mask = mask = (1 << w) - 1
        self.unpack = lambda k: tuple([(k >> s) & mask for s in shifts])

    def scaled(self, terms: Mapping[Exponents, Fraction]) -> tuple[int, dict[int, int]]:
        """(d, {key: d * c}) with d the least common denominator."""
        d = lcm(*[c.denominator for c in terms.values()])
        weights = self.weights
        return d, {sum(map(mul, e, weights)): c.numerator * (d // c.denominator)
                   for e, c in terms.items()}


# At most 10 arities times a few field widths are ever in use.
_packing_for = lru_cache(maxsize=64)(_Packing)


def _packing(arity: int, max_degree: int) -> _Packing:
    """The packing whose fields hold every total degree up to max_degree."""
    return _packing_for(arity, -(-max_degree.bit_length() // 8) or 1)


def _rekey(nums: dict[int, int], old: _Packing, new: _Packing,
           positions: Sequence[int] | None = None) -> dict[int, int]:
    """nums with each key moved from packing old to new, in the same order.

    With positions, exponent i goes to field positions[i] of new.
    """
    weights = new.weights if positions is None else [new.weights[j] for j in positions]
    unpack = old.unpack
    return {sum(map(mul, unpack(k), weights)): c for k, c in nums.items()}


def _chain_product(factors: list[Iterable[tuple[int, int]]]) -> dict[int, int]:
    """Packed product of integer numerators, left to right, in schoolbook order.

    A sum that cancels leaves the map and a later product puts it back at
    the end, so the terms come out in the order the double loop over the
    Fraction maps gives them.
    """
    if len(factors) == 1:
        return dict(factors[0])
    items: Iterable[tuple[int, int]] = factors[0]
    for b in factors[1:]:
        acc: dict[int, int] = {}
        get = acc.get
        for k1, c1 in items:
            for k2, c2 in b:
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    acc[k] = s
                else:
                    del acc[k]
        items = acc.items()
    return acc


def _sum_of_products(ctx: "VarContext",
                     chains: Iterable[Sequence["Polynomial"]]) -> "Polynomial":
    """The sum over chains of each chain's product, factors taken left to right.

    This is `acc = acc + f1 * f2 * ...` in one packed pass: each chain is
    multiplied in its factors' integer numerators, and the products merge
    into one integer accumulator over the lcm of their denominators.  Each
    product is merged in its own term order and a sum that cancels leaves
    the map, so the terms come out in the order of that loop.  A chain with
    a zero factor adds nothing, and a single chain is its product,
    unmerged.  A factor in the result's packing is read as it is; a
    narrower one is re-keyed into it, once per call.
    """
    live = []
    top = 0
    for chain in chains:
        total = 0
        for f in chain:
            if not f._nums:
                break
            total += f._deg
        else:
            live.append(chain)
            if total > top:
                top = total
    if not live:
        return ctx.zero()
    pk = _packing(len(ctx.names), top)
    # Keyed by identity: every re-keyed factor belongs to a chain in live.
    rekeyed: dict[int, Iterable[tuple[int, int]]] = {}
    packed, dens = [], []
    for chain in live:
        d, parts = 1, []
        for f in chain:
            d *= f._den
            if f._pk is pk:
                parts.append(f._nums.items())
            else:
                s = rekeyed.get(id(f))
                if s is None:
                    s = rekeyed[id(f)] = _rekey(f._nums, f._pk, pk).items()
                parts.append(s)
        packed.append(parts)
        dens.append(d)
    den = lcm(*dens)
    if len(live) == 1:
        acc = _chain_product(packed[0])
    else:
        acc = {}
        get = acc.get
        for parts, d in zip(packed, dens):
            out = _chain_product(parts)
            m = den // d
            for k, c in out.items() if m == 1 else zip(out, map(m.__mul__, out.values())):
                s = get(k, 0) + c
                if s:
                    acc[k] = s
                else:
                    del acc[k]
    return Polynomial._from_packed(ctx, pk, den, acc)


class VarContext:
    """Ordered, immutable collection of variable names.

    Every Polynomial carries a reference to its context; operations on two
    polynomials require equal contexts (same names, same order).
    """

    __slots__ = ("names", "_pos")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("need at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable in {names!r}")
        if len(names) > MAX_ARITY:
            raise ValueError(f"arity {len(names)} > {MAX_ARITY} not supported")
        self.names = names
        self._pos = {n: i for i, n in enumerate(names)}

    @property
    def arity(self) -> int:
        return len(self.names)

    def position(self, name: str) -> int:
        if name not in self._pos:
            raise ValueError(f"unknown variable {name!r} in context {self.names}")
        return self._pos[name]

    def var(self, name: str) -> "Polynomial":
        e = [0] * self.arity
        e[self.position(name)] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(n) for n in self.names)

    def const(self, c) -> "Polynomial":
        c = _coeff(c)
        return Polynomial._from_packed(self, _packing(len(self.names), 0), c.denominator,
                                       {0: c.numerator} if c else {})

    def zero(self) -> "Polynomial":
        return self.const(0)

    def one(self) -> "Polynomial":
        return self.const(1)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarContext) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarContext({', '.join(self.names)})"


class RingElement:
    """The operators of germlab's exact rings, written once.

    Polynomial, LaurentPoly and MixedPolynomial each give `ctx`, the hooks
    `const(ctx, c)` and `sum_of_products(ctx, chains)`, `__neg__` and
    `text`; `+`, `-` and `*` are then one `sum_of_products` call each, and
    `**` is square-and-multiply.  An operand is one of `_scalars`, read
    through `const`, or an element of the same class over an equal context
    (ValueError otherwise); anything else, a float included, is
    NotImplemented, so Python raises TypeError.
    """

    __slots__ = ()
    _scalars: tuple = (int, Fraction)

    def _operand(self, other):
        if isinstance(other, self._scalars):
            return self.const(self.ctx, other)
        return other if type(other) is type(self) else None

    def _same_ctx(self, other) -> None:
        if other.ctx != self.ctx:
            raise ValueError(f"context mismatch: {self.ctx!r} vs {other.ctx!r}")

    def _checked(self, other, chains):
        self._same_ctx(other)
        return self.sum_of_products(self.ctx, chains)

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._checked(other, [(self,), (other,)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._checked(other, [(self, other)])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """self**k by square-and-multiply from the ring's 1, low bit first."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {k!r}")
        out, base = self.const(self.ctx, 1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()})"


class Polynomial(RingElement):
    """A polynomial with Fraction coefficients over a fixed VarContext.

    The one stored form is packed: `_nums` maps packed keys to nonzero
    integer numerators, in term order, over the positive denominator
    `_den`, in the packing `_pk`.  The form is canonical, so equal
    polynomials have equal fields: `_pk` is `_packing(arity, degree)`,
    `_den` shares no factor with every numerator, and the zero polynomial
    is `{}` over 1.  `terms` builds the view exponent tuple -> Fraction, in
    the same order, on each read.  Instances are immutable by convention.

    Example
    -------
    >>> ctx = VarContext(["x", "y"])
    >>> x, y = ctx.gens()
    >>> ((x + y) * (x - y)).text()
    'x^2 - y^2'
    """

    __slots__ = ("ctx", "_pk", "_den", "_nums", "_deg")

    def __init__(self, ctx: VarContext, terms: Mapping[Exponents, Fraction]):
        clean = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != ctx.arity or not all(isinstance(k, int) and k >= 0 for k in e):
                raise ValueError(
                    f"exponent vector {e} is not {ctx.arity} nonnegative ints")
            c = _coeff(c)
            if c:
                clean[e] = c
        self.ctx = ctx
        self._deg = max(map(sum, clean), default=0)
        self._pk = _packing(ctx.arity, self._deg)
        # The lcm of reduced denominators shares no factor with every numerator.
        self._den, self._nums = self._pk.scaled(clean)

    @classmethod
    def _from_packed(cls, ctx: VarContext, pk: _Packing, den: int,
                     nums: dict[int, int]) -> "Polynomial":
        # Nonzero numerators over den, keyed in pk: den shrinks by their
        # common content and keys whose degree fits a narrower packing move.
        if nums and den > 1:
            g = gcd(den, *nums.values())
            if g > 1:
                den //= g
                nums = {k: c // g for k, c in nums.items()}
        deg = max(nums, default=0) >> pk.degree_shift
        own = _packing(len(ctx.names), deg)
        p = object.__new__(cls)
        p.ctx, p._pk, p._den, p._deg = ctx, own, den if nums else 1, deg
        p._nums = nums if own is pk else _rekey(nums, pk, own)
        return p

    def _nums_in(self, pk: _Packing) -> dict[int, int]:
        # The numerators keyed in pk, which is at least as wide as _pk.
        return self._nums if self._pk is pk else _rekey(self._nums, self._pk, pk)

    def _wider(self, other: "Polynomial") -> _Packing:
        return max(self._pk, other._pk, key=lambda pk: pk.degree_shift)

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        unpack, den = self._pk.unpack, self._den
        return MappingProxyType({unpack(k): Fraction(c, den) for k, c in self._nums.items()})

    def _degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return self._deg

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def has_constant_term(self) -> bool:
        return 0 in self._nums  # key 0 is the exponent vector 0

    def is_constant(self) -> bool:
        return not any(self._nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._nums.get(0, 0), self._den)

    def degree_in(self, name: str) -> int:
        s, mask = self._pk.shifts[self.ctx.position(name)], self._pk.mask
        return max(((k >> s) & mask for k in self._nums), default=0)

    # -- ring operations -------------------------------------------------

    const = staticmethod(VarContext.const)
    sum_of_products = staticmethod(_sum_of_products)
    # Bound here as well as in RingElement: perfbench's tracer wraps
    # Polynomial.__dict__["__mul__"] and its aliases.
    __mul__ = __rmul__ = RingElement.__mul__
    __pow__ = RingElement.__pow__

    def __neg__(self):
        return Polynomial._from_packed(self.ctx, self._pk, self._den,
                                       {k: -c for k, c in self._nums.items()})

    def __eq__(self, other) -> bool:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return (self.ctx == other.ctx and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self) -> int:
        return hash((self.ctx.names, self._den, frozenset(self._nums.items())))

    # -- calculus and evaluation ----------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        pk = self._pk
        i = self.ctx.position(name)
        s, mask, w = pk.shifts[i], pk.mask, pk.weights[i]
        nums = {}
        for k, c in self._nums.items():
            e = (k >> s) & mask
            if e:
                nums[k - w] = c * e
        return Polynomial._from_packed(self.ctx, pk, self._den, nums)

    def gradient(self) -> tuple["Polynomial", ...]:
        return tuple(self.diff(n) for n in self.ctx.names)

    def evaluate(self, values: Sequence):
        """The value at a point: exact at ints and Fractions, a float at floats.

        At a rational point (a_1/b_1, ...) the sum runs in integers: with D_i
        the degree in x_i, the value is sum_k c_k prod a_i^e_i b_i^(D_i - e_i)
        over _den * prod b_i^D_i, one Fraction built at the end.  Floats
        (cross-checks) and ring values take the term loop, one product at a
        time, summed from the zero of the first such value's type, so a
        constant comes back as a float too; germlab sends ring values
        through `substitute`.
        """
        if len(values) != self.ctx.arity:
            raise ValueError(
                f"expected {self.ctx.arity} values, got {len(values)}")
        unpack, den = self._pk.unpack, self._den
        if all(isinstance(v, (int, Fraction)) for v in values):
            exps = list(map(unpack, self._nums))
            # rows[i][e] = a_i^e * b_i^(D_i - e)
            rows = [[v.numerator**e * v.denominator**(top - e) for e in range(top + 1)]
                    for v, top in zip(values, map(max, zip(*exps)))]
            total = 0
            for c, e in zip(self._nums.values(), exps):
                for row, k in zip(rows, e):
                    c *= row[k]
                total += c
            return Fraction(total, den * prod(row[0] for row in rows))
        v = next(v for v in values if not isinstance(v, (int, Fraction)))
        total = v - v if isinstance(v, RingElement) else type(v)()  # 0 of v's type
        for key, c in self._nums.items():
            if den != 1:
                c = Fraction(c, den)
            for v, k in zip(values, unpack(key)):
                if k:
                    c = c * v ** k
            total = total + c
        return total

    def lift(self, ctx: VarContext) -> "Polynomial":
        """Reinterpret over a larger context containing this one's names."""
        if ctx == self.ctx:
            return self
        return self._moved(ctx, [ctx.position(n) for n in self.ctx.names])

    def _moved(self, ctx: VarContext, positions: Sequence[int]) -> "Polynomial":
        # Over ctx, with the exponent of variable i at variable positions[i].
        pk = _packing(ctx.arity, self._degree())
        return Polynomial._from_packed(ctx, pk, self._den,
                                       _rekey(self._nums, self._pk, pk, positions))

    # -- exact division --------------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Quotient self / divisor when the division is exact.

        Repeated leading-term cancellation under graded lex; in an integral
        domain the leading term of the remainder stays divisible whenever
        divisor | self, so a failed monomial division proves the division
        inexact.  Raises ArithmeticError then, and ZeroDivisionError (also
        an ArithmeticError) on a zero divisor.

        The loop runs over integers: self is A / da and divisor g * B / db
        with A and B integral and B primitive.  By Gauss's lemma B | A over
        the rationals only if the quotient A / B is integral, so a leading
        coefficient that B's does not divide also proves the division
        inexact.
        """
        self._same_ctx(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        # Every remainder and quotient term has degree at most deg(self).
        pk = self._wider(divisor)
        unpack = pk.unpack
        da, db = self._den, divisor._den
        rem = dict(self._nums_in(pk))
        b = divisor._nums_in(pk)
        g = gcd(*b.values())
        b = [(k, c // g) for k, c in b.items()]
        kd, cd = max(b)
        ed = unpack(kd)
        out: dict[int, int] = {}
        get = rem.get
        while rem:
            kr = max(rem)  # the leading term: keys compare in graded lex
            q, r = divmod(rem[kr], cd)
            if r or min(map(sub, unpack(kr), ed)) < 0:
                left = Polynomial._from_packed(self.ctx, pk, da, rem)
                raise ArithmeticError(f"inexact division: {left} by {divisor}")
            kq = kr - kd
            out[kq] = q * db
            for k2, c2 in b:
                k = kq + k2
                s = get(k, 0) - q * c2
                if s:
                    rem[k] = s
                else:
                    del rem[k]
        return Polynomial._from_packed(self.ctx, pk, g * da, out)

    # -- printing --------------------------------------------------------

    def text(self) -> str:
        """Canonical form: graded-lex descending, explicit * and ^.

        Graded-lex order is integer order on the packed keys.
        """
        names, unpack, den, nums = self.ctx.names, self._pk.unpack, self._den, self._nums
        out = []
        for k in sorted(nums, reverse=True):
            c = nums[k]
            g = gcd(c, den)
            n, d = abs(c) // g, den // g
            mag = str(n) if d == 1 else f"{n}/{d}"
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, unpack(k)) if e)
            body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
            if not out:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(out) or "0"


def _graded_chains(ctx: VarContext, chains: Iterable[Sequence[Mapping[int, Polynomial]]],
                   land) -> dict[int, list[list[Polynomial]]]:
    """Each chain of graded factors spread into chains of parts, by bucket.

    A factor maps grades to Polynomials over ctx.  Choosing one part per
    factor gives a chain of Polynomials whose grade is the sum of the
    chosen grades, and land(grade) gives its (bucket, negated); a negated
    chain is led by a -1 factor, built only if some chain needs it.  A
    bucket lists its chains in input order, then in the factors' part
    order, so `_sum_of_products` over it merges terms in the order of the
    schoolbook expansion.
    """
    buckets: dict[int, list[list[Polynomial]]] = {}
    minus = None
    for chain in chains:
        picks: list[tuple[int, list[Polynomial]]] = [(0, [])]
        for f in chain:
            picks = [(k + j, ps + [p]) for k, ps in picks for j, p in f.items()]
        for k, ps in picks:
            b, negated = land(k)
            if negated:
                if minus is None:
                    minus = ctx.const(-1)
                ps.insert(0, minus)
            buckets.setdefault(b, []).append(ps)
    return buckets


class Graded(RingElement):
    """sum_k p_k * u^k with Polynomial parts p_k: a graded ring over Polynomial.

    `parts` maps the grade of each nonzero part to that part, a Polynomial
    over `_part_ctx(ctx)`.  `_land(k)` says which part u^k adds to and with
    which sign: LaurentPoly has u = t and each power its own part, while
    MixedPolynomial has u = i, so i^2 = -1 folds every grade into parts 0
    and 1.  A sum or a product is `sum_of_products`: one `_graded_chains`
    call, then one `_sum_of_products` per part.  A subclass gives `const`
    and `text`.  Instances are immutable by convention.
    """

    __slots__ = ("ctx", "parts")

    def __init__(self, ctx: VarContext, parts: Mapping[int, Polynomial]):
        self.ctx = ctx
        self.parts = {k: p for k, p in parts.items() if not p.is_zero()}

    @classmethod
    def _of(cls, ctx: VarContext, parts: Mapping[int, Polynomial]):
        # parts already over the part context: no validation
        g = object.__new__(cls)
        Graded.__init__(g, ctx, parts)
        return g

    @staticmethod
    def _part_ctx(ctx: VarContext) -> VarContext:
        return ctx

    @staticmethod
    def _land(k: int) -> tuple[int, bool]:
        return k, False

    @classmethod
    def sum_of_products(cls, ctx: VarContext, chains: Iterable[Sequence["Graded"]]):
        """The sum over chains of each chain's product, factors left to right."""
        pctx = cls._part_ctx(ctx)
        buckets = _graded_chains(pctx, ([f.parts for f in c] for c in chains), cls._land)
        return cls._of(ctx, {b: _sum_of_products(pctx, c) for b, c in buckets.items()})

    def is_zero(self) -> bool:
        return not self.parts

    def __neg__(self):
        return self._of(self.ctx, {k: -p for k, p in self.parts.items()})

    def __eq__(self, other) -> bool:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.ctx == other.ctx and self.parts == other.parts

    def __hash__(self) -> int:
        return hash((self.ctx.names, frozenset(self.parts.items())))


def substitute(p: Polynomial, values: Sequence, denominators: Sequence | None = None):
    """p(v_1, ..., v_m) in the ring of the values, as one sum of products.

    The ring is the values' class R, a RingElement: the term c * x^e is the
    chain [R.const(ctx, c), v_1^e_1, ...] over the values' context ctx, and
    the chains go to R.sum_of_products(ctx, chains) in term order, each
    power of each value object built once.  The powers are keyed by the
    value's identity, so equal values whose terms come in different orders
    each power their own.  With denominators d_i, each x_i is cleared to
    its degree deg_i in p: d_i^(deg_i - e_i) follows v_i^e_i, and the
    result is the numerator of p(v_1/d_1, ...) over prod d_i^deg_i.  A
    chain with a power of a zero value adds nothing and is left out, and a
    denominator 1 adds no factors.
    """
    if len(values) != p.ctx.arity:
        raise ValueError(f"expected {p.ctx.arity} values, got {len(values)}")
    ring, ctx = type(values[0]), values[0].ctx
    powers: dict[tuple[int, int], object] = {}

    def power(v, k: int):
        got = powers.get((id(v), k))
        if got is None:
            got = powers[id(v), k] = v ** k
        return got

    zero = [v.is_zero() for v in values]
    degs = None
    if denominators:
        one = ring.const(ctx, 1)
        degs = [0 if d == one else p.degree_in(n)
                for d, n in zip(denominators, p.ctx.names)]
    chains = []
    for e, c in p.terms.items():
        chain = [ring.const(ctx, c)]
        for i, k in enumerate(e):
            if k:
                if zero[i]:
                    break
                chain.append(power(values[i], k))
            if degs and degs[i] > k:
                chain.append(power(denominators[i], degs[i] - k))
        else:
            chains.append(chain)
    return ring.sum_of_products(ctx, chains)


class PolyMatrix:
    """Rectangular matrix of Polynomials over one shared context."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        if not (rows and rows[0]):
            raise ValueError("empty matrix")
        self.ctx = rows[0][0].ctx
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.entries = []
        for row in rows:
            if len(row) != self.cols:
                raise ValueError(f"ragged rows: {len(row)} entries, expected {self.cols}")
            for p in row:
                if p.ctx != self.ctx:
                    raise ValueError(f"mixed contexts in matrix: {p.ctx!r} vs {self.ctx!r}")
            self.entries.append(list(row))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        i, j = ij
        return self.entries[i][j]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if self.ctx != other.ctx:
            raise ValueError(f"context mismatch: {self.ctx!r} vs {other.ctx!r}")
        return PolyMatrix([
            [_sum_of_products(self.ctx, [(a, other.entries[k][j])
                                         for k, a in enumerate(row)])
             for j in range(other.cols)]
            for row in self.entries])

    def gram(self) -> "PolyMatrix":
        """A @ A^T with each entry on or above the diagonal computed once.

        The entry below the diagonal is the same object as the one above;
        it equals, with its terms in another order, what `@` would give.
        """
        rows = self.entries
        out = [[None] * self.rows for _ in rows]
        for i, a in enumerate(rows):
            for j in range(i, self.rows):
                out[i][j] = out[j][i] = _sum_of_products(self.ctx, list(zip(a, rows[j])))
        return PolyMatrix(out)

    def minors(self) -> list[Polynomial]:
        """All maximal minors, column subsets in lexicographic order."""
        if self.rows > self.cols:
            raise ValueError(f"no {self.rows} x {self.rows} minors in a {self.shape} matrix")
        return _laplace_minors(self.entries, self.ctx, combinations(range(self.cols), self.rows))

    def det(self) -> Polynomial:
        """Exact determinant: the one maximal minor of a square matrix."""
        if self.rows != self.cols:
            raise ValueError(f"determinant of non-square {self.shape}")
        return _laplace_minors(self.entries, self.ctx, [tuple(range(self.cols))])[0]


def _laplace_minors(m: list[list[Polynomial]], ctx: VarContext,
                    column_sets: Iterable[tuple[int, ...]]) -> list[Polynomial]:
    """The minors of all rows of m on each column set, by first-row expansion.

    A minor on k columns is one `_sum_of_products` over row len(m) - k:
    chains [entry, sub-minor], led by -1 at odd positions, none for a zero
    entry.  Sub-minors are memoized by column tuple, so each is built once
    (Gentleman & Johnson, ACM TOMS 1976).  No division.
    """
    n = len(m)
    minus = ctx.const(-1)
    memo: dict[tuple[int, ...], Polynomial] = {}

    def minor(cols: tuple[int, ...]) -> Polynomial:
        got = memo.get(cols)
        if got is None:
            row = m[n - len(cols)]
            if len(cols) == 1:
                got = row[cols[0]]
            else:
                chains = []
                for t, j in enumerate(cols):
                    if row[j].is_zero():
                        continue
                    chain = [row[j], minor(cols[:t] + cols[t + 1:])]
                    chains.append([minus, *chain] if t % 2 else chain)
                got = _sum_of_products(ctx, chains)
            memo[cols] = got
        return got

    return [minor(cols) for cols in column_sets]
