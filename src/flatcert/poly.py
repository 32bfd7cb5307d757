"""Exact sparse multivariate polynomials over QQ, monomial orders, and
presented (quotient) rings.

Coefficients are `fractions.Fraction`, so arithmetic is exact and every
stored value is automatically in lowest terms with a positive denominator.
That is the public type: the module engine (`modules`) keeps integral
coefficients as Python ints internally and turns them back into
`Fraction` at its one exit, before any `Polynomial` is built.
A monomial is a plain tuple of nonnegative integer exponents, one slot per
ring variable; exponents are Python ints and cannot overflow.  The module
engine packs each of its terms into one int internally and unpacks
them to tuples before any `Polynomial` is built, so `Polynomial.terms`
and the `mono_*` helpers here only ever see tuples.  The zero
polynomial has an empty term map.

Each monomial order has one sort key, `RingSignature.descending_key()`,
which descends with the order: the greatest monomial has the smallest
key.  Leading terms, printing, `compare_monomials` and every division
and normal form read the order through it; normal forms compute it once
per term and select the top term with a heap.  A `PresentedRing`'s
defining ideal is a `groebner.IdealHandle` in the polynomial ring; its
one Groebner table serves `reduce` and `defining_basis`.  The product
ring of ring maps and morphisms is `tensor_with_renaming`'s.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter, le, neg, sub

from .record import record

Scalar = int | Fraction
Monomial = tuple[int, ...]

GREVLEX = "grevlex"
LEX = "lex"
BLOCK = "block"


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(AlgebraError):
    """Operands live in different rings or have mismatched shapes."""


class ArgumentError(AlgebraError):
    """An argument violates an operation's contract."""


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a divides b componentwise."""
    return all(map(le, a, b))


def mono_quotient(a: Monomial, b: Monomial) -> Monomial:
    """The monomial a/b; b must divide a."""
    q = tuple(map(sub, a, b))
    if q and min(q) < 0:
        raise ArgumentError("monomial quotient with negative exponent")
    return q


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


def _grevlex_descending(m: Monomial) -> tuple:
    # Higher degree first; in a degree, the smaller reversed exponent
    # tuple is the greater monomial.
    return (-sum(m), m[::-1])


def _lex_descending(m: Monomial) -> tuple:
    return tuple(map(neg, m))


@lru_cache(maxsize=None)
def _descending_function(order: str, block: int) -> Callable[[Monomial], tuple]:
    if order == GREVLEX:
        return _grevlex_descending
    if order == LEX:
        return _lex_descending
    if order == BLOCK:
        def block_descending(m: Monomial, k: int = block) -> tuple:
            return (_grevlex_descending(m[:k]), _grevlex_descending(m[k:]))
        return block_descending
    raise ArgumentError(f"unknown monomial order {order!r}")


@record
class RingSignature:
    """Variable names plus the monomial order they carry.

    order is one of "grevlex", "lex", or "block"; for "block" the first
    `block` variables form a leading grevlex block and the remaining
    variables a trailing grevlex block (an elimination order for the
    leading block).
    """

    variables: tuple[str, ...]
    order: str = GREVLEX
    block: int = 0

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ArgumentError("duplicate variable names")
        if self.order not in (GREVLEX, LEX, BLOCK):
            raise ArgumentError(f"unknown monomial order {self.order!r}")
        if self.order == BLOCK and not 0 <= self.block <= len(self.variables):
            raise ArgumentError("block size out of range")

    def descending_key(self) -> Callable[[Monomial], tuple]:
        """Sort key that descends with the monomial order: the smallest
        key belongs to the greatest monomial."""
        return _descending_function(self.order, self.block)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ArgumentError(f"unknown variable {name!r}") from None

    @property
    def nvars(self) -> int:
        return len(self.variables)


def compare_monomials(a: Monomial, b: Monomial, sig: RingSignature) -> int:
    """-1, 0, or 1 as a is less than, equal to, or greater than b."""
    if len(a) != sig.nvars or len(b) != sig.nvars:
        raise DimensionError("monomial length does not match signature")
    if any(e < 0 for e in a) or any(e < 0 for e in b):
        raise ArgumentError("negative exponent")
    key = sig.descending_key()
    ka, kb = key(a), key(b)
    return (ka < kb) - (ka > kb)


def add_terms(
    out: dict[Monomial, Fraction], terms: Mapping[Monomial, Fraction], op: Callable
) -> None:
    """out[m] = op(out[m], c) for each term c*x^m, in place; a coefficient
    that becomes zero leaves out."""
    for m, c in terms.items():
        nc = op(out.get(m, 0), c)
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """A deterministic identifier starting from `base` avoiding `taken`."""
    used = set(taken)
    if base not in used:
        return base
    k = 1
    while f"{base}_{k}" in used:
        k += 1
    return f"{base}_{k}"


def picker(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """itemgetter(*indices), returning a tuple for any number of indices."""
    if len(indices) == 1:  # itemgetter would return the bare item
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices) if indices else itemgetter(slice(0))


class Polynomial:
    """Immutable sparse polynomial attached to a RingSignature."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: RingSignature, terms: Mapping[Monomial, Scalar]):
        clean: dict[Monomial, Fraction] = {}
        n = sig.nvars
        for m, c in terms.items():
            if len(m) != n:
                raise DimensionError("monomial length does not match signature")
            if any(e < 0 for e in m):
                raise ArgumentError("negative exponent")
            c = Fraction(c)
            if c:
                clean[m] = c
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _raw(sig: RingSignature, terms: dict[Monomial, Fraction]) -> "Polynomial":
        p = object.__new__(Polynomial)
        _set_sig(p, sig)
        _set_terms(p, terms)
        return p

    @classmethod
    def zero(cls, sig: RingSignature) -> "Polynomial":
        return cls._raw(sig, {})

    @classmethod
    def constant(cls, sig: RingSignature, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return cls.zero(sig)
        return cls._raw(sig, {(0,) * sig.nvars: c})

    @classmethod
    def variable(cls, sig: RingSignature, name: str) -> "Polynomial":
        i = sig.index(name)
        mono = tuple(1 if j == i else 0 for j in range(sig.nvars))
        return cls._raw(sig, {mono: Fraction(1)})

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    __hash__ = None

    def _check(self, other: "Polynomial") -> None:
        if self.sig != other.sig:
            raise DimensionError("polynomials over different signatures")

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.sig, other)
        return other

    def _signed_sum(self, other, op: Callable) -> "Polynomial":
        other = self._coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        add_terms(out, other.terms, op)
        return Polynomial._raw(self.sig, out)

    def __add__(self, other) -> "Polynomial":
        return self._signed_sum(other, add)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        return self._signed_sum(other, sub)

    def __rsub__(self, other) -> "Polynomial":
        coerced = self._coerce(other)
        if not isinstance(coerced, Polynomial):
            return NotImplemented
        return coerced.__sub__(self)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.sig, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return Polynomial._raw(self.sig, out)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial.zero(self.sig)
        return Polynomial._raw(self.sig, {m: c * v for m, v in self.terms.items()})

    def mul_term(self, mono: Monomial, c: Scalar) -> "Polynomial":
        """self * c * x^mono."""
        c = Fraction(c)
        if not c:
            return Polynomial.zero(self.sig)
        return Polynomial._raw(
            self.sig, {mono_mul(m, mono): c * v for m, v in self.terms.items()}
        )

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ArgumentError("exponent must be a nonnegative integer")
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            return Polynomial._raw(self.sig, {tuple(e * k for k in m): c**e})
        result = Polynomial.constant(self.sig, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ArgumentError("zero polynomial has no leading monomial")
        return min(self.terms, key=self.sig.descending_key())

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def leading_term(self) -> tuple[Monomial, Fraction]:
        m = self.leading_monomial()
        return m, self.terms[m]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.leading_coefficient()
        if c == 1:
            return self
        return Polynomial._raw(self.sig, {m: v / c for m, v in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.sig.variables
        parts: list[str] = []
        for m in sorted(self.terms, key=self.sig.descending_key()):
            c = self.terms[m]
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(f"-{text}" if c < 0 else text)
            else:
                parts.append(f" - {text}" if c < 0 else f" + {text}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# The slots' own setters, past the immutability guard, for `_raw`.
_set_sig, _set_terms = Polynomial.sig.__set__, Polynomial.terms.__set__


def transplant(
    f: Polynomial,
    new_sig: RingSignature,
    rename: Mapping[str, str] | None = None,
) -> Polynomial:
    """Re-home f into new_sig, optionally renaming variables first.

    Every variable appearing in f with a nonzero exponent must map to a
    variable of new_sig.
    """
    if not f.terms:
        return Polynomial._raw(new_sig, {})
    old = f.sig.variables
    slot: list[int | None] = []
    for name in old:
        target = rename.get(name, name) if rename else name
        try:
            slot.append(new_sig.variables.index(target))
        except ValueError:
            slot.append(None)
    out: dict[Monomial, Fraction] = {}
    for m, c in f.terms.items():
        exps = [0] * new_sig.nvars
        for i, e in enumerate(m):
            if not e:
                continue
            j = slot[i]
            if j is None:
                raise ArgumentError(
                    f"variable {old[i]!r} has no image in the target signature"
                )
            exps[j] += e
        key = tuple(exps)
        nc = out.get(key, 0) + c
        if nc:
            out[key] = nc
        else:
            out.pop(key, None)
    return Polynomial._raw(new_sig, out)


class PresentedRing:
    """QQ[variables]/(defining generators).

    Instances are immutable in practice.  The defining ideal, a
    `groebner.IdealHandle` in the polynomial ring of the same signature,
    serves `defining_basis` and `reduce`; it is built at most once and
    reused by every later call, so sharing a ring between threads is safe.
    """

    __slots__ = ("signature", "defining", "_ideal")

    def __init__(self, signature: RingSignature, defining: Iterable[Polynomial] = ()):
        object.__setattr__(self, "signature", signature)
        kept = []
        for p in defining:
            if p.sig != signature:
                raise DimensionError("defining generator over a different signature")
            if not p.is_zero():
                kept.append(p)
        object.__setattr__(self, "defining", tuple(kept))
        object.__setattr__(self, "_ideal", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PresentedRing is immutable")

    @property
    def is_quotient(self) -> bool:
        return bool(self.defining)

    def _defining_ideal(self):
        if self._ideal is None:
            from .groebner import IdealHandle

            ambient = PresentedRing(self.signature)
            object.__setattr__(self, "_ideal", IdealHandle(ambient, self.defining))
        return self._ideal

    def defining_basis(self) -> tuple[Polynomial, ...]:
        """Reduced Groebner basis of the defining ideal (cached)."""
        return self._defining_ideal().groebner_basis()

    def reduce(self, f: Polynomial) -> Polynomial:
        """Normal form of f modulo the defining ideal (the remainder of
        dividing f by the reduced defining basis)."""
        if f.sig != self.signature:
            raise DimensionError("polynomial over a different signature")
        if not self.defining or not f.terms:
            return f
        return self._defining_ideal().normal_form(f)

    def quotient(
        self, gens: Iterable[Polynomial]
    ) -> tuple["PresentedRing", Callable[[Polynomial], Polynomial]]:
        """This ring modulo (gens), with the projection f -> f mod gens.

        Each variable that some generator is a nonzero scalar multiple of
        is dropped: it is set to 0 in the other generators and in the
        defining relations, which then present the quotient in the
        remaining variables.  Those keep the restricted order: the same
        grevlex or lex, and for a block order the kept leading-block
        variables form the block.  Projected polynomials are not reduced
        modulo the quotient's defining ideal."""
        sig = self.signature
        gens = tuple(gens)
        dropped = set()
        for g in gens:
            if g.sig != sig:
                raise DimensionError("generator over a different signature")
            if len(g.terms) == 1:
                (m,) = g.terms
                if sum(m) == 1:
                    dropped.add(m.index(1))
        kept = [i for i in range(sig.nvars) if i not in dropped]
        qsig = RingSignature(
            tuple(sig.variables[i] for i in kept),
            sig.order,
            sum(1 for i in kept if i < sig.block),
        )
        zero = Polynomial.zero(qsig)
        pick, gone = picker(kept), picker(sorted(dropped))

        def project(f: Polynomial) -> Polynomial:
            if f.sig is not sig and f.sig != sig:
                raise DimensionError("polynomial over a different signature")
            if not f.terms:
                return zero
            return Polynomial._raw(
                qsig, {pick(m): c for m, c in f.terms.items() if not any(gone(m))}
            )

        return PresentedRing(qsig, map(project, gens + self.defining)), project

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.signature)

    def one(self) -> Polynomial:
        return Polynomial.constant(self.signature, 1)

    def var(self, name: str) -> Polynomial:
        return Polynomial.variable(self.signature, name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PresentedRing):
            return NotImplemented
        if self.signature != other.signature:
            return False
        return (
            self.defining == other.defining
            or self.defining_basis() == other.defining_basis()
        )

    __hash__ = None

    def __str__(self) -> str:
        base = f"QQ[{','.join(self.signature.variables)}]"
        if self.defining:
            rels = ", ".join(str(p) for p in self.defining)
            return f"{base}/({rels})"
        return base

    def __repr__(self) -> str:
        return f"PresentedRing({self})"


def tensor_with_renaming(
    A: PresentedRing, B: PresentedRing
) -> tuple[PresentedRing, dict[str, str], dict[str, str]]:
    """A tensor B over QQ, with the two variable renamings used.

    Clashing names get deterministic numeric suffixes (u, v in both
    factors become u1, v1 and u2, v2); non-clashing names are kept.  The
    product carries the factors' order when both carry the same grevlex
    or lex order, and grevlex otherwise.
    """
    avars = A.signature.variables
    bvars = B.signature.variables
    clash = set(avars) & set(bvars)
    used = set(avars) | set(bvars)

    def rename(variables: Sequence[str], suffix: str) -> dict[str, str]:
        out: dict[str, str] = {}
        for v in variables:
            w = fresh_name(f"{v}{suffix}", used) if v in clash else v
            used.add(w)
            out[v] = w
        return out

    rename_a = rename(avars, "1")
    rename_b = rename(bvars, "2")
    order = A.signature.order
    if order != B.signature.order or order not in (GREVLEX, LEX):
        order = GREVLEX
    sig = RingSignature(tuple(rename_a.values()) + tuple(rename_b.values()), order)
    defining = [transplant(p, sig, rename_a) for p in A.defining]
    defining += [transplant(p, sig, rename_b) for p in B.defining]
    return PresentedRing(sig, defining), rename_a, rename_b
