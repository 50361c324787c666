"""Exact arithmetic in the extended infinite dihedral group and its group algebra.

The group is D_inf x Z_2 with presentation

    < a, t, tau | a^2 = t^2 = tau^2 = 1, a tau = tau a, t tau = tau t >.

Writing u = a*t (an infinite-order rotation), every element has a unique
normal form

    tau^eps * t^delta * u^k        with eps, delta in {0, 1}, k in Z,

which we store as the triple (k, t_flag, tau_flag).  The reduction rules are
tau central, t^2 = 1 and u^j * t = t * u^(-j), so

    (t^d1 u^k1)(t^d2 u^k2) = t^(d1 xor d2) u^((-1)^d2 * k1 + k2).

Group-algebra elements are finitely supported complex combinations of
normal forms; coefficients below ``PRUNE_TOL`` are dropped after every
arithmetic operation to keep supports finite and deterministic.

Two central linear functionals are provided:

* ``canonical_trace`` -- coefficient of the identity (the vector state at
  delta_e of the left regular representation).
* ``phi_trace``       -- the twisted functional taking -1 at the identity
  and +1 at tau, and 0 elsewhere; it is central but not positive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

PRUNE_TOL = 1e-15


class FunctionalKind(enum.Enum):
    """The two central functionals evaluated throughout the toolkit."""

    CANONICAL_TRACE = "tr"
    PHI_TENSOR_TRACE = "phitr"

    @classmethod
    def coerce(cls, value) -> "FunctionalKind":
        if isinstance(value, cls):
            return value
        key = str(value).lower()
        for kind in cls:
            if key == kind.value:
                return kind
        raise ValueError(f"unknown functional {value!r}")

    def json_tag(self) -> str:
        return "Tr" if self is FunctionalKind.CANONICAL_TRACE else "PhiTensorTrace"


@dataclass(frozen=True)
class GroupElement:
    """Normal form tau^eps t^delta u^k with u = a*t."""

    k: int = 0
    t_flag: int = 0
    tau_flag: int = 0

    def __post_init__(self):
        if self.t_flag not in (0, 1) or self.tau_flag not in (0, 1):
            raise ValueError("flags must be 0 or 1")

    def is_identity(self) -> bool:
        return self.k == 0 and self.t_flag == 0 and self.tau_flag == 0

    def __str__(self) -> str:
        if self.is_identity():
            return "e"
        parts = []
        if self.tau_flag:
            parts.append("T")
        if self.t_flag:
            parts.append("t")
        if self.k > 0:
            parts.append("at" * self.k)
        elif self.k < 0:
            parts.append("ta" * (-self.k))
        return "".join(parts)


IDENTITY = GroupElement()
GEN_A = GroupElement(k=-1, t_flag=1)  # a = t * u^(-1)
GEN_T = GroupElement(t_flag=1)
GEN_TAU = GroupElement(tau_flag=1)
GEN_U = GroupElement(k=1)  # u = a*t


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Product g*h reduced to normal form."""
    sign = -1 if h.t_flag else 1
    return GroupElement(
        k=sign * g.k + h.k,
        t_flag=g.t_flag ^ h.t_flag,
        tau_flag=g.tau_flag ^ h.tau_flag,
    )


def generator_product(indices: Iterable[int]) -> GroupElement:
    """Product of the generators (a, t, tau)[i] for i in ``indices``, left to
    right, folded in the integers of the normal form as ``mul`` would reduce
    it: a = t u^-1 sends k to -k - 1 and t sends k to -k, both flip t_flag,
    and tau flips tau_flag."""
    k = t_flag = tau_flag = 0
    for i in indices:
        if i == 0:
            k, t_flag = -k - 1, t_flag ^ 1
        elif i == 1:
            k, t_flag = -k, t_flag ^ 1
        elif i == 2:
            tau_flag ^= 1
        else:
            raise ValueError(f"generator index {i!r} is not 0, 1 or 2")
    return GroupElement(k, t_flag, tau_flag)


def inv(g: GroupElement) -> GroupElement:
    """Inverse of g.  Elements with t_flag set are involutions."""
    if g.t_flag:
        return g
    return GroupElement(k=-g.k, t_flag=0, tau_flag=g.tau_flag)


def parse_word(text: str) -> GroupElement:
    """Fold a word over the letters {a, t, T, e} (T = tau) via ``mul``.

    Whitespace separates factors but has no algebraic effect:
    ``"aTt a"`` is the product a*tau*t*a.
    """
    g = IDENTITY
    for ch in text:
        if ch.isspace() or ch == "e":
            continue
        if ch == "a":
            g = mul(g, GEN_A)
        elif ch == "t":
            g = mul(g, GEN_T)
        elif ch == "T":
            g = mul(g, GEN_TAU)
        else:
            raise ValueError(f"unknown generator letter {ch!r}")
    return g


class AlgebraElement:
    """Finitely supported complex combination of group elements."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[GroupElement, complex] | None = None):
        data: Dict[GroupElement, complex] = {}
        if coeffs:
            for g, c in coeffs.items():
                c = complex(c)
                if abs(c) >= PRUNE_TOL:
                    data[g] = data.get(g, 0) + c
        self.coeffs = {g: c for g, c in data.items() if abs(c) >= PRUNE_TOL}

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        data = dict(self.coeffs)
        for g, c in other.coeffs.items():
            data[g] = data.get(g, 0) + c
        return AlgebraElement(data)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return algebra_mul(self, other)
        return AlgebraElement({g: c * complex(other) for g, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(
            abs(self.coeffs.get(g, 0) - other.coeffs.get(g, 0)) < 1e-12 for g in keys
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = sorted(
            self.coeffs.items(), key=lambda it: (it[0].tau_flag, it[0].t_flag, it[0].k)
        )
        return " + ".join(f"({c:.6g})*{g}" for g, c in terms)


def algebra_mul(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Convolution product on the group algebra."""
    data: Dict[GroupElement, complex] = {}
    for x, cx in f.coeffs.items():
        for y, cy in g.coeffs.items():
            z = mul(x, y)
            data[z] = data.get(z, 0) + cx * cy
    return AlgebraElement(data)


def algebra_star(f: AlgebraElement) -> AlgebraElement:
    """Adjoint: coefficients conjugated and group elements inverted."""
    return AlgebraElement({inv(g): c.conjugate() for g, c in f.coeffs.items()})


def canonical_trace(f: AlgebraElement) -> complex:
    """Coefficient of the identity element."""
    return f.coeffs.get(IDENTITY, 0j)


def phi_trace(f: AlgebraElement) -> complex:
    """The twisted central functional: -1 at e, +1 at tau, 0 elsewhere."""
    return -f.coeffs.get(IDENTITY, 0j) + f.coeffs.get(GEN_TAU, 0j)


def invert_scalar_plus_tau(f: AlgebraElement) -> AlgebraElement:
    """Invert an element supported on {e, tau} (commutative subalgebra).

    (alpha*e + beta*tau)^(-1) = (alpha*e - beta*tau) / (alpha^2 - beta^2).
    """
    alpha = f.coeffs.get(IDENTITY, 0j)
    beta = f.coeffs.get(GEN_TAU, 0j)
    if set(f.coeffs) - {IDENTITY, GEN_TAU}:
        raise ValueError("element is not supported on {e, tau}")
    det = alpha * alpha - beta * beta
    if abs(det) < PRUNE_TOL:
        raise ZeroDivisionError("element is not invertible")
    return AlgebraElement({IDENTITY: alpha / det, GEN_TAU: -beta / det})
