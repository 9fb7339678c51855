"""Classical and generalized (isostrophic) derivatives of a quasigroup.

A derivative spec is a parastrophe symbol plus an isotopy triple of
translation kinds at a fixed element, exactly one component being the
identity permutation.  There are 108 such triples and 6 parastrophes,
hence 648 specs.

How the triple acts is genuinely convention-dependent, so the action is
parameterized by three switches (see Convention).  The default convention A
applies alpha and beta directly to the arguments, applies gamma inversely
to the product, and takes all translations in the base quasigroup:

    x . y = gamma^-1( B(alpha(x), beta(y)) )      B = sigma-parastrophe
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .parastrophe import KINDS, ROW_ORDER, ParastropheSym, apply_parastrophe
from .qcore import Quasigroup, TranslationKind, from_table, invert_images, translation_images


@dataclass(frozen=True)
class IsotopyTriple:
    alpha: TranslationKind
    beta: TranslationKind
    gamma: TranslationKind

    def __post_init__(self):
        n_identity = [self.alpha, self.beta, self.gamma].count(TranslationKind.E)
        if n_identity != 1:
            raise ValueError(
                f"triple must have exactly one identity component, got {n_identity}"
            )

    @property
    def token(self) -> str:
        return f"{self.alpha.token},{self.beta.token},{self.gamma.token}"


@dataclass(frozen=True)
class DerivativeSpec:
    sigma: ParastropheSym
    triple: IsotopyTriple

    @property
    def token(self) -> str:
        return f"{self.sigma.token}:{self.triple.token}"


@dataclass(frozen=True)
class Convention:
    """Three independent switches resolving how an isotopy triple acts.

    arg_action: are alpha, beta applied to the arguments as given or as
        their inverses.
    result_action: is gamma applied to the product as given or as its
        inverse.
    translation_source: are the translations taken in the base quasigroup
        or in the sigma-parastrophe.
    """

    arg_action: str = "direct"          # direct | inverse
    result_action: str = "inverse"      # direct | inverse
    translation_source: str = "base"    # base | parastrophe

    def __post_init__(self):
        if self.arg_action not in ("direct", "inverse"):
            raise ValueError(f"bad arg_action {self.arg_action!r}")
        if self.result_action not in ("direct", "inverse"):
            raise ValueError(f"bad result_action {self.result_action!r}")
        if self.translation_source not in ("base", "parastrophe"):
            raise ValueError(f"bad translation_source {self.translation_source!r}")

    @property
    def token(self) -> str:
        trans = "base" if self.translation_source == "base" else "para"
        return f"args={self.arg_action};result={self.result_action};trans={trans}"


CONVENTION_A = Convention("direct", "inverse", "base")


def all_conventions() -> tuple[Convention, ...]:
    """The eight conventions, in a fixed order (A is first)."""
    rest = tuple(
        Convention(a, r, t)
        for a in ("direct", "inverse")
        for r in ("direct", "inverse")
        for t in ("base", "parastrophe")
        if Convention(a, r, t) != CONVENTION_A
    )
    return (CONVENTION_A,) + rest


# Block layout of the 648 specs: for each base kind k, the patterns
# (k,*,E), (k,E,*), (E,k,*) with * running over all six kinds, then the six
# parastrophe rows per block (parastrophe.KINDS and ROW_ORDER).
_E = TranslationKind.E


@lru_cache(maxsize=1)
def enumerate_triples() -> tuple[IsotopyTriple, ...]:
    """The 108 isotopy triples in canonical block order."""
    triples = []
    for k in KINDS:
        for pattern in ("ends", "middle", "start"):
            for m in KINDS:
                if pattern == "ends":
                    triples.append(IsotopyTriple(k, m, _E))
                elif pattern == "middle":
                    triples.append(IsotopyTriple(k, _E, m))
                else:
                    triples.append(IsotopyTriple(_E, k, m))
    return tuple(triples)


@lru_cache(maxsize=1)
def enumerate_specs() -> tuple[DerivativeSpec, ...]:
    """All 648 derivative specs in canonical order (blocks x parastrophe rows)."""
    return tuple(
        DerivativeSpec(sigma, triple)
        for triple in enumerate_triples()
        for sigma in ROW_ORDER
    )


Maps = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def derivative_maps(
    q: Quasigroup, b: Quasigroup, a: int, spec: DerivativeSpec, conv: Convention
) -> Maps:
    """The images of alpha, beta, gamma at a after the convention's actions.

    ``b`` is the spec's sigma-parastrophe of ``q``; the translations are
    taken in q or in b as the convention says.  The derivative is then
    x . y = gamma(b(alpha(x), beta(y))) (derivative_products).
    """
    source = q if conv.translation_source == "base" else b
    alpha = translation_images(source, spec.triple.alpha, a)
    beta = translation_images(source, spec.triple.beta, a)
    gamma = translation_images(source, spec.triple.gamma, a)
    if conv.arg_action == "inverse":
        alpha, beta = invert_images(alpha), invert_images(beta)
    if conv.result_action == "inverse":
        gamma = invert_images(gamma)
    return alpha, beta, gamma


def derivative_products(
    b: Quasigroup, maps: Maps, cells: Iterable[tuple[int, int]]
) -> list[int]:
    """x . y = gamma(b(alpha(x), beta(y))) at each (x, y) of cells."""
    alpha, beta, gamma = maps
    bt = b.mul_table
    return [gamma[bt[alpha[x]][beta[y]]] for x, y in cells]


def compose_derivative(b: Quasigroup, maps: Maps) -> list[list[int]]:
    """Cayley rows of x . y = gamma(b(alpha(x), beta(y))), without validation."""
    n = b.n
    flat = derivative_products(b, maps, itertools.product(range(n), repeat=2))
    return [flat[i:i + n] for i in range(0, n * n, n)]


def apply_derivative(
    q: Quasigroup, a: int, spec: DerivativeSpec, conv: Convention = CONVENTION_A
) -> Quasigroup:
    """The generalized derivative of q at a for the given spec and convention.

    The result is an isostrophe of q, hence always a quasigroup; validation
    is rerun anyway as a cheap invariant check.
    """
    b = q if spec.sigma is ParastropheSym.ID else apply_parastrophe(q, spec.sigma)
    return from_table(compose_derivative(b, derivative_maps(q, b, a, spec, conv)))


def _classical(sigma: ParastropheSym, alpha, beta, gamma) -> DerivativeSpec:
    return DerivativeSpec(sigma, IsotopyTriple(alpha, beta, gamma))


RIGHT_DERIVATIVE_SPEC = _classical(ParastropheSym.ID, TranslationKind.L, _E, TranslationKind.L)
LEFT_DERIVATIVE_SPEC = _classical(ParastropheSym.ID, _E, TranslationKind.R, TranslationKind.R)
MIDDLE_DERIVATIVE_SPEC = _classical(
    ParastropheSym.ID, TranslationKind.R, TranslationKind.LINV, _E
)
MIDDLE_INVERSE_DERIVATIVE_SPEC = _classical(
    ParastropheSym.ID, TranslationKind.RINV, TranslationKind.L, _E
)


def right_derivative(q: Quasigroup, a: int) -> Quasigroup:
    """x . y = a \\ ((a*x)*y); satisfies (a*x)*y = a*(x . y) and is a left loop."""
    return apply_derivative(q, a, RIGHT_DERIVATIVE_SPEC, CONVENTION_A)


def left_derivative(q: Quasigroup, a: int) -> Quasigroup:
    """x . y = (x*(y*a)) / a; satisfies (x . y)*a = x*(y*a) and is a right loop."""
    return apply_derivative(q, a, LEFT_DERIVATIVE_SPEC, CONVENTION_A)


def middle_derivative(q: Quasigroup, a: int) -> Quasigroup:
    """x . y = (x*a) * (a\\y); a left loop."""
    return apply_derivative(q, a, MIDDLE_DERIVATIVE_SPEC, CONVENTION_A)


def middle_inverse_derivative(q: Quasigroup, a: int) -> Quasigroup:
    """x . y = (x/a) * (a*y); a right loop."""
    return apply_derivative(q, a, MIDDLE_INVERSE_DERIVATIVE_SPEC, CONVENTION_A)
