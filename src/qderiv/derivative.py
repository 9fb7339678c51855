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

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .parastrophe import ParastropheSym, apply_parastrophe
from .qcore import Quasigroup, TranslationKind, from_table, translation_images
from .units import UnitKind, find_unit


class TripleComponent(Enum):
    L = "L"
    LINV = "Li"
    R = "R"
    RINV = "Ri"
    P = "P"
    PINV = "Pi"
    E = "E"  # the identity permutation

    @property
    def token(self) -> str:
        return self.value

    @property
    def translation_kind(self) -> TranslationKind | None:
        return None if self is TripleComponent.E else TranslationKind(self.value)

    @property
    def inverse(self) -> "TripleComponent":
        if self is TripleComponent.E:
            return self
        return TripleComponent(self.translation_kind.inverse.value)


TRANSLATION_COMPONENTS = tuple(c for c in TripleComponent if c is not TripleComponent.E)


@dataclass(frozen=True)
class IsotopyTriple:
    alpha: TripleComponent
    beta: TripleComponent
    gamma: TripleComponent

    def __post_init__(self):
        n_identity = [self.alpha, self.beta, self.gamma].count(TripleComponent.E)
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
# parastrophe rows per block.
_KIND_ORDER = (
    TripleComponent.L,
    TripleComponent.LINV,
    TripleComponent.R,
    TripleComponent.RINV,
    TripleComponent.P,
    TripleComponent.PINV,
)

_SIGMA_ORDER = (
    ParastropheSym.ID,
    ParastropheSym.S12,
    ParastropheSym.S23,
    ParastropheSym.S132,
    ParastropheSym.S13,
    ParastropheSym.S123,
)

_E = TripleComponent.E


@lru_cache(maxsize=1)
def enumerate_triples() -> tuple[IsotopyTriple, ...]:
    """The 108 isotopy triples in canonical block order."""
    triples = []
    for k in _KIND_ORDER:
        for pattern in ("ends", "middle", "start"):
            for m in _KIND_ORDER:
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
        for sigma in _SIGMA_ORDER
    )


def _component_images(
    source: Quasigroup, component: TripleComponent, a: int
) -> tuple[int, ...]:
    if component is TripleComponent.E:
        return tuple(range(source.n))
    return translation_images(source, component.translation_kind, a)


def _invert(images: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(images)
    for i, v in enumerate(images):
        out[v] = i
    return tuple(out)


Maps = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def derivative_maps(
    q: Quasigroup, b: Quasigroup, a: int, spec: DerivativeSpec, conv: Convention
) -> Maps:
    """The images of alpha, beta, gamma at a after the convention's actions.

    ``b`` is the spec's sigma-parastrophe of ``q``; the translations are
    taken in q or in b as the convention says.  The derivative is then
    x . y = gamma(b(alpha(x), beta(y))) (compose_derivative).
    """
    source = q if conv.translation_source == "base" else b
    alpha = _component_images(source, spec.triple.alpha, a)
    beta = _component_images(source, spec.triple.beta, a)
    gamma = _component_images(source, spec.triple.gamma, a)
    if conv.arg_action == "inverse":
        alpha, beta = _invert(alpha), _invert(beta)
    if conv.result_action == "inverse":
        gamma = _invert(gamma)
    return alpha, beta, gamma


def compose_derivative(b: Quasigroup, maps: Maps) -> list[list[int]]:
    """Cayley rows of x . y = gamma(b(alpha(x), beta(y))), without validation."""
    alpha, beta, gamma = maps
    bt = b.mul_table
    return [[gamma[bt[ax][by]] for by in beta] for ax in alpha]


def derivative_rows(
    q: Quasigroup, a: int, spec: DerivativeSpec, conv: Convention = CONVENTION_A
) -> list[list[int]]:
    """Cayley rows of the derivative, without validation."""
    b = q if spec.sigma is ParastropheSym.ID else apply_parastrophe(q, spec.sigma)
    return compose_derivative(b, derivative_maps(q, b, a, spec, conv))


def apply_derivative(
    q: Quasigroup, a: int, spec: DerivativeSpec, conv: Convention = CONVENTION_A
) -> Quasigroup:
    """The generalized derivative of q at a for the given spec and convention.

    The result is an isostrophe of q, hence always a quasigroup; validation
    is rerun anyway as a cheap invariant check.
    """
    return from_table(derivative_rows(q, a, spec, conv))


def _classical(sigma: ParastropheSym, alpha, beta, gamma) -> DerivativeSpec:
    return DerivativeSpec(sigma, IsotopyTriple(alpha, beta, gamma))


RIGHT_DERIVATIVE_SPEC = _classical(ParastropheSym.ID, TripleComponent.L, _E, TripleComponent.L)
LEFT_DERIVATIVE_SPEC = _classical(ParastropheSym.ID, _E, TripleComponent.R, TripleComponent.R)
MIDDLE_DERIVATIVE_SPEC = _classical(
    ParastropheSym.ID, TripleComponent.R, TripleComponent.LINV, _E
)
MIDDLE_INVERSE_DERIVATIVE_SPEC = _classical(
    ParastropheSym.ID, TripleComponent.RINV, TripleComponent.L, _E
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


# The three unit-existence claims checked by theorem_check: spec and the
# claimed unit kind.
THEOREM_CLAIMS: dict[int, tuple[DerivativeSpec, UnitKind]] = {
    1: (
        _classical(ParastropheSym.ID, TripleComponent.L, TripleComponent.L, _E),
        UnitKind.LEFT,
    ),
    2: (
        _classical(ParastropheSym.S12, TripleComponent.L, TripleComponent.L, _E),
        UnitKind.RIGHT,
    ),
    3: (
        _classical(ParastropheSym.S23, TripleComponent.L, TripleComponent.LINV, _E),
        UnitKind.LEFT,
    ),
}


def theorem_check(
    q: Quasigroup, a: int, claim: int, conv: Convention = CONVENTION_A
) -> int | None:
    """Search for the claimed unit of the claim's derivative; None if absent.

    Existence is searched rather than evaluating any closed-form witness:
    the claims' published witnesses treat a permutation power as an element
    and have no element-level meaning.
    """
    if claim not in THEOREM_CLAIMS:
        raise ValueError(f"claim must be 1, 2 or 3, got {claim}")
    spec, kind = THEOREM_CLAIMS[claim]
    return find_unit(apply_derivative(q, a, spec, conv), kind)


