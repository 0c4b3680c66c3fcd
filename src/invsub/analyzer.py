"""Decide and count invariant subspaces of a concrete rational matrix.

The decision needs no eigenvalues, eigenvectors or Jordan basis.  A
matrix has finitely many invariant subspaces exactly when its minimal
polynomial has full degree n (one Jordan block per distinct root); two
or more blocks sharing a root already force infinitely many invariant
subspaces.  In the finite case the count depends only on the multiset
of root multiplicities of the characteristic polynomial, split into
real roots and conjugate pairs, which ``squarefree_root_counts``
extracts exactly from one signed pseudo-remainder sequence per
multiplicity level: the Sturm chain of f, which ends in gcd(f, f'),
then that of the gcd, and so on.  A squarefree polynomial needs one.
The count by dimension, :func:`dimension_profile`, is a product of
polynomials, so it lives here beside :class:`SubspaceCount`.

:func:`realize_config` goes the other way, from a signature to one
Jordan block per root.  ``exactalg`` lays out both kinds of block, by
:func:`standard_jordan_block` and :func:`real_jordan_block`, so this
module takes from it only public names and its integer polynomial
product, and nothing from ``combinatorics``.
"""

from . import FrozenValue
from .exactalg import (
    RationalMatrix,
    RationalPolynomial,
    _mul,
    min_poly,
    real_jordan_block,
    squarefree_root_counts,
    standard_jordan_block,
)
from .spectrum import BlockConfig, count_for_config


def dimension_profile(config: BlockConfig) -> tuple[int, ...]:
    """Count invariant subspaces of ``config`` by dimension.

    Entry d of the result is the number of invariant subspaces of
    dimension d.  A real root of multiplicity k offers subspace
    dimensions 0..k, a conjugate pair of multiplicity k the even
    dimensions 0..2k; the profile is the coefficient list of the
    product of the corresponding generating polynomials and always has
    length n + 1.
    """
    profile = [1]
    for k in config.real_multiplicities:
        profile = _mul(profile, [1] * (k + 1))
    for k in config.complex_pair_multiplicities:
        profile = _mul(profile, [1 - i % 2 for i in range(2 * k + 1)])
    return tuple(profile)


class SubspaceCount(FrozenValue):
    """Result of an analysis: the signature of a finite count, or None
    for the infinite case.

    The signature is the one stored field.  ``count`` and ``profile``
    are derived from it, by :func:`count_for_config` and
    :func:`dimension_profile`, and are None when the count is infinite.
    """

    signature: BlockConfig | None
    __match_args__ = ("signature",)

    def __init__(self, signature: BlockConfig | None = None) -> None:
        if signature is not None and not isinstance(signature, BlockConfig):
            raise TypeError(f"signature must be a BlockConfig or None, not {signature!r}")
        self._store(signature)

    @property
    def count(self) -> int | None:
        """The number of invariant subspaces, None when infinite."""
        return None if self.signature is None else count_for_config(self.signature)

    @property
    def profile(self) -> tuple[int, ...] | None:
        """The number of invariant subspaces of each dimension 0..n,
        None when infinite."""
        return None if self.signature is None else dimension_profile(self.signature)

    @property
    def is_finite(self) -> bool:
        return self.signature is not None


def _signature(p: RationalPolynomial) -> BlockConfig:
    """Root-multiplicity multisets of p.

    Each squarefree factor of multiplicity m contributes one entry m per
    distinct real root and one entry m per conjugate pair (there are
    (degree - real roots) / 2 of those).
    """
    real: list[int] = []
    complex_pairs: list[int] = []
    for multiplicity, degree, real_roots in squarefree_root_counts(p):
        real.extend([multiplicity] * real_roots)
        complex_pairs.extend([multiplicity] * ((degree - real_roots) // 2))
    return BlockConfig(tuple(complex_pairs), tuple(real))


def count_invariant_subspaces(a: RationalMatrix) -> SubspaceCount:
    """Exact invariant-subspace count of a rational matrix.

    Returns ``SubspaceCount()`` for derogatory matrices; otherwise
    ``SubspaceCount(signature)``, whose count is the product of
    (multiplicity + 1) over the signature.  The minimal polynomial is
    computed once: when it has degree n it is also the characteristic
    polynomial.
    """
    minimal = min_poly(a)
    if minimal.degree != a.n:
        return SubspaceCount()
    return SubspaceCount(_signature(minimal))


def realize_config(config: BlockConfig) -> RationalMatrix:
    """A block-diagonal rational matrix realizing ``config``.

    A root of multiplicity k gets one Jordan block, of size k, or 2k
    for a conjugate pair.  Roots are assigned deterministically and
    pairwise distinct so no root ever owns two blocks: conjugate pairs
    get 0 +- bi with b = 1, 2, ..., then single eigenvalues 1, 2, ....
    Analyzing the result therefore reproduces the count of ``config``.
    """
    return RationalMatrix.block_diagonal(
        [real_jordan_block(0, b, k) for b, k in enumerate(config.complex_pair_multiplicities, 1)]
        + [standard_jordan_block(root, k) for root, k in enumerate(config.real_multiplicities, 1)]
    )
