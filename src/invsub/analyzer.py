"""Decide and count invariant subspaces of a concrete rational matrix.

The decision needs no eigenvalues, eigenvectors or Jordan basis.  A
matrix has finitely many invariant subspaces exactly when its minimal
polynomial has full degree n (one Jordan block per distinct root); two
or more blocks sharing a root already force infinitely many invariant
subspaces.  In the finite case the count depends only on the multiset
of root multiplicities of the characteristic polynomial, split into
real roots and conjugate pairs, which one signed pseudo-remainder
sequence extracts exactly: a Sturm chain when the polynomial is
squarefree, and otherwise the gcd that starts Yun's squarefree
decomposition.
"""

from dataclasses import dataclass

from .exactalg import (
    RationalMatrix,
    RationalPolynomial,
    char_poly,
    min_poly,
    squarefree_root_counts,
)
from .spectrum import BlockConfig, count_for_config, dimension_profile


@dataclass(frozen=True)
class SubspaceCount:
    """Result of an analysis: either infinite, or the signature and
    dimension profile of a finite count.

    Both fields are None for the infinite case.  The count itself is
    the profile's sum, and :func:`count_for_config` of the signature
    cross-checks it once, when the result is built.
    """

    signature: BlockConfig | None = None
    profile: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (self.signature is None) != (self.profile is None):
            raise ValueError("finite counts carry a signature and a profile")
        if self.is_finite and self.count != count_for_config(self.signature):
            raise ValueError("profile does not sum to the signature product")

    @property
    def count(self) -> int | None:
        """The number of invariant subspaces, None when infinite."""
        return None if self.profile is None else sum(self.profile)

    @property
    def is_finite(self) -> bool:
        return self.profile is not None

    @classmethod
    def infinite(cls) -> "SubspaceCount":
        return cls()

    @classmethod
    def finite(
        cls, signature: BlockConfig, profile: tuple[int, ...]
    ) -> "SubspaceCount":
        return cls(signature, profile)


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


def jordan_signature(a: RationalMatrix) -> BlockConfig:
    """Root multiplicities of the characteristic polynomial of ``a``, as
    a :class:`BlockConfig`.

    Root values are not kept.  The result describes the Jordan block
    structure only when ``a`` is nonderogatory (full-degree minimal
    polynomial, one block per root); it is well defined regardless.
    """
    return _signature(char_poly(a))


def is_count_finite(a: RationalMatrix) -> bool:
    """True iff ``a`` has finitely many invariant subspaces.

    Equivalent to the minimal polynomial having degree n: the
    characteristic and minimal polynomials then coincide and every
    distinct root owns exactly one Jordan block.  Any repeated block
    would drop the minimal degree below n and give infinitely many
    invariant subspaces.
    """
    return min_poly(a).degree == a.n


def count_invariant_subspaces(a: RationalMatrix) -> SubspaceCount:
    """Exact invariant-subspace count of a rational matrix.

    Returns the infinite marker for derogatory matrices; otherwise the
    signature and its per-dimension profile, whose sum is the count:
    the product of (multiplicity + 1) over the signature.  The minimal
    polynomial is computed once: when it has degree n it is also the
    characteristic polynomial.
    """
    minimal = min_poly(a)
    if minimal.degree != a.n:
        return SubspaceCount.infinite()
    signature = _signature(minimal)
    return SubspaceCount.finite(signature, dimension_profile(signature))


def standard_jordan_block(eigenvalue, size: int) -> RationalMatrix:
    """size x size Jordan block: ``eigenvalue`` on the diagonal, 1 on the
    superdiagonal."""
    if size < 1:
        raise ValueError("block size must be positive")
    return RationalMatrix(
        tuple(
            eigenvalue if i == j else (1 if j == i + 1 else 0)
            for j in range(size)
        )
        for i in range(size)
    )


def real_jordan_block(a, b, size: int) -> RationalMatrix:
    """2*size x 2*size real Jordan block for the conjugate pair a +- bi.

    Built from 2x2 rotation-scaling cells C = [[a, -b], [b, a]] on the
    diagonal with 2x2 identity cells on the superdiagonal.
    """
    if size < 1:
        raise ValueError("block size must be positive")
    if b <= 0:
        raise ValueError("imaginary part must be positive")
    n = 2 * size
    rows = [[0] * n for _ in range(n)]
    for cell in range(size):
        i = 2 * cell
        rows[i][i] = a
        rows[i][i + 1] = -b
        rows[i + 1][i] = b
        rows[i + 1][i + 1] = a
        if cell + 1 < size:
            rows[i][i + 2] = 1
            rows[i + 1][i + 3] = 1
    return RationalMatrix(rows)


def realize_config(config: BlockConfig) -> RationalMatrix:
    """A block-diagonal rational matrix realizing ``config``.

    Roots are assigned deterministically and pairwise distinct so no
    root ever owns two blocks: conjugate pairs get 0 +- bi with
    b = 1, 2, ..., then single eigenvalues 1, 2, ....  Analyzing the
    result therefore reproduces exactly the count of ``config``.
    """
    blocks = []
    for i, k in enumerate(config.complex_pair_multiplicities):
        blocks.append(real_jordan_block(0, i + 1, k))
    for i, k in enumerate(config.real_multiplicities):
        blocks.append(standard_jordan_block(i + 1, k))
    return RationalMatrix.block_diagonal(blocks)
