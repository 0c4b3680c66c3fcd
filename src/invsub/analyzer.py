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
"""

from ._value import FrozenValue
from .combinatorics import _check_dimension
from .exactalg import (
    RationalMatrix,
    RationalPolynomial,
    min_poly,
    squarefree_root_counts,
)
from .spectrum import BlockConfig, count_for_config, dimension_profile


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
        object.__setattr__(self, "signature", signature)

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


def standard_jordan_block(eigenvalue, size: int) -> RationalMatrix:
    """size x size Jordan block: ``eigenvalue`` on the diagonal, 1 on the
    superdiagonal."""
    _check_dimension(size, 1)
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
    _check_dimension(size, 1)
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
