"""Decide and count invariant subspaces of a concrete rational matrix.

The decision needs no eigenvalues, eigenvectors or Jordan basis.  A
matrix has finitely many invariant subspaces exactly when its minimal
polynomial has full degree n (one Jordan block per distinct root); two
or more blocks sharing a root already force infinitely many invariant
subspaces.  In the finite case the count depends only on the multiset
of root multiplicities of the characteristic polynomial, split into
real roots and conjugate pairs, which squarefree decomposition plus
Sturm root counting extract exactly.
"""

from dataclasses import dataclass

from .exactalg import (
    RationalMatrix,
    RationalPolynomial,
    char_poly,
    count_real_roots,
    min_poly,
    squarefree_decompose,
)
from .spectrum import BlockConfig, count_for_config, dimension_profile


@dataclass(frozen=True)
class JordanSignature:
    """Root-multiplicity multisets of a characteristic polynomial.

    One entry per distinct real root and one per distinct conjugate
    pair, each holding the root's multiplicity.  Root values are
    deliberately not stored: for a matrix with full-degree minimal
    polynomial the multiplicities alone determine the block structure,
    hence the invariant-subspace count.  Entries are kept sorted
    descending.
    """

    real_multiplicities: tuple[int, ...]
    complex_pair_multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "real_multiplicities",
            tuple(sorted(self.real_multiplicities, reverse=True)),
        )
        object.__setattr__(
            self,
            "complex_pair_multiplicities",
            tuple(sorted(self.complex_pair_multiplicities, reverse=True)),
        )
        if any(m < 1 for m in self.real_multiplicities) or any(
            m < 1 for m in self.complex_pair_multiplicities
        ):
            raise ValueError("multiplicities must be positive")

    @property
    def n(self) -> int:
        """Degree of the underlying characteristic polynomial."""
        return sum(self.real_multiplicities) + 2 * sum(
            self.complex_pair_multiplicities
        )

    def block_config(self) -> BlockConfig:
        """The block configuration induced when each root has one block."""
        return BlockConfig(
            complex_blocks=self.complex_pair_multiplicities,
            real_blocks=self.real_multiplicities,
        )


@dataclass(frozen=True)
class SubspaceCount:
    """Result of an analysis: either infinite, or an exact count with
    the signature and dimension profile that produced it.

    ``count`` is None for the infinite case.
    """

    count: int | None
    signature: JordanSignature | None = None
    profile: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.count is None:
            if self.signature is not None or self.profile is not None:
                raise ValueError("infinite counts carry no signature or profile")
            return
        if self.signature is None or self.profile is None:
            raise ValueError("finite counts carry a signature and a profile")
        expected = count_for_config(self.signature.block_config())
        if self.count != expected:
            raise ValueError(
                f"count {self.count} does not match signature product {expected}"
            )
        if sum(self.profile) != self.count:
            raise ValueError("profile does not sum to the count")

    @property
    def is_finite(self) -> bool:
        return self.count is not None

    @classmethod
    def infinite(cls) -> "SubspaceCount":
        return cls(count=None)

    @classmethod
    def finite(
        cls,
        count: int,
        signature: JordanSignature,
        profile: tuple[int, ...],
    ) -> "SubspaceCount":
        return cls(count=count, signature=signature, profile=profile)


def _signature(p: RationalPolynomial) -> JordanSignature:
    """Root-multiplicity multisets of p.

    Each squarefree factor g of multiplicity m contributes one entry m
    per distinct real root of g and one entry m per conjugate pair
    (there are (deg g - real roots) / 2 of those).
    """
    real: list[int] = []
    complex_pairs: list[int] = []
    for g, multiplicity in squarefree_decompose(p).factors:
        real_roots = count_real_roots(g)
        real.extend([multiplicity] * real_roots)
        complex_pairs.extend([multiplicity] * ((g.degree - real_roots) // 2))
    return JordanSignature(tuple(real), tuple(complex_pairs))


def jordan_signature(a: RationalMatrix) -> JordanSignature:
    """Extract root-multiplicity multisets from the characteristic
    polynomial of ``a``.

    The result describes the Jordan block structure only when ``a`` has
    full-degree minimal polynomial; it is well defined regardless.
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
    count is the product of (multiplicity + 1) over the signature, with
    the per-dimension profile attached.  The minimal polynomial is
    computed once: when it has degree n it is also the characteristic
    polynomial.
    """
    minimal = min_poly(a)
    if minimal.degree != a.n:
        return SubspaceCount.infinite()
    signature = _signature(minimal)
    config = signature.block_config()
    count = count_for_config(config)
    profile = dimension_profile(config)
    return SubspaceCount.finite(count, signature, profile)


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
    for i, k in enumerate(config.complex_blocks):
        blocks.append(real_jordan_block(0, i + 1, k))
    for i, k in enumerate(config.real_blocks):
        blocks.append(standard_jordan_block(i + 1, k))
    return RationalMatrix.block_diagonal(blocks)
