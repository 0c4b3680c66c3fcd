"""Seeded benchmark inputs whose answers are known from their construction.

Nothing here imports ``invsub``: an expected answer must never come from
the code it is meant to check.  Matrices are built as P^-1 R P, where R
is an integer real Jordan form with chosen blocks and eigenvalues and P
is a unimodular integer matrix (a product of unit triangular factors),
so P^-1 and the conjugated matrix are integer too.
"""

from dataclasses import dataclass
from itertools import product
from math import prod

# A block is (kind, part, eigenvalue): kind "real" is a part x part Jordan
# block for the integer eigenvalue; kind "pair" is the 2*part x 2*part real
# Jordan block for a +- bi, with eigenvalue = (a, b) and b > 0.


@dataclass(frozen=True)
class Expected:
    """The analysis a correct program reports; ``count`` None means infinite."""

    count: int | None
    real_multiplicities: tuple[int, ...] = ()
    complex_pair_multiplicities: tuple[int, ...] = ()
    profile: tuple[int, ...] = ()


def dimension(blocks) -> int:
    return sum(k if kind == "real" else 2 * k for kind, k, _ in blocks)


def expected_for(blocks) -> Expected:
    """Answer for a block configuration in which every block owns its root.

    Each real block of part k offers invariant subspaces of dimensions
    0..k, each pair block of part k the even dimensions 0..2k; the profile
    is the product of those generating polynomials.
    """
    roots = [eigenvalue for _, _, eigenvalue in blocks]
    if len(set(roots)) < len(roots):
        return Expected(None)
    real = tuple(sorted((k for kind, k, _ in blocks if kind == "real"), reverse=True))
    pairs = tuple(sorted((k for kind, k, _ in blocks if kind == "pair"), reverse=True))
    profile = [1]
    for kind, k, _ in blocks:
        step = 1 if kind == "real" else 2
        grown = [0] * (len(profile) + step * k)
        for i, c in enumerate(profile):
            for d in range(0, step * k + 1, step):
                grown[i + d] += c
        profile = grown
    count = prod(k + 1 for _, k, _ in blocks)
    return Expected(count, real, pairs, tuple(profile))


def brute_force_profile(blocks) -> tuple[int, ...]:
    """Profile by listing every invariant subspace as one choice per block.

    An independent route to :func:`expected_for`, used by the self-tests.
    """
    choices = [range(0, k + 1) if kind == "real" else range(0, 2 * k + 1, 2) for kind, k, _ in blocks]
    profile = [0] * (dimension(blocks) + 1)
    for dims in product(*choices):
        profile[sum(dims)] += 1
    return tuple(profile)


def jordan_form(blocks) -> list[list[int]]:
    n = dimension(blocks)
    r = [[0] * n for _ in range(n)]
    at = 0
    for kind, k, eigenvalue in blocks:
        if kind == "real":
            for i in range(k):
                r[at + i][at + i] = eigenvalue
                if i + 1 < k:
                    r[at + i][at + i + 1] = 1
            at += k
        else:
            a, b = eigenvalue
            for cell in range(k):
                i = at + 2 * cell
                r[i][i], r[i][i + 1], r[i + 1][i], r[i + 1][i + 1] = a, -b, b, a
                if cell + 1 < k:
                    r[i][i + 2] = r[i + 1][i + 3] = 1
            at += 2 * k
    return r


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _unit_triangular(rng, n, lower):
    m = _identity(n)
    for i in range(n):
        for j in range(i) if lower else range(i + 1, n):
            if rng.random() < 0.3:
                m[i][j] = rng.choice((-1, 1))
    return m


def _inverse_unit_triangular(m, lower):
    # forward (or back) substitution, one column of the identity at a time
    n = len(m)
    inv = _identity(n)
    rows = range(n) if lower else range(n - 1, -1, -1)
    for col in range(n):
        x = [0] * n
        for i in rows:
            others = range(i) if lower else range(i + 1, n)
            x[i] = int(i == col) - sum(m[i][j] * x[j] for j in others)
        for i in range(n):
            inv[i][col] = x[i]
    return inv


def conjugate(r, rng) -> list[list[int]]:
    """P^-1 R P for a seeded unimodular P, verified invertible."""
    n = len(r)
    lower = _unit_triangular(rng, n, True)
    upper = _unit_triangular(rng, n, False)
    p = _matmul(lower, upper)
    p_inv = _matmul(_inverse_unit_triangular(upper, False), _inverse_unit_triangular(lower, True))
    if _matmul(p, p_inv) != _identity(n):
        raise AssertionError("conjugating matrix is not invertible")
    return _matmul(_matmul(p_inv, r), p)


def _distinct_roots(rng, real_count, pair_count):
    # 25 real roots: enough for the all-simple n = 20 input of the scaling probe
    reals = rng.sample(range(-12, 13), real_count)
    pairs = rng.sample([(a, b) for a in range(-4, 5) for b in range(1, 5)], pair_count)
    return reals, pairs


def _random_parts(rng, total, max_part):
    parts = []
    while total:
        part = rng.randint(1, min(max_part, total))
        parts.append(part)
        total -= part
    return parts


def finite_blocks(rng, n, simple) -> list:
    """Blocks with distinct roots: all simple, or with some Jordan block of part >= 2."""
    if n < 2 and not simple:
        raise ValueError(f"no Jordan block of part >= 2 fits in dimension {n}")
    while True:
        pair_count = rng.randint(0, n // 4)
        if simple:
            real_parts, pair_parts = [1] * (n - 2 * pair_count), [1] * pair_count
        else:
            real_parts = _random_parts(rng, n - 2 * pair_count, 3)
            pair_parts = _random_parts(rng, pair_count, 2)
        if simple or max(real_parts + pair_parts) >= 2:
            break
    reals, pairs = _distinct_roots(rng, len(real_parts), len(pair_parts))
    return [("real", k, e) for k, e in zip(real_parts, reals)] + [
        ("pair", k, e) for k, e in zip(pair_parts, pairs)
    ]


def derogatory_blocks(rng, n, simple) -> list:
    """Distinct-root blocks on n - 1 dimensions plus a 1x1 block that
    repeats one of their real roots, so that root owns two Jordan blocks."""
    blocks = finite_blocks(rng, n - 1, simple)
    _, _, root = rng.choice([b for b in blocks if b[0] == "real"])
    return blocks + [("real", 1, root)]


def to_text(matrix) -> str:
    return "".join(" ".join(str(x) for x in row) + "\n" for row in matrix)


# ---- spectrum reference -------------------------------------------------


def spectrum_reference(n_max) -> list[frozenset]:
    """M_0..M_{n_max} by the set recursion over one removed part.

    M_0 = {1}; M_k is the union over j of (j + 1) M_{k-j} (a real block of
    part j) and (j + 1) M_{k-2j} (a conjugate-pair block of part j).
    """
    sets = [frozenset({1})]
    for k in range(1, n_max + 1):
        found = set()
        for j in range(1, k + 1):
            found.update((j + 1) * v for v in sets[k - j])
            if 2 * j <= k:
                found.update((j + 1) * v for v in sets[k - 2 * j])
        sets.append(frozenset(found))
    return sets


def partitions(n, cap=None):
    """Partitions of n as weakly decreasing tuples."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(cap, n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def table_reference(n) -> dict[tuple[int, int], list[tuple[tuple[int, ...], int]]]:
    """Rows of ``table n`` per group (r, s), sorted: (display composition, count)."""
    groups = {}
    for r in range(n // 2 + 1):
        s = n - 2 * r
        rows = []
        for theta1 in partitions(r):
            for theta2 in partitions(s):
                shown = (theta1 or (0,)) + (theta2 or (0,))
                rows.append((shown, prod(k + 1 for k in theta1 + theta2)))
        groups[(r, s)] = sorted(rows)
    return groups
