"""Pauli-string operators acting on states of spin-1/2 registers.

Conventions
-----------
Site 0 is the least significant bit of the computational-basis index, so the
basis state |b_{N-1} ... b_1 b_0> has index sum_j b_j 2^j and Z_j |b> =
(-1)^{b_j} |b>.  All operators are weighted sums of Pauli strings with real
coefficients, hence Hermitian by construction.  A state is a complex
amplitude array of length 2**N, and a (2**N, K) array is a block of K
states, one per column.  Operators are immutable after construction; every
function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

AXES = ("X", "Y", "Z")

#: terms with |coefficient| below this are dropped at construction
COEFF_PRUNE_TOL = 1e-14

#: dense matrices (and dense eigendecompositions) are refused above 2**12
DENSE_SITE_CAP = 12


class DimensionCapError(RuntimeError):
    """Dense-path request exceeds the configured qubit cap."""


class HermiticityError(RuntimeError):
    """A quantity that must be real came out with a large imaginary part."""


@dataclass(frozen=True)
class PauliTerm:
    """A single weighted Pauli string, e.g. 0.25 * X_0 X_1.

    ``factors`` maps site index to axis and is stored as a site-sorted tuple
    of (site, axis) pairs so terms are hashable and canonically ordered.
    An empty factor tuple is the identity string.
    """

    coefficient: float
    factors: tuple[tuple[int, str], ...]

    def __init__(self, coefficient: float, factors: Mapping[int, str] | Iterable[tuple[int, str]]):
        items = sorted(dict(factors).items()) if isinstance(factors, Mapping) else sorted(factors)
        seen = set()
        for site, axis in items:
            if site < 0 or site != int(site):
                raise ValueError(f"invalid site index {site!r}")
            if site in seen:
                raise ValueError(f"duplicate site {site} in Pauli term")
            if axis not in AXES:
                raise ValueError(f"invalid axis {axis!r}; expected one of {AXES}")
            seen.add(site)
        coefficient = float(coefficient)
        if not np.isfinite(coefficient):
            raise ValueError("coefficient must be finite")
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "factors", tuple((int(s), a) for s, a in items))

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.factors)

    def masks(self) -> tuple[int, int, int]:
        """Bit masks (flip, phase, y_count) encoding the string's action.

        flip has a 1 at X and Y sites, phase at Y and Z sites; applying the
        string to |i> gives (i)^{y_count} * (-1)^{popcount(i & phase)} |i ^ flip>.
        """
        flip = phase = y_count = 0
        for site, axis in self.factors:
            bit = 1 << site
            if axis in ("X", "Y"):
                flip |= bit
            if axis in ("Y", "Z"):
                phase |= bit
            if axis == "Y":
                y_count += 1
        return flip, phase, y_count


@dataclass(frozen=True)
class OperatorSum:
    """Hermitian operator given as a real-weighted sum of Pauli strings.

    Duplicate strings are merged and terms with |coefficient| < 1e-14 pruned,
    so equal operators compare equal and can serve as cache keys.
    """

    terms: tuple[PauliTerm, ...]
    n_sites: int

    def __init__(self, terms: Iterable[PauliTerm], n_sites: int):
        n_sites = int(n_sites)
        if n_sites < 1:
            raise ValueError("n_sites must be positive")
        merged: dict[tuple[tuple[int, str], ...], float] = {}
        for term in terms:
            if term.sites and max(term.sites) >= n_sites:
                raise ValueError(f"term acts on site {max(term.sites)} outside register of {n_sites}")
            merged[term.factors] = merged.get(term.factors, 0.0) + term.coefficient
        kept = tuple(
            PauliTerm(c, f) for f, c in sorted(merged.items()) if abs(c) > COEFF_PRUNE_TOL
        )
        object.__setattr__(self, "terms", kept)
        object.__setattr__(self, "n_sites", n_sites)

    @property
    def support(self) -> tuple[int, ...]:
        """Sites on which at least one term acts nontrivially, ascending."""
        sites: set[int] = set()
        for term in self.terms:
            sites.update(term.sites)
        return tuple(sorted(sites))

    @property
    def coefficient_l1(self) -> float:
        return float(sum(abs(t.coefficient) for t in self.terms))

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        if other.n_sites != self.n_sites:
            raise ValueError("site-count mismatch")
        return OperatorSum(self.terms + other.terms, self.n_sites)

    def __mul__(self, scalar: float) -> "OperatorSum":
        return OperatorSum(
            tuple(PauliTerm(scalar * t.coefficient, t.factors) for t in self.terms), self.n_sites
        )

    __rmul__ = __mul__


@lru_cache(maxsize=256)
def _xor_index(n_sites: int, flip: int) -> np.ndarray:
    idx = np.arange(2**n_sites, dtype=np.int64) ^ flip
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=256)
def _phase_signs(n_sites: int, phase_mask: int) -> np.ndarray:
    counts = np.bitwise_count(np.arange(2**n_sites, dtype=np.uint64) & np.uint64(phase_mask))
    signs = np.where(counts & 1, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


def along_rows(values: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Shape one value per basis index to broadcast over a state or a block."""
    return values if amps.ndim == 1 else values[:, None]


def apply_term(term: PauliTerm, amps: np.ndarray, n_sites: int, out: np.ndarray) -> None:
    """Accumulate term|psi> into ``out`` without materializing any matrix."""
    flip, phase, y_count = term.masks()
    scale = term.coefficient * (1j) ** y_count
    signed = amps if phase == 0 else amps * along_rows(_phase_signs(n_sites, phase), amps)
    if flip == 0:
        out += scale * signed
    else:
        out += scale * signed[_xor_index(n_sites, flip)]


def apply_operator(op: OperatorSum, state: np.ndarray) -> np.ndarray:
    """Return op|psi> as a (generally unnormalized) complex amplitude array.

    A (dim, K) block of states is mapped column by column.
    """
    amps = np.asarray(state, dtype=np.complex128)
    if 2**op.n_sites != amps.shape[0]:
        raise ValueError("operator and state act on different registers")
    out = np.zeros_like(amps)
    for term in op.terms:
        apply_term(term, amps, op.n_sites, out)
    return out


def expectation(op: OperatorSum, state: np.ndarray) -> float | np.ndarray:
    """<psi|op|psi> for a Hermitian operator; the imaginary part must vanish.

    A (dim, K) block of states gives one value per column, each checked.
    """
    amps = np.asarray(state, dtype=np.complex128)
    applied = apply_operator(op, amps)
    # one contiguous row per state, so a column sums exactly as a single state
    bras, kets = np.ascontiguousarray(amps.T), np.ascontiguousarray(applied.T)
    raw = (bras.conj() * kets).sum(axis=-1)
    tol = 1e-10 * max(1.0, op.coefficient_l1)
    worst = float(np.max(np.abs(raw.imag), initial=0.0))
    if worst > tol:
        raise HermiticityError(f"imaginary part {worst:.3e} exceeds tolerance {tol:.3e}")
    return float(raw.real) if amps.ndim == 1 else raw.real


def flip_diagonals(op: OperatorSum) -> dict[int, np.ndarray]:
    """The operator as op|psi> = sum_f D_f * psi[x ^ f]: one diagonal D_f per
    distinct flip mask f, keyed in term order.  A term c P with masks
    (flip, phase, y_count) adds c i^y_count (-1)^popcount((x ^ flip) & phase)
    to D_flip[x], the terms summed in term order.

    ``to_dense``, the ``dense_block`` stacks of exact evolution and the
    Lanczos matvec of ``models.ground_state`` are all read from this form, so
    their entries agree bitwise.
    """
    dim = 2**op.n_sites
    diagonals: dict[int, np.ndarray] = {}
    for term in op.terms:
        flip, phase, y_count = term.masks()
        scale = term.coefficient * (1j) ** y_count
        signs = _phase_signs(op.n_sites, phase)
        if flip not in diagonals:
            diagonals[flip] = np.zeros(dim, dtype=np.complex128)
        diagonals[flip] += scale * (signs if flip == 0 else signs[_xor_index(op.n_sites, flip)])
    return diagonals


def dense_block(diagonals: Mapping[int, np.ndarray], indices: np.ndarray) -> np.ndarray:
    """The matrix entries (op[i, j]) for i, j in ``indices``, read from the
    operator's ``flip_diagonals``; every row and column keeps its place in
    ``indices``.  A (C, m) index array (disjoint rows) gives the C blocks as
    one (C, m, m) stack."""
    indices = np.asarray(indices, dtype=np.int64)
    rows = indices.reshape(-1, indices.shape[-1])
    count, m = rows.shape
    block = np.zeros((count, m, m), dtype=np.complex128)
    if diagonals:
        # slot[i] = b * m + k for i = rows[b, k]; -1 outside every block
        slot = np.full(next(iter(diagonals.values())).size, -1, dtype=np.int64)
        slot[rows] = np.arange(count * m).reshape(count, m)
        owner = np.arange(count)[:, None]
        for flip, diagonal in diagonals.items():
            target = slot[rows ^ flip]
            kept = target // m == owner
            b, k = np.nonzero(kept)
            block[b, k, target[kept] % m] = diagonal[rows[kept]]
    return block.reshape(indices.shape + (m,))


def to_dense(op: OperatorSum) -> np.ndarray:
    """Dense 2**N x 2**N matrix of the operator; refused above the cap."""
    if op.n_sites > DENSE_SITE_CAP:
        raise DimensionCapError(f"dense matrix for {op.n_sites} sites exceeds cap {DENSE_SITE_CAP}")
    return dense_block(flip_diagonals(op), np.arange(2**op.n_sites))


def _project_to_support(op: OperatorSum) -> OperatorSum:
    """Reindex the operator onto its support sites 0..r-1."""
    support = op.support
    relabel = {site: k for k, site in enumerate(support)}
    terms = tuple(
        PauliTerm(t.coefficient, tuple((relabel[s], a) for s, a in t.factors)) for t in op.terms
    )
    return OperatorSum(terms, max(1, len(support)))


def eigendecompose(op: OperatorSum) -> tuple[np.ndarray, np.ndarray]:
    """Dense spectral decomposition (eigenvalues ascending, eigenvectors as
    columns); refused above the cap, as ``to_dense`` is."""
    return np.linalg.eigh(to_dense(op))


def partial_trace(state: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix over a contiguous block of kept sites."""
    amps = np.asarray(state, dtype=np.complex128)
    n = amps.size.bit_length() - 1
    if amps.shape != (2**n,):
        raise ValueError("a state holds 2**N amplitudes")
    keep = sorted(int(k) for k in keep)
    if not keep:
        raise ValueError("keep block must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep block {keep} outside register of {n} sites")
    if keep != list(range(keep[0], keep[-1] + 1)):
        raise ValueError("only contiguous site blocks are supported")
    lo, size = keep[0], len(keep)
    # axes split as (high bits, kept block, low bits); site 0 is the LSB
    tensor = amps.reshape(2 ** (n - lo - size), 2**size, 2**lo)
    return np.einsum("hml,hnl->mn", tensor, tensor.conj())


def commutator_norm(op_a: OperatorSum, op_b: OperatorSum) -> float:
    """Max |coefficient| of [A, B] computed symbolically (exact, matrix-free).

    Only anticommuting string pairs contribute, each 2 a b P_a P_b.  On the
    ``PauliTerm.masks`` form, P_a P_b is the string of flip fa ^ fb and phase
    pa ^ pb times i^(ya + yb - popcount(f & p)) (-1)^popcount(pa & fb).
    """
    acc: dict[tuple[int, int], complex] = {}
    for ta in op_a.terms:
        fa, pa, ya = ta.masks()
        for tb in op_b.terms:
            if strings_commute(ta, tb):
                continue
            fb, pb, yb = tb.masks()
            f, p = fa ^ fb, pa ^ pb
            phase = (1, 1j, -1, -1j)[(ya + yb - (f & p).bit_count()) % 4]
            sign = -1 if (pa & fb).bit_count() % 2 else 1
            w = 2.0 * ta.coefficient * tb.coefficient * sign
            acc[f, p] = acc.get((f, p), 0.0) + w * phase
    return float(max(map(abs, acc.values()), default=0.0))


def strings_commute(a: PauliTerm, b: PauliTerm) -> bool:
    """Two Pauli strings commute iff they differ in axis on an even number of
    shared sites: popcount((flip_a & phase_b) ^ (phase_a & flip_b)) is even."""
    (flip_a, phase_a, _), (flip_b, phase_b, _) = a.masks(), b.masks()
    return ((flip_a & phase_b) ^ (phase_a & flip_b)).bit_count() % 2 == 0


def terms_commute_pairwise(op: OperatorSum) -> bool:
    """True when every pair of Pauli strings in the sum commutes."""
    terms = op.terms
    return all(strings_commute(a, b) for i, a in enumerate(terms) for b in terms[i + 1 :])
