"""Exact Gibbs oracles and replica functionals over small hypercubes.

The oracle holds the Gibbs weights of all 2**N configurations, for one
disorder draw or a stack of them, and answers every thermal query from
Walsh-Hadamard transforms, never from a matrix of configurations.
``GibbsOracle.build`` makes it from a model: the energy vector is one
transform of the Hamiltonian's Walsh coefficients, and a stack of R draws
makes one oracle.  Those coefficients vanish on masks of more than p
sites, p the Hamiltonian's degree, so the energy transforms pass p to
``fwht``, which then skips the low butterfly passes on the coefficient
blocks that are all zeros, with the same output bytes; weight spectra and
leaf kernels have no such blocks and keep the full passes.  Any other
log-weight vector, such as the cavity check's joint and tanh-reweighted
measures, goes straight to ``GibbsOracle(n_sites, log_weights)``.  One
transform of the weights, the spectrum w^, holds every moment
<sigma_A> = (-1)**|A| w^[A]; a pair-moment
matrix is a gather from it at A ^ {u} ^ {v}; and overlap powers, which are
XOR kernels, are products with the kernel's transform.  Masked Parseval, the
spectrum gathered at S ^ A and S ^ B against that transform, gives
<R_12**p sigma^1_A sigma^2_B>, so ``overlap_product_expectation`` answers
<R**p F> for every test function F without expanding R**p.  Replica
functionals are finite linear combinations of products of spin monomials
evaluated on independent replicas drawn from one Gibbs measure; since
sigma_i**2 = 1, each replica's monomial is reduced at construction to a set
of sites with odd multiplicity, held as a bitmask.

The naive route, a brute-force sum over all replica tuples of explicit
configurations, never touches the spectrum and is kept as the independent
cross-check of the factorized, Parseval, star and pair-matrix routes.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

import numpy as np

from .model import (
    CouplingAssignment,
    EXACT_ENUMERATION_CAP,
    ModelSpec,
    ModelValidationError,
    ResourceCapError,
    DilutedPairAssignment,
    energy_coefficients,
    is_count,
    spin_matrix,
    tuple_masks,
)

NAIVE_MAX_BITS = 16  # brute-force replica sums enumerate 2**(n*N) tuples


@lru_cache(maxsize=8)
def _popcounts(n_sites: int) -> np.ndarray:
    codes = np.arange(1 << n_sites, dtype=np.uint32)
    out = np.zeros(1 << n_sites, dtype=np.uint8)  # N <= 20 sites fit a byte
    for b in range(n_sites):
        out += (codes >> b) & 1
    return out


@lru_cache(maxsize=8)
def _kernel_spectrum(n_sites: int, power: int) -> np.ndarray:
    """Transform of the XOR kernel c -> R(c, 0)**power (8 MB an entry at N=20)."""
    overlaps = (n_sites - 2.0 * _popcounts(n_sites)) / n_sites
    out = fwht(overlaps ** power, copy=False)
    out.flags.writeable = False
    return out


PRUNE_LIVE_FRACTION = 0.5
"""``fwht`` prunes its low passes when fewer than this share of the blocks
are live.  Measured per transform on stacks of 2**13 entries: 5 of 16 live
blocks at N = 8 (degree 1) take 0.79 of the full passes' time, 22 of 64 at
N = 12 take 0.74; 16 of 32 at N = 7 and N = 9 take 1.18 and 0.97."""


@lru_cache(maxsize=32)
def _live_blocks(n_sites: int, degree: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The live and the dead blocks of a (2**(N - lo), 2**lo) row,
    lo = 2 * (N // 4): a block is live when its high bits hold at most
    ``degree`` sites.  None when too many blocks are live, or when lo < 4:
    one low pass saves less than the gather and scatter cost (degree 1 at
    N = 6 took 0.21 ms pruned against 0.19 ms full on a 2**13-entry stack)."""
    lo = 2 * (n_sites // 4)
    live = _popcounts(n_sites - lo) <= degree
    if lo < 4 or np.count_nonzero(live) >= PRUNE_LIVE_FRACTION * live.size:
        return None
    return np.flatnonzero(live), np.flatnonzero(~live)


def _radix4_pass(a: np.ndarray, h: int) -> None:
    """Butterfly stages h and 2h, in place, on every block of 4h entries of
    the C-contiguous array ``a``."""
    x0, x1, x2, x3 = a.reshape(-1, 4, h).swapaxes(0, 1)
    s01, d01 = x0 + x1, x0 - x1
    s23, d23 = x2 + x3, x2 - x3
    np.add(s01, s23, out=x0)
    np.subtract(s01, s23, out=x2)
    np.add(d01, d23, out=x1)
    np.subtract(d01, d23, out=x3)


def fwht(vec: np.ndarray, degree: int | None = None, *, copy: bool = True) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform of the last axis
    (involution up to 1/len).

    Returns a new C-contiguous float64 array; ``vec`` is not modified.  With
    ``copy=False`` a C-contiguous float64 ``vec`` is transformed in place and
    returned, for a caller that drops its input (any other input is
    converted first); the output bytes are the same either way.  The
    butterfly stages run at strides 1, 2, 4, ... as in the textbook radix-2
    loop, but each pass does two of them: stage h forms x0 +- x1 and
    x2 +- x3 in the four quarters of a (-1, 4, h) view, and stage 2h
    combines those sums and differences and writes them back.  Every element
    gets the same additions of the same operands in the same order as in the
    radix-2 loop, so the output is bit-identical to it, in half the
    full-array passes.  When log2(len) is odd, one radix-2 stage runs last.

    A stack of shape (..., 2**N) is transformed row by row in the same
    passes: the views cut the flattened array into blocks of 4h or 2h
    entries, which divide 2**N, so no block crosses a row and every row is
    bit-identical to its own transform.

    ``degree`` promises that every entry on a mask of more than ``degree``
    sites is zero, as for the Walsh coefficients of a polynomial of that
    degree.  A row is then a (2**(N - lo), 2**lo) block matrix with
    lo = 2 * (N // 4), and a block whose high bits hold more than ``degree``
    sites is dead: all zeros.  The lo / 2 low passes, h = 1 ... 4**(lo/2 - 1),
    stay inside a block.  When there are at least two of them and fewer
    than PRUNE_LIVE_FRACTION of the blocks are live, those passes run on a
    gathered copy of the live blocks alone, which is scattered back, and
    the passes from h = 2**lo run on the whole array as before: 4 of 8
    passes skip 219 of 256 blocks at N = 16 and p = 2.  A skipped butterfly
    only adds zeros, so every live element gets the same additions in the
    same order.  The low passes turn a dead block
    that holds one signed zero into that zero followed by +0.0, and the
    pruned transform writes exactly that, so the output is bit-identical to
    the full passes whenever each dead block's zeros share one sign, as they
    do for every caller (``tuple_coefficients`` of odd order leaves -0.0).
    """
    a = (np.array(vec, dtype=np.float64, order="C", copy=True) if copy
         else np.asarray(vec, dtype=np.float64, order="C"))
    size = a.shape[-1]
    n_bits = size.bit_length() - 1
    h = 1
    pruned = None if degree is None or not a.size else _live_blocks(n_bits, degree)
    if pruned is not None:
        live, dead = pruned
        low = 1 << 2 * (n_bits // 4)
        blocks = a.reshape(-1, size // low, low)
        gathered = np.take(blocks, live, axis=1)  # C-contiguous, unlike blocks[:, live]
        while h < low:
            _radix4_pass(gathered, h)
            h *= 4
        blocks[:, live] = gathered
        blocks[:, dead, 1:] = 0.0  # what the low passes leave in a block of zeros
    while 4 * h <= size:
        _radix4_pass(a, h)
        h *= 4
    if 2 * h == size:
        x0, x1 = a.reshape(-1, 2, h).swapaxes(0, 1)
        even = x0 + x1
        np.subtract(x0, x1, out=x1)
        x0[...] = even
    return a


def sites_to_mask(sites) -> int:
    """Parity-reduce a site multiset to its odd-multiplicity bitmask.  A site
    that is no integer (``is_count``) or is negative raises ValueError."""
    mask = 0
    for s in sites:
        if not is_count(s) or s < 0:
            raise ValueError(f"a site must be a nonnegative integer, got {s!r}")
        mask ^= 1 << operator.index(s)
    return mask


def mask_to_sites(mask: int) -> tuple[int, ...]:
    out = []
    b = 0
    while mask:
        if mask & 1:
            out.append(b)
        mask >>= 1
        b += 1
    return tuple(out)


class ReplicaFunctional:
    """Linear combination of products of per-replica spin monomials.

    Terms map a canonical key ``((replica, mask), ...)`` (sorted by replica,
    masks nonzero) to a float coefficient.  Replica labels are 1-based.
    ``n_replicas`` tracks the formal replica count, which may exceed the
    largest label actually used.
    """

    __slots__ = ("terms", "n_replicas")

    def __init__(self, terms: dict, n_replicas: int):
        if n_replicas < 0:
            raise ValueError(f"replica count must be nonnegative, got {n_replicas}")
        for key in terms:
            for replica, mask in key:
                if replica < 1 or replica > n_replicas:
                    raise ValueError(f"replica label {replica} outside 1..{n_replicas}")
                if mask == 0:
                    raise ValueError("zero masks must be dropped from term keys")
        self.terms = terms
        self.n_replicas = n_replicas

    # -- constructors -------------------------------------------------------

    @staticmethod
    def one(n_replicas: int) -> "ReplicaFunctional":
        return ReplicaFunctional({(): 1.0}, n_replicas)

    @staticmethod
    def zero(n_replicas: int) -> "ReplicaFunctional":
        return ReplicaFunctional({}, n_replicas)

    @staticmethod
    def monomial(sites_by_replica: dict, n_replicas: int, coeff: float = 1.0) -> "ReplicaFunctional":
        """Product over replicas of site monomials; sites may repeat."""
        key = []
        for replica, sites in sites_by_replica.items():
            mask = sites if isinstance(sites, int) else sites_to_mask(sites)
            if mask:
                key.append((int(replica), mask))
        key.sort()
        return ReplicaFunctional({tuple(key): float(coeff)}, n_replicas)

    # -- algebra ------------------------------------------------------------

    @staticmethod
    def combine(pairs, n_replicas: int, start: dict | None = None) -> "ReplicaFunctional":
        """The functional summing (key, coefficient) ``pairs`` onto the terms
        ``start``, in order; a key whose sum reaches 0.0 is dropped, and is
        placed last if a later pair brings it back."""
        out = dict(start or {})
        for key, coeff in pairs:
            new = out.get(key, 0.0) + coeff
            if new == 0.0:
                out.pop(key, None)
            else:
                out[key] = new
        return ReplicaFunctional(out, n_replicas)

    @staticmethod
    def _merge_keys(a, b):
        masks = {}
        for replica, mask in itertools.chain(a, b):
            masks[replica] = masks.get(replica, 0) ^ mask
        return tuple(sorted((r, m) for r, m in masks.items() if m))

    def __add__(self, other: "ReplicaFunctional") -> "ReplicaFunctional":
        return ReplicaFunctional.combine(other.terms.items(),
                                         max(self.n_replicas, other.n_replicas), self.terms)

    def scaled(self, factor: float) -> "ReplicaFunctional":
        if factor == 0.0:
            return ReplicaFunctional.zero(self.n_replicas)
        return ReplicaFunctional({k: factor * c for k, c in self.terms.items()}, self.n_replicas)

    def __sub__(self, other: "ReplicaFunctional") -> "ReplicaFunctional":
        return self + other.scaled(-1.0)

    def __mul__(self, other: "ReplicaFunctional") -> "ReplicaFunctional":
        return ReplicaFunctional.combine(
            ((self._merge_keys(ka, kb), ca * cb)
             for ka, ca in self.terms.items() for kb, cb in other.terms.items()),
            max(self.n_replicas, other.n_replicas))

    def with_replicas(self, n_replicas: int) -> "ReplicaFunctional":
        """Same terms under a (typically larger) formal replica count."""
        return ReplicaFunctional(dict(self.terms), n_replicas)

    def relabel(self, mapping: dict, n_replicas: int) -> "ReplicaFunctional":
        """Apply a replica-label substitution; labels absent stay fixed."""
        return ReplicaFunctional.combine(
            ((self._merge_keys(((mapping.get(r, r), m) for r, m in key), ()), coeff)
             for key, coeff in self.terms.items()),
            n_replicas)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, oracle: "GibbsOracle") -> float:
        """Factorized expectation: replicas are independent, so each term is
        a product of single-replica moments (labels become irrelevant)."""
        total = 0.0
        for key, coeff in self.terms.items():
            value = coeff
            for _, mask in key:
                value *= oracle.moment(mask)
            total += value
        return total


MAX_OVERLAP_POWER = 18
"""``overlap_power`` expands R**power over at most 2**MAX_OVERLAP_POWER site tuples:
every power up to 4 at N <= 20, and power 6 at N = 8, each in about a second."""


def _tuple_sum(labels, power: int, n_sites: int, n_replicas: int) -> ReplicaFunctional:
    """N**-power times the sum over all site tuples of length ``power`` of
    the tuple's monomial put on every replica in ``labels``."""
    labels = sorted(labels)
    scale = float(n_sites) ** (-power)
    masks = tuple_masks(n_sites, power).tolist()
    return ReplicaFunctional.combine(
        ((tuple((l, mask) for l in labels) if mask else (), scale) for mask in masks),
        n_replicas)


def overlap_power(l1: int, l2: int, power: int, n_sites: int,
                  n_replicas: int | None = None) -> ReplicaFunctional:
    """R_{l1,l2}**power expanded over all site tuples, repeats included.

    More than 2**MAX_OVERLAP_POWER tuples, N**power, raise ResourceCapError;
    so does a power above MAX_OVERLAP_POWER at N = 1, a tuple that long."""
    if l1 == l2:
        raise ValueError("overlap needs two distinct replicas")
    power = operator.index(power)  # a numpy power would wrap in the cap's arithmetic
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    if power > MAX_OVERLAP_POWER or n_sites ** power > 1 << MAX_OVERLAP_POWER:
        raise ResourceCapError(f"R**{power} at N={n_sites} expands over N**{power} site "
                               f"tuples (cap 2**{MAX_OVERLAP_POWER})")
    return _tuple_sum((l1, l2), power, n_sites,
                      n_replicas if n_replicas is not None else max(l1, l2))


def multi_overlap(labels, n_sites: int, n_replicas: int | None = None) -> ReplicaFunctional:
    """(R_{l1..lm})**2 for m distinct replica labels."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("multi-overlap labels must be distinct")
    n_rep = n_replicas if n_replicas is not None else max(labels, default=0)
    if not labels:
        return ReplicaFunctional.one(n_rep)
    return _tuple_sum(labels, 2, n_sites, n_rep)


def replica_difference(fn: ReplicaFunctional, label: int) -> ReplicaFunctional:
    """F(sigma^1..sigma^n) minus F evaluated with replica ``label`` dropped
    and the remaining arguments shifted up to use replica n+1."""
    n = fn.n_replicas
    if not 1 <= label <= n:
        raise ValueError(f"replica label {label} outside 1..{n}")
    mapping = {j: j + 1 for j in range(label, n + 1)}
    shifted = fn.relabel(mapping, n + 1)
    return fn.with_replicas(n + 1) - shifted


class GibbsOracle:
    """Exact Gibbs measures over all 2**N configurations, one per row.

    ``energies`` holds the log-weights H of every configuration, of shape
    (..., 2**N): one draw, or a stack of R.  Each row's weights are
    exp(H - max H) normalized and its log Z keeps the shift.  The spectrum
    w^ = fwht(weights) of all rows is computed once, on first use.  Every
    query gathers (``np.take`` keeps rows C-contiguous) and reduces along
    the last axis, so each row is bit-identical to its own oracle.
    """

    def __init__(self, n_sites: int, energies: np.ndarray):
        if n_sites > EXACT_ENUMERATION_CAP:
            raise ResourceCapError(
                f"exact oracle needs 2**{n_sites} configurations (cap N <= {EXACT_ENUMERATION_CAP})"
            )
        energies = np.asarray(energies, dtype=np.float64)
        if energies.shape[-1:] != (1 << n_sites,):
            raise ModelValidationError(
                f"energy vector has shape {energies.shape}, expected (..., {1 << n_sites})"
            )
        shift = energies.max(axis=-1, keepdims=True)
        weights = energies - shift  # a fresh array: the caller's energies stay intact
        np.exp(weights, out=weights)
        z = weights.sum(axis=-1, keepdims=True)
        weights /= z
        self.n_sites = n_sites
        self.weights = weights
        # math.log, not np.log: the two differ in the last bit for some z
        self.log_z = np.array([float(s) + math.log(t) for s, t in zip(shift.flat, z.flat)]
                              ).reshape(shift.shape[:-1])[()]
        self._spectrum: np.ndarray | None = None
        self._pair_matrices: dict[int, np.ndarray] = {}
        self._leaf_kernels: dict[int, np.ndarray] = {}

    # -- construction -------------------------------------------------------

    @staticmethod
    def build(spec: ModelSpec, couplings: CouplingAssignment,
              vb: DilutedPairAssignment | list[DilutedPairAssignment] | None = None
              ) -> "GibbsOracle":
        """The oracle of one draw, or of a stack of R draws (tables with a
        leading row axis, ``vb`` one diluted interaction per row): one
        oracle over the (R, 2**N) stack, for one energy transform and at
        most one spectrum transform."""
        degree = max((*spec.orders, 1 if vb is None else 2))  # the field has degree 1
        return GibbsOracle(spec.n_sites,
                           fwht(energy_coefficients(spec, couplings, vb), degree, copy=False))

    # -- basic queries ------------------------------------------------------

    @property
    def free_energy_density(self):
        return self.log_z / self.n_sites

    @property
    def spectrum(self) -> np.ndarray:
        """w^[A] = sum_c weights[c] * (-1)**|A & c|, along the last axis."""
        if self._spectrum is None:
            self._spectrum = fwht(self.weights)
        return self._spectrum

    def moment(self, mask: int):
        """<sigma_A> for the site set encoded by ``mask``."""
        if not mask:
            return 1.0
        value = self.spectrum[..., mask][()]  # a scalar for one draw
        return -value if int(mask).bit_count() & 1 else value

    def thermal_mean(self, values: np.ndarray):
        """<values> over the Gibbs weights.

        Reductions over 2**N entries use numpy's pairwise sum, which runs in
        one thread, rather than a BLAS dot product, whose rounding depends on
        how many threads split it."""
        return (self.weights * values).sum(axis=-1)

    # -- overlap fast paths -------------------------------------------------

    def pair_moment_matrix(self, mask: int = 0) -> np.ndarray:
        """P[..., u, v] = <sigma_u sigma_v sigma_A>, gathered from the
        spectrum and cached per mask; {u} ^ {v} has even size, so every entry
        carries the sign of A."""
        got = self._pair_matrices.get(mask)
        if got is None:
            bits = np.left_shift(1, np.arange(self.n_sites, dtype=np.int64))
            got = np.take(self.spectrum, mask ^ bits[:, None] ^ bits[None, :], axis=-1)
            if int(mask).bit_count() & 1:
                got = -got
            self._pair_matrices[mask] = got
        return got

    def _leaf_values(self, power: int) -> np.ndarray:
        """u_p[c] = E_{c' ~ G} R(c, c')**p via one XOR convolution."""
        got = self._leaf_kernels.get(power)
        if got is None:
            kernel_hat = _kernel_spectrum(self.n_sites, power)
            got = fwht(self.spectrum * kernel_hat, copy=False)
            got /= kernel_hat.size
            self._leaf_kernels[power] = got
        return got

    def star_overlap_expectation(self, leg_powers):
        """< prod_k R_{center, leaf_k}**p_k > for one or more distinct leaves
        of one center: (u_p1 * u_p2 * ...) * weights, summed, in one buffer."""
        first, *rest = leg_powers
        value = self._leaf_values(first).copy()
        for power in rest:
            value *= self._leaf_values(power)
        value *= self.weights
        return value.sum(axis=-1)

    def overlap_power_moment(self, power: int, mask_a: int = 0, mask_b: int = 0):
        """<R_12**power sigma^1_A sigma^2_B> by masked Parseval:
        (-1)**|A ^ B| * 2**-N sum_S w^[S ^ A] w^[S ^ B] k^_p[S].

        sigma_A times the weights has spectrum (-1)**|A| w^[. ^ A], an XOR
        gather that a zero mask skips."""
        kernel_hat = _kernel_spectrum(self.n_sites, power)
        value = self._shifted_spectrum(mask_a) * self._shifted_spectrum(mask_b)
        value *= kernel_hat
        value = value.sum(axis=-1) / kernel_hat.size
        return -value if int(mask_a ^ mask_b).bit_count() & 1 else value

    def _shifted_spectrum(self, mask: int) -> np.ndarray:
        """S -> w^[S ^ mask]."""
        if not mask:
            return self.spectrum
        return np.take(self.spectrum, np.arange(1 << self.n_sites) ^ mask, axis=-1)


def naive_replica_expectation(oracle: GibbsOracle, fn: ReplicaFunctional) -> float:
    """<F> by direct summation over all n-tuples of configurations.

    Exponential in n*N, capped at 2**NAIVE_MAX_BITS tuples; used as the
    independent cross-check for the factorized route.
    """
    n_replicas = fn.n_replicas
    bits = n_replicas * oracle.n_sites
    if bits > NAIVE_MAX_BITS:
        raise ResourceCapError(
            f"naive replica sum needs 2**{bits} terms (cap 2**{NAIVE_MAX_BITS})"
        )
    n_cfg = 1 << oracle.n_sites
    spins = spin_matrix(oracle.n_sites)
    grids = np.indices((n_cfg,) * n_replicas).reshape(n_replicas, -1)
    weight = np.ones(grids.shape[1])
    for l in range(n_replicas):
        weight = weight * oracle.weights[grids[l]]
    values = np.zeros(grids.shape[1])
    for key, coeff in fn.terms.items():
        term = np.full(grids.shape[1], coeff)
        for replica, mask in key:
            column = np.prod(spins[:, list(mask_to_sites(mask))], axis=1)
            term = term * column[grids[replica - 1]]
        values += term
    return float((weight * values).sum())


def overlap_product_expectation(oracle: GibbsOracle, edges, masks=None):
    """< prod R_{l1,l2}**power * prod_l sigma^l_{A_l} > for the products the
    estimators reach, for each row of ``oracle``.

    ``edges`` is an iterable of (l1, l2, power); parallel edges merge by
    adding powers.  ``masks`` maps replica labels to the parity masks of a
    spin monomial.  One edge is masked Parseval times the moments of the
    replicas off the edge; two edges are a star when they share a replica
    and a product of two Parseval moments when they do not.  More edges, or
    masks with two edges, raise ValueError.  A product with no edge and no
    mask is the constant 1.0.
    """
    merged: dict[tuple[int, int], int] = {}
    for l1, l2, power in edges:
        if l1 == l2:
            raise ValueError("overlap edges need distinct replicas")
        key = (min(l1, l2), max(l1, l2))
        merged[key] = merged.get(key, 0) + int(power)
    masks = masks or {}
    if len(merged) == 2 and not masks:
        (pair_a, power_a), (pair_b, power_b) = merged.items()
        if set(pair_a) & set(pair_b):
            return oracle.star_overlap_expectation([power_a, power_b])
        return oracle.overlap_power_moment(power_a) * oracle.overlap_power_moment(power_b)
    if len(merged) > 1:
        raise ValueError("overlap products take two edges without masks, or one with them")
    value = 1.0
    for label in sorted(masks):
        if not any(label in pair for pair in merged):
            value *= oracle.moment(masks[label])
    for (a, b), power in merged.items():
        value *= oracle.overlap_power_moment(power, masks.get(a, 0), masks.get(b, 0))
    return value
