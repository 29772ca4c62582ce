"""Mixed p-spin models on the hypercube with dense coupling tables.

A model couples N Ising spins sigma_i in {-1, +1} through independent random
couplings attached to ordered site tuples.  The interaction energy of order p
is

    beta_p * N**(-(p - 1) / 2) * sum_{i in {1..N}^p} xi_i * sigma_{i_1} ... sigma_{i_p}

and an external field h adds h * sum_i sigma_i.  Tuple sums deliberately run
over all of {1..N}^p, repeated entries included, so diagonal tuples such as
(i, i) contribute constant sigma_i**2 = 1 terms; nothing is symmetrized away.
Gibbs weights use exp(+H).

Site indices are 0-based throughout the code.  Dense tables of shape (N,)*p
are stored row-major, so ``table[i1, i2, ..., ip]`` is the coupling of the
ordered tuple (i1, ..., ip).

The energies of all 2**N configurations come from the Walsh coefficient
vector of H (``energy_coefficients``, built per order by
``tuple_coefficients``), one fast Walsh-Hadamard transform away.  The
tests keep a direct evaluation of H at one configuration as the
independent reference for it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Beyond this many sites a dense 2**N enumeration (and the N**p tables that
# feed it) stops being a reasonable object to build.
EXACT_ENUMERATION_CAP = 20

MAX_COUPLING_ENTRIES = 1 << 22
"""Most coupling entries, sum_p rows * N**p, that one range of draws
allocates: 32 MB of float64.  Order 5 fits at N = 20, order 7 does not."""


class ModelValidationError(ValueError):
    """Raised when a model spec, coupling table, or argument is malformed."""


class ResourceCapError(ValueError):
    """Raised when a request exceeds the exact-enumeration resource caps."""


@dataclass(frozen=True)
class ModelSpec:
    """Sizes and strengths of a mixed p-spin model.

    Args:
        n_sites: number of spins N, from 1 to EXACT_ENUMERATION_CAP.
        betas: mapping {p: beta_p} of interaction orders to inverse-temperature
            weights. Orders must be integers >= 2.
        field: external field h applied uniformly to every site.
    """

    n_sites: int
    betas: dict[int, float] = field(default_factory=dict)
    field_h: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n_sites, int) or self.n_sites < 1:
            raise ModelValidationError(f"n_sites must be a positive integer, got {self.n_sites!r}")
        if self.n_sites > EXACT_ENUMERATION_CAP:
            raise ResourceCapError(
                f"N={self.n_sites} needs 2**{self.n_sites} configurations "
                f"(cap N <= {EXACT_ENUMERATION_CAP})"
            )
        for p, beta in self.betas.items():
            if not isinstance(p, int) or p < 2:
                raise ModelValidationError(f"interaction orders must be integers >= 2, got {p!r}")
            if not math.isfinite(beta):
                raise ModelValidationError(f"beta_{p} must be finite, got {beta!r}")
        if not math.isfinite(self.field_h):
            raise ModelValidationError(f"field must be finite, got {self.field_h!r}")
        self.check_draws(1)

    @property
    def max_draws(self) -> int:
        """Most draws whose stacked coupling tables fit MAX_COUPLING_ENTRIES.

        An order-p table counts as at least 2**p entries, so an order past
        the cap's bit length fits no draw at any N, N = 1 included, and no
        larger power is computed."""
        bits = MAX_COUPLING_ENTRIES.bit_length()
        per_draw = sum(max(self.n_sites, 2) ** min(p, bits) for p in self.betas)
        return MAX_COUPLING_ENTRIES // max(per_draw, 1)

    def check_draws(self, rows: int) -> None:
        """Refuse ``rows`` draws of coupling tables beyond ``max_draws``."""
        if rows > self.max_draws:
            raise ResourceCapError(
                f"{rows} draw(s) of orders {list(self.orders)} at N={self.n_sites} exceed "
                f"{MAX_COUPLING_ENTRIES} coupling entries")

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.betas))

    def scale(self, p: int) -> float:
        """Normalization N**(-(p-1)/2)."""
        return float(self.n_sites) ** (-(p - 1) / 2.0)


@dataclass
class CouplingAssignment:
    """Dense coupling tables, one ndarray of shape (N,)*p per order p, or a
    stack of R draws with tables of shape (R,) + (N,)*p."""

    tables: dict[int, np.ndarray]

    def validate(self, spec: ModelSpec) -> tuple[int, ...]:
        """Check the tables against ``spec``; returns their leading shape,
        () for one draw or (R,) for a stack."""
        if set(self.tables) != set(spec.betas):
            raise ModelValidationError(
                f"coupling orders {sorted(self.tables)} do not match model orders {sorted(spec.betas)}"
            )
        leads = set()
        for p, table in self.tables.items():
            want = (spec.n_sites,) * p
            if table.shape[-p:] != want or table.ndim > p + 1:
                raise ModelValidationError(
                    f"order-{p} table has shape {table.shape}, expected {want} or (R, *{want})"
                )
            if not np.all(np.isfinite(table)):
                raise ModelValidationError(f"order-{p} table contains non-finite entries")
            leads.add(table.shape[:-p])
        if len(leads) > 1:
            raise ModelValidationError(f"coupling tables stack different draw counts {sorted(leads)}")
        return leads.pop() if leads else ()


def spin_matrix(n_sites: int) -> np.ndarray:
    """All 2**N configurations as a (2**N, N) float matrix of ±1 rows; row c
    has sigma_b = +1 iff bit b of c is set."""
    if n_sites > EXACT_ENUMERATION_CAP:
        raise ResourceCapError(
            f"refusing to enumerate 2**{n_sites} configurations (cap N <= {EXACT_ENUMERATION_CAP})"
        )
    count = 1 << n_sites
    codes = np.arange(count, dtype=np.uint32)
    out = np.empty((count, n_sites), dtype=np.float64)
    for b in range(n_sites):
        out[:, b] = ((codes >> b) & 1) * 2.0 - 1.0
    return out


@dataclass
class DilutedPairAssignment:
    """A realized diluted pair interaction: K edges with bounded couplings.

    Self-loops (u == v) are kept; they contribute the constant beta_prime * J.
    """

    beta_prime: float
    j_values: np.ndarray
    left_sites: np.ndarray
    right_sites: np.ndarray

    def __post_init__(self):
        k = len(self.j_values)
        if len(self.left_sites) != k or len(self.right_sites) != k:
            raise ModelValidationError("edge arrays must share one length")
        if not math.isfinite(self.beta_prime):
            raise ModelValidationError(f"beta_prime must be finite, got {self.beta_prime!r}")

    @property
    def n_edges(self) -> int:
        return len(self.j_values)


# -- Walsh coefficients -------------------------------------------------------
#
# Bit b of configuration index c is set iff sigma_b = +1, so a spin monomial is
# sigma_A = (-1)**|A| * (-1)**|A & c|.  The coefficient vector of an energy,
# indexed by site mask A, is one fast Walsh-Hadamard transform away from the
# energies of all 2**N configurations.


@lru_cache(maxsize=16)
def tuple_masks(n_sites: int, p: int) -> np.ndarray:
    """Parity mask of every ordered p-tuple of sites, in row-major table order."""
    bits = np.left_shift(1, np.arange(n_sites, dtype=np.int64))
    masks = np.zeros(1, dtype=np.int64)
    for _ in range(p):
        masks = (masks[:, None] ^ bits[None, :]).ravel()
    masks.flags.writeable = False
    return masks


def tuple_coefficients(table: np.ndarray, p: int) -> np.ndarray:
    """Walsh coefficients of sum_i xi_i * sigma_{i_1}...sigma_{i_p}, for an
    order-p table of shape (N,)*p, or for each row of a stack (R,) + (N,)*p.

    A p-tuple parity-reduces to a mask with |A| = p mod 2, so every term
    carries the same sign (-1)**p.  ``bincount`` adds the couplings of each
    mask in table order, a fixed-order sum; row r's masks are offset by
    r * 2**N, so each row is bit-identical to its own table.
    """
    n = table.shape[-1]
    rows = table.shape[:-p]
    count = math.prod(rows)
    masks = tuple_masks(n, p)
    if rows:
        masks = ((np.arange(count, dtype=np.int64)[:, None] << n) + masks).ravel()
    coeffs = np.bincount(masks, weights=table.ravel(), minlength=count << n)
    coeffs = coeffs.reshape(rows + (1 << n,))
    return -coeffs if p % 2 else coeffs


def energy_coefficients(spec: ModelSpec, couplings: CouplingAssignment,
                        vb: DilutedPairAssignment | Sequence[DilutedPairAssignment] | None = None
                        ) -> np.ndarray:
    """Walsh coefficients of H, plus the diluted pair energy when ``vb`` is given.

    Stacked tables give an (R, 2**N) stack, with ``vb`` a sequence of one
    DilutedPairAssignment per row.  Each row is bit-identical to its own
    draw: the orders, the field and the edges are added in the same order,
    and every ``bincount`` offsets row r by r * 2**N.
    """
    rows = couplings.validate(spec)
    n = spec.n_sites
    coeffs = np.zeros(rows + (1 << n,))
    for p in spec.orders:
        coeffs += tuple_coefficients(spec.betas[p] * spec.scale(p) * couplings.tables[p], p)
    coeffs[..., np.left_shift(1, np.arange(n))] -= spec.field_h
    if vb is None:
        return coeffs
    vbs = list(vb) if rows else [vb]
    if len(vbs) != math.prod(rows):
        raise ModelValidationError(f"{len(vbs)} diluted interactions for {math.prod(rows)} draws")
    left = np.concatenate([np.asarray(v.left_sites, dtype=np.int64) for v in vbs])
    right = np.concatenate([np.asarray(v.right_sites, dtype=np.int64) for v in vbs])
    if left.size:
        if min(left.min(), right.min()) < 0 or max(left.max(), right.max()) >= n:
            raise ModelValidationError(f"diluted edge sites must lie in 0..{n - 1}")
        row_of = np.repeat(np.arange(len(vbs), dtype=np.int64), [v.n_edges for v in vbs])
        masks = (row_of << n) + (np.left_shift(1, left) ^ np.left_shift(1, right))
        weights = np.concatenate([v.beta_prime * v.j_values for v in vbs])
        coeffs += np.bincount(masks, weights=weights,
                              minlength=len(vbs) << n).reshape(coeffs.shape)
    return coeffs


def interpolated_couplings(first: CouplingAssignment, second: CouplingAssignment,
                           t: float) -> CouplingAssignment:
    """Entrywise sqrt(t)*first + sqrt(1-t)*second.

    Variance is preserved when both inputs have unit-variance entries.
    """
    if not 0.0 <= t <= 1.0:
        raise ModelValidationError(f"interpolation parameter must lie in [0, 1], got {t!r}")
    if set(first.tables) != set(second.tables):
        raise ModelValidationError("coupling assignments cover different interaction orders")
    a = math.sqrt(t)
    b = math.sqrt(1.0 - t)
    out = {}
    for p, table in first.tables.items():
        other = second.tables[p]
        if table.shape != other.shape:
            raise ModelValidationError(
                f"order-{p} tables have mismatched shapes {table.shape} vs {other.shape}"
            )
        out[p] = a * table + b * other
    return CouplingAssignment(out)
