"""Coupling disorder: scalar laws with declared moments and seeded sampling.

Every law is standardized to mean 0 and variance 1 and carries its first four
moments as declared data, so downstream checks can verify what they were
given by quadrature instead of trusting the label.  Sampling goes through a
counter-based generator keyed by an (experiment, replicate, stream) path;
equal paths reproduce bit-identical draws and distinct paths give
independent streams.  The keys of a range of replicates are hashed in one
pass, and one generator, re-keyed per replicate, draws the whole range.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .model import CouplingAssignment, ModelSpec, DilutedPairAssignment

_MASK64 = (1 << 64) - 1
_GH_NODES = 64

# Two-sided standard-normal quantile at 1 - 1e-12; effective support bound
# used when a working interval is needed for an unbounded law.
GAUSSIAN_SUPPORT = 7.035


class DisorderValidationError(ValueError):
    """Raised when a disorder law or its parameters are malformed."""


# numpy's SeedSequence hash, after O'Neill's seed_seq (numpy/random/bit_generator.pyx):
# a pool of four 32-bit words, filled and mixed with these constants
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MAX_WORDS = 6  # (experiment, replicate, stream), up to two words each


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constants h_0 = init, h_{k+1} = h_k * mult (mod 2**32), as a column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# hashmix call k uses h_k and h_{k+1}: the pool fill, the pairwise mixing and
# one call per pool word for every entropy word past the pool
_CHAIN_A = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * (_MAX_WORDS - _POOL_SIZE))
_CHAIN_B = _hash_chain(_INIT_B, _MULT_B, _POOL_SIZE)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """hashmix under the constants h_k, h_{k+1}, ...: call i xors with
    consts[i] and multiplies by consts[i + 1]; one value broadcasts against
    every call."""
    out = (values ^ consts[:-1]) * consts[1:]
    return out ^ (out >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _words(value: int) -> list[int]:
    """An integer as little-endian 32-bit words, at least one, as SeedSequence coerces it."""
    out = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        out.append(value & _MASK32)
    return out


def _pool_keys(entropy: np.ndarray) -> np.ndarray:
    """Philox keys, shape (R, 2), of the entropy words in the columns of an (L, R) array."""
    n_words = entropy.shape[0]
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:min(n_words, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, _CHAIN_A[:_POOL_SIZE + 1])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        # each other word, in order, mixes with pool[src] under its own constant
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _CHAIN_A[k:k + _POOL_SIZE]))
        k += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, n_words):
        pool = _mix(pool, _hashmix(entropy[src], _CHAIN_A[k:k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    state = _hashmix(pool, _CHAIN_B)
    return np.ascontiguousarray(state.T).view("<u8")  # word pairs, low word first


def stream_keys(experiment: int, replicates: range, stream: int) -> np.ndarray:
    """Philox keys of the paths (experiment, r, stream) for every r in an
    increasing range, shape (R, 2): the keys
    ``np.random.SeedSequence(entropy=(experiment, r, stream)).generate_state(2, np.uint64)``
    gives, hashed for all r at once."""
    head, tail = _words(experiment), _words(stream)
    # indices below 2**32 coerce to one word, the rest to two
    narrow = range(replicates.start, min(replicates.stop, _MASK32 + 1), replicates.step)
    parts = [_pool_keys(np.array([head + _words(r) + tail for r in part], dtype=np.uint32).T)
             for part in (narrow, replicates[len(narrow):]) if len(part)]
    return np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.uint64)


@dataclass(frozen=True)
class SeedPath:
    """Hierarchical RNG address: experiment id, replicate index, stream index."""

    experiment: int
    replicate: int = 0
    stream: int = 0

    def __post_init__(self):
        for name in ("experiment", "replicate", "stream"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v <= _MASK64:
                raise DisorderValidationError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        """Counter-based generator for this path (Philox keyed by the triple)."""
        key = stream_keys(self.experiment, range(self.replicate, self.replicate + 1), self.stream)
        return np.random.Generator(np.random.Philox(key=key[0]))


def replicate_generators(experiment: int, replicates: range, stream: int):
    """For each r in ``replicates``, in order, the generator of
    ``SeedPath(experiment, r, stream)`` at counter 0.

    One Philox serves the whole range: each step assigns it the next key, a
    zero counter and an empty buffer, the state a new generator for that path
    starts in.  So a step's draws must be taken before the next step.
    """
    keys = stream_keys(experiment, replicates, stream)
    if not len(keys):
        return
    bitgen = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # a new generator's: counter 0, an empty buffer
    for key in keys:
        state["state"]["key"] = key
        bitgen.state = state
        yield rng


def experiment_id(seed: int, name: str) -> int:
    """Stable 64-bit experiment id from a 64-bit unsigned seed and an experiment name."""
    if not 0 <= seed <= _MASK64:
        raise DisorderValidationError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return (seed ^ (zlib.crc32(name.encode("utf-8")) << 32)) & _MASK64


@dataclass(frozen=True)
class DisorderSpec:
    """A standardized scalar coupling law.

    Attributes:
        family: label of the construction ("gaussian", "rademacher", ...).
        moments: declared (m1, m2, m3, m4).
        atoms, probs: support and weights for purely discrete laws.
        gaussian_weight: std-dev of an independent Gaussian component mixed
            onto the discrete part (used by the near-Gaussian family).
    """

    family: str
    moments: tuple[float, float, float, float]
    atoms: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    gaussian_weight: float = 0.0
    uniform_halfwidth: float = 0.0

    def __post_init__(self):
        if self.atoms and len(self.atoms) != len(self.probs):
            raise DisorderValidationError("atoms and probs must have equal lengths")
        if self.probs:
            if any(q < 0 for q in self.probs):
                raise DisorderValidationError("atom probabilities must be nonnegative")
            if abs(sum(self.probs) - 1.0) > 1e-12:
                raise DisorderValidationError(f"atom probabilities sum to {sum(self.probs)!r}, not 1")

    # -- sampling -----------------------------------------------------------

    @functools.cached_property
    def _atom_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms, and the cdf that ``Generator.choice(len(atoms), p=probs)``
        searches with its uniforms: the same draws, without choice's checks."""
        cdf = np.cumsum(self.probs)
        cdf /= cdf[-1]
        return np.array(self.atoms), cdf

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.family == "gaussian":
            return rng.standard_normal(shape)
        if self.family == "uniform":
            w = self.uniform_halfwidth
            return rng.uniform(-w, w, size=shape)
        if self.atoms:
            atoms, cdf = self._atom_cdf
            out = atoms[cdf.searchsorted(rng.random(shape), side="right")]
        else:
            out = np.zeros(shape, dtype=np.float64)
        if self.gaussian_weight:
            out = out + self.gaussian_weight * rng.standard_normal(shape)
        return out

    # -- exact moment machinery --------------------------------------------

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature representation integrating polynomials of this law.

        Discrete parts are summed exactly; Gaussian components use
        Gauss-Hermite nodes; the uniform family uses Gauss-Legendre.
        """
        if self.family == "gaussian":
            return _gauss_rule("hermite")
        if self.family == "uniform":
            x, w = _gauss_rule("legendre")
            return x * self.uniform_halfwidth, w / 2.0
        atoms = np.array(self.atoms if self.atoms else (0.0,))
        probs = np.array(self.probs if self.probs else (1.0,))
        if not self.gaussian_weight:
            return atoms, probs
        g_nodes, g_weights = _gauss_rule("hermite")
        nodes = (atoms[:, None] + g_nodes[None, :] * self.gaussian_weight).ravel()
        weights = (probs[:, None] * g_weights[None, :]).ravel()
        return nodes, weights

    def support_interval(self) -> tuple[float, float]:
        """Working interval covering the law up to the 1 - 1e-12 tail."""
        if self.family == "gaussian":
            return (-GAUSSIAN_SUPPORT, GAUSSIAN_SUPPORT)
        if self.family == "uniform":
            return (-self.uniform_halfwidth, self.uniform_halfwidth)
        lo = min(self.atoms) if self.atoms else 0.0
        hi = max(self.atoms) if self.atoms else 0.0
        if self.gaussian_weight:
            lo -= GAUSSIAN_SUPPORT * self.gaussian_weight
            hi += GAUSSIAN_SUPPORT * self.gaussian_weight
        return (lo, hi)


@functools.lru_cache(maxsize=None)
def _gauss_rule(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The _GH_NODES-point rule of the standard normal law ("hermite") or of
    [-1, 1] ("legendre"), built once per process; the arrays are read-only."""
    if kind == "hermite":
        h, w = np.polynomial.hermite.hermgauss(_GH_NODES)
        nodes, weights = h * math.sqrt(2.0), w / math.sqrt(math.pi)
    else:
        nodes, weights = np.polynomial.legendre.leggauss(_GH_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gaussian() -> DisorderSpec:
    return DisorderSpec("gaussian", (0.0, 1.0, 0.0, 3.0))


def rademacher() -> DisorderSpec:
    return DisorderSpec("rademacher", (0.0, 1.0, 0.0, 1.0), atoms=(-1.0, 1.0), probs=(0.5, 0.5))


def uniform_scaled() -> DisorderSpec:
    """Uniform on [-sqrt(3), sqrt(3)]: unit variance, fourth moment 9/5."""
    w = math.sqrt(3.0)
    return DisorderSpec("uniform", (0.0, 1.0, 0.0, 9.0 / 5.0), uniform_halfwidth=w)


def three_point(fourth_moment: float = 9.0) -> DisorderSpec:
    """Symmetric atoms {-a, 0, +a} with unit variance and chosen m4 = a**2."""
    if fourth_moment < 1.0:
        raise DisorderValidationError(
            f"a symmetric three-point law needs fourth moment >= 1, got {fourth_moment!r}"
        )
    a = math.sqrt(fourth_moment)
    p = 1.0 / (2.0 * fourth_moment)
    return DisorderSpec("three-point", (0.0, 1.0, 0.0, fourth_moment),
                        atoms=(-a, 0.0, a), probs=(p, 1.0 - 2.0 * p, p))


def discrete(atoms, probs) -> DisorderSpec:
    """Custom discrete law; mean and variance are validated at construction."""
    atoms = tuple(float(a) for a in atoms)
    probs = tuple(float(q) for q in probs)
    try:
        moments = tuple(sum(q * a ** k for a, q in zip(atoms, probs)) for k in (1, 2, 3, 4))
    except OverflowError:
        raise DisorderValidationError(
            f"custom law's moments overflow a float: atoms {list(atoms)!r}") from None
    spec = DisorderSpec("discrete", moments, atoms=atoms, probs=probs)
    if abs(moments[0]) > 1e-10 or abs(moments[1] - 1.0) > 1e-10:
        raise DisorderValidationError(
            f"custom law must be standardized: got mean {moments[0]!r}, variance {moments[1]!r}"
        )
    return spec


def golden_skew() -> DisorderSpec:
    """Two-atom law with m1=0, m2=1, m3=1 exactly.

    The moment system pins the atoms at the golden ratio phi and -1/phi with
    weights (5 -+ sqrt 5)/10; the fourth moment comes out to exactly 2.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    p = (5.0 - math.sqrt(5.0)) / 10.0
    return DisorderSpec("golden-skew", (0.0, 1.0, 1.0, 2.0),
                        atoms=(phi, -1.0 / phi), probs=(p, 1.0 - p))


def skewed_three_point(fourth_moment: float = 9.0) -> DisorderSpec:
    """Three-atom law with m1=0, m2=1, m3=1 and a chosen fourth moment.

    Solving the moment system with support {a, b, 0} forces a + b = 1 and
    ab = 1 - m4, so the outer atoms are the roots of x**2 - x - (m4 - 1).
    """
    if fourth_moment <= 2.0:
        raise DisorderValidationError(
            f"the skewed three-point family needs fourth moment > 2, got {fourth_moment!r}"
        )
    disc = math.sqrt(1.0 + 4.0 * (fourth_moment - 1.0))
    a = (1.0 + disc) / 2.0
    b = (1.0 - disc) / 2.0
    p = 1.0 / (a * (a - b))
    q = -p * a / b
    return DisorderSpec("skewed-three-point", (0.0, 1.0, 1.0, fourth_moment),
                        atoms=(a, b, 0.0), probs=(p, q, 1.0 - p - q))


def near_gaussian_family(size: int) -> DisorderSpec:
    """Law drifting to the Gaussian as ``size`` grows, with third moment size**-1/2.

    Mixes the unit-skew golden law zeta (m1=0, m2=1, m3=1, m4=2) scaled by
    size**(-1/6) with an independent Gaussian scaled by sqrt(1 - size**(-1/3)).
    The declared moments are m3 = size**(-1/2) and
    m4 = size**(-2/3) * (E zeta**4 - 3) + 3.
    """
    if size < 2:
        raise DisorderValidationError(f"the near-Gaussian family needs size >= 2, got {size}")
    skew = golden_skew()
    a = float(size) ** (-1.0 / 6.0)
    b = math.sqrt(1.0 - float(size) ** (-1.0 / 3.0))
    m4 = float(size) ** (-2.0 / 3.0) * (skew.moments[3] - 3.0) + 3.0
    return DisorderSpec(
        "near-gaussian",
        (0.0, 1.0, float(size) ** -0.5, m4),
        atoms=tuple(a * z for z in skew.atoms),
        probs=skew.probs,
        gaussian_weight=b,
    )


# config-file family name -> constructor; parameters pass as keywords
_FAMILIES = {
    "gaussian": gaussian,
    "rademacher": rademacher,
    "uniform": uniform_scaled,
    "three-point": three_point,
    "golden-skew": golden_skew,
    "skewed-three-point": skewed_three_point,
    "near-gaussian": near_gaussian_family,
    "discrete": discrete,
}


def by_name(name: str, **params) -> DisorderSpec:
    """Construct a law from its config-file name; a missing or unknown
    parameter is a TypeError from the constructor."""
    if name not in _FAMILIES:
        raise DisorderValidationError(f"unknown disorder family {name!r}")
    return _FAMILIES[name](**params)


def sample_couplings(spec: ModelSpec, law: DisorderSpec, rng: np.random.Generator) -> CouplingAssignment:
    """Draw one dense coupling table per interaction order, orders in sorted order."""
    tables = {}
    for p in spec.orders:
        tables[p] = law.sample(rng, (spec.n_sites,) * p)
    return CouplingAssignment(tables)


def sample_replicates(spec: ModelSpec, law: DisorderSpec, experiment: int, replicates: range,
                      stream: int) -> CouplingAssignment:
    """The tables ``sample_couplings`` draws on each path (experiment, r,
    stream), stacked: order p has shape (len(replicates),) + (N,)*p.  Each
    row's draws, in the same order, are written straight into the stack.  A
    stack beyond MAX_COUPLING_ENTRIES raises ResourceCapError before any draw."""
    spec.check_draws(len(replicates))
    shapes = [(p, (spec.n_sites,) * p) for p in spec.orders]
    tables = {p: np.empty((len(replicates),) + shape) for p, shape in shapes}
    for row, rng in enumerate(replicate_generators(experiment, replicates, stream)):
        for p, shape in shapes:
            tables[p][row] = law.sample(rng, shape)
    return CouplingAssignment(tables)


def sample_vb(alpha: float, n_sites: int, beta_prime: float,
              rng: np.random.Generator) -> DilutedPairAssignment:
    """Draw a diluted pair interaction: Poisson(alpha*N) edges, uniform
    endpoints, Rademacher edge couplings; numpy's draw refuses alpha < 0 or NaN."""
    k = int(rng.poisson(alpha * n_sites))
    left = rng.integers(0, n_sites, size=k)
    right = rng.integers(0, n_sites, size=k)
    return DilutedPairAssignment(beta_prime=beta_prime, j_values=rademacher().sample(rng, k),
                               left_sites=left, right_sites=right)


def standard_families() -> list[DisorderSpec]:
    """The laws exercised by the verification batteries."""
    return [gaussian(), rademacher(), uniform_scaled(), three_point(9.0), golden_skew()]
