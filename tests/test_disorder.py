import math
import zlib

import numpy as np
import pytest
from conftest import bits_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from pspinlab import disorder as dis
from pspinlab.disorder import (
    DisorderValidationError,
    SeedPath,
    experiment_id,
    replicate_generators,
    sample_couplings,
    sample_replicates,
    sample_vb,
    stream_keys,
)
from pspinlab.model import MAX_COUPLING_ENTRIES, ModelSpec, ResourceCapError


def quadrature_moment(law: dis.DisorderSpec, k: int) -> float:
    """E[xi**k] by the law's exact quadrature."""
    nodes, weights = law.nodes_weights()
    return float(weights @ nodes ** k)


def validate_moments(law: dis.DisorderSpec, tol: float = 1e-10) -> None:
    """Check the declared (m1..m4) against quadrature to ``tol``."""
    for k in range(1, 5):
        got = quadrature_moment(law, k)
        want = law.moments[k - 1]
        if abs(got - want) > tol:
            raise DisorderValidationError(
                f"{law.family}: declared m{k}={want!r} but quadrature gives {got!r}"
            )


ALL_FAMILIES = dis.standard_families() + [
    dis.skewed_three_point(9.0),
    dis.near_gaussian_family(8),
]


@pytest.mark.parametrize("law", ALL_FAMILIES, ids=lambda l: l.family)
def test_declared_moments_match_quadrature(law):
    validate_moments(law, tol=1e-10)


@pytest.mark.parametrize("law", ALL_FAMILIES, ids=lambda l: l.family)
def test_sampling_matches_declared_moments(law):
    rng = SeedPath(experiment_id(3, "moment-smoke"), 0, 0).generator()
    draws = law.sample(rng, 200_000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.05
    m3 = (draws ** 3).mean()
    assert abs(m3 - law.moments[2]) < 6.0 * math.sqrt(
        max(1.0, law.moments[3]) * 15.0 / draws.size) + 0.03


def test_rademacher_support():
    rng = SeedPath(1, 0, 0).generator()
    draws = dis.rademacher().sample(rng, 1000)
    assert set(np.unique(draws)) == {-1.0, 1.0}


def test_three_point_fourth_moment_dial():
    law = dis.three_point(4.0)
    assert quadrature_moment(law, 4) == pytest.approx(4.0, abs=1e-12)
    assert quadrature_moment(law, 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DisorderValidationError):
        dis.three_point(0.5)


def test_golden_skew_exact_atoms():
    law = dis.golden_skew()
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert law.atoms == pytest.approx((phi, -1.0 / phi))
    assert quadrature_moment(law, 3) == pytest.approx(1.0, abs=1e-12)
    assert quadrature_moment(law, 4) == pytest.approx(2.0, abs=1e-12)


def test_skewed_three_point_moment_system():
    law = dis.skewed_three_point(5.0)
    for k, want in zip(range(1, 5), (0.0, 1.0, 1.0, 5.0)):
        assert quadrature_moment(law, k) == pytest.approx(want, abs=1e-11)
    with pytest.raises(DisorderValidationError):
        dis.skewed_three_point(2.0)


@pytest.mark.parametrize("size", [2, 8, 64, 1000])
def test_near_gaussian_third_moment_decay(size):
    law = dis.near_gaussian_family(size)
    assert law.moments[2] == pytest.approx(size ** -0.5)
    validate_moments(law, tol=1e-9)


def test_near_gaussian_rejects_bad_skew():
    with pytest.raises(DisorderValidationError):
        dis.near_gaussian_family(1)
    # the skew component is always the golden law; no config can replace it
    with pytest.raises(TypeError):
        dis.by_name("near-gaussian", size=4, skew=dis.rademacher())
    law = dis.near_gaussian_family(8)
    assert law.probs == dis.golden_skew().probs
    assert law.atoms == pytest.approx(tuple(8 ** (-1 / 6) * z for z in dis.golden_skew().atoms))


def test_discrete_must_be_standardized():
    with pytest.raises(DisorderValidationError):
        dis.discrete((1.0, 2.0), (0.5, 0.5))
    with pytest.raises(DisorderValidationError):
        dis.discrete((-1.0, 1.0), (0.7, 0.7))


def test_by_name_round_trip():
    for name, kwargs in [("gaussian", {}), ("rademacher", {}), ("uniform", {}),
                         ("three-point", {"fourth_moment": 6.0}), ("golden-skew", {}),
                         ("skewed-three-point", {"fourth_moment": 7.0}),
                         ("near-gaussian", {"size": 16}),
                         ("discrete", {"atoms": [-1.0, 1.0], "probs": [0.5, 0.5]})]:
        law = dis.by_name(name, **kwargs)
        assert law.family == name
        validate_moments(law, tol=1e-9)
    with pytest.raises(DisorderValidationError):
        dis.by_name("cauchy")
    # parameterless families take no keys, and a needed key must be present
    with pytest.raises(TypeError):
        dis.by_name("gaussian", size=8)
    with pytest.raises(TypeError):
        dis.by_name("near-gaussian")


def test_validate_moments_catches_lies():
    law = dis.DisorderSpec("liar", (0.0, 1.0, 0.0, 5.0), atoms=(-1.0, 1.0),
                           probs=(0.5, 0.5))
    with pytest.raises(DisorderValidationError):
        validate_moments(law)


def test_seed_path_validation():
    with pytest.raises(DisorderValidationError):
        SeedPath(-1)
    with pytest.raises(DisorderValidationError):
        SeedPath(0, replicate=1 << 64)


def test_experiment_id_construction():
    # the id mixes the crc of the name into the high bits of the seed
    want = (123 ^ (zlib.crc32(b"gg-gap") << 32)) & ((1 << 64) - 1)
    assert experiment_id(123, "gg-gap") == want
    assert experiment_id(123, "gg-gap") != experiment_id(123, "vb")


@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=25, deadline=None)
def test_equal_paths_reproduce_draws(exp, rep):
    a = SeedPath(exp, rep, 0).generator().standard_normal(8)
    b = SeedPath(exp, rep, 0).generator().standard_normal(8)
    assert np.array_equal(a, b)
    c = SeedPath(exp, rep, 1).generator().standard_normal(8)
    assert not np.array_equal(a, c)


def test_distinct_replicates_decorrelate():
    draws = [SeedPath(7, r, 0).generator().standard_normal(4) for r in range(50)]
    flat = np.stack(draws)
    assert np.unique(flat, axis=0).shape[0] == 50


def test_sample_couplings_shapes_and_determinism():
    spec = ModelSpec(4, {2: 1.0, 3: 0.5})
    law = dis.gaussian()
    a = sample_couplings(spec, law, SeedPath(5, 0, 0).generator())
    b = sample_couplings(spec, law, SeedPath(5, 0, 0).generator())
    assert a.tables[2].shape == (4, 4)
    assert a.tables[3].shape == (4, 4, 4)
    assert np.array_equal(a.tables[2], b.tables[2])
    assert np.array_equal(a.tables[3], b.tables[3])


def test_sample_vb_edge_law_constraints():
    for alpha in (-0.1, float("nan")):  # refused by numpy's Poisson draw
        with pytest.raises(ValueError, match="lam < 0 or lam is NaN"):
            sample_vb(alpha, 6, 1.0, SeedPath(8, 0, 0).generator())
    # edges are Rademacher, drawn after the count and the endpoints
    rng = SeedPath(8, 3, 0).generator()
    k = int(rng.poisson(2.0 * 6))
    rng.integers(0, 6, size=k)
    rng.integers(0, 6, size=k)
    want = dis.rademacher().sample(rng, k)
    got = sample_vb(2.0, 6, 1.0, SeedPath(8, 3, 0).generator())
    assert np.array_equal(got.j_values, want)


def test_sample_vb_zero_rate():
    vb = sample_vb(0.0, 6, 1.0, SeedPath(8, 1, 0).generator())
    assert vb.n_edges == 0


def test_sample_vb_poisson_count():
    counts = [sample_vb(2.0, 10, 1.0, SeedPath(8, r, 0).generator()).n_edges
              for r in range(400)]
    mean = np.mean(counts)
    # Poisson(20): stderr of the mean over 400 draws is sqrt(20/400) ~ 0.22
    assert abs(mean - 20.0) < 1.5
    assert all(((vbv >= 0) for vbv in counts))


def test_sample_vb_endpoints_in_range():
    vb = sample_vb(3.0, 7, 0.5, SeedPath(8, 2, 0).generator())
    assert vb.left_sites.min() >= 0 and vb.left_sites.max() < 7
    assert set(np.unique(vb.j_values)) <= {-1.0, 1.0}


# -- numpy's SeedSequence, hashed over arrays --------------------------------
#
# ``stream_keys`` copies numpy's SeedSequence hash, and chunk draws reset one
# Philox per replicate instead of building a generator for it.  These tests
# compare both with numpy's own per-replicate construction, so a numpy change
# fails here instead of silently changing streams.

_EXPERIMENT_IDS = [0, 1, 7, 2 ** 32 - 1, 2 ** 32, experiment_id(7, "gg-gap"), 2 ** 64 - 1]
_REPLICATE_RANGES = [range(0, 40), range(2 ** 32 - 3, 2 ** 32 + 3),
                     range(2 ** 40, 2 ** 40 + 2), range(2 ** 64 - 2, 2 ** 64), range(5, 5)]


def numpy_generator(experiment: int, replicate: int, stream: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=(experiment, replicate, stream))
    return np.random.Generator(np.random.Philox(seq))


def reference_sample(law: dis.DisorderSpec, rng: np.random.Generator, shape) -> np.ndarray:
    """A law's draw through numpy's ``Generator.choice`` for the atoms."""
    if law.family == "gaussian":
        return rng.standard_normal(shape)
    if law.family == "uniform":
        return rng.uniform(-law.uniform_halfwidth, law.uniform_halfwidth, size=shape)
    out = np.zeros(shape)
    if law.atoms:
        out = np.array(law.atoms)[rng.choice(len(law.atoms), size=shape, p=np.array(law.probs))]
    if law.gaussian_weight:
        out = out + law.gaussian_weight * rng.standard_normal(shape)
    return out


@pytest.mark.parametrize("experiment", _EXPERIMENT_IDS)
@pytest.mark.parametrize("stream", [0, 1, 2])
def test_stream_keys_equal_seed_sequence(experiment, stream):
    for rows in _REPLICATE_RANGES:
        want = [np.random.SeedSequence(entropy=(experiment, r, stream)).generate_state(2, np.uint64)
                for r in rows]
        got = stream_keys(experiment, rows, stream)
        assert got.shape == (len(rows), 2) and got.dtype == np.uint64
        assert np.array_equal(got, np.reshape(want, (-1, 2))), rows


def test_stream_keys_of_a_two_word_stream():
    rows = range(2 ** 32 - 1, 2 ** 32 + 1)
    want = [np.random.SeedSequence(entropy=(2 ** 33 + 5, r, 2 ** 40)).generate_state(2, np.uint64)
            for r in rows]
    assert np.array_equal(stream_keys(2 ** 33 + 5, rows, 2 ** 40), want)


@pytest.mark.parametrize("path", [SeedPath(0), SeedPath(7, 3, 1), SeedPath(2 ** 64 - 1, 2 ** 32, 2),
                                  SeedPath(experiment_id(7, "gg-gap"), 2 ** 64 - 1, 0)])
def test_seed_path_generator_equals_numpy_construction(path):
    want = numpy_generator(path.experiment, path.replicate, path.stream)
    got = path.generator()
    assert np.array_equal(got.standard_normal(9), want.standard_normal(9))
    assert np.array_equal(got.integers(0, 7, size=5), want.integers(0, 7, size=5))


def test_replicate_generators_reset_every_row():
    """Each row starts at counter 0 of its own key, whatever the previous row
    drew: a 32-bit draw leaves half a word buffered, which must not leak."""
    rows = range(2 ** 32 - 2, 2 ** 32 + 2)
    for r, rng in zip(rows, replicate_generators(9, rows, 1)):
        want = numpy_generator(9, r, 1)
        assert rng.integers(0, 2 ** 31, dtype=np.int32) == want.integers(0, 2 ** 31, dtype=np.int32)
        assert np.array_equal(rng.random(3), want.random(3))
    assert list(replicate_generators(9, range(3, 3), 1)) == []


_FAMILY_PARAMS = {
    "gaussian": {},
    "rademacher": {},
    "uniform": {},
    "three-point": {"fourth_moment": 3.0},
    "golden-skew": {},
    "skewed-three-point": {"fourth_moment": 5.0},
    "near-gaussian": {"size": 8},
    "discrete": {"atoms": [-2.0, 0.0, 1.0], "probs": [1 / 6, 1 / 2, 1 / 3]},
}


def test_family_params_cover_every_family():
    assert set(_FAMILY_PARAMS) == set(dis._FAMILIES)


@pytest.mark.parametrize("name", sorted(_FAMILY_PARAMS))
def test_chunk_draws_equal_per_replicate_numpy_draws(name):
    law = dis.by_name(name, **_FAMILY_PARAMS[name])
    spec = ModelSpec(4, {2: 1.0, 3: 0.5})
    exp = experiment_id(11, "chunk-draws")
    for rows, stream in ((range(5, 17), 1), (range(2 ** 32 - 2, 2 ** 32 + 2), 0)):
        chunk = sample_replicates(spec, law, exp, rows, stream)
        for row, r in enumerate(rows):
            rng = numpy_generator(exp, r, stream)
            for p in spec.orders:
                want = reference_sample(law, rng, (4,) * p)
                assert np.array_equal(chunk.tables[p][row], want), (name, r, p)
        # the single-draw sampler on SeedPath's generator gives the same tables
        single = sample_couplings(spec, law, SeedPath(exp, rows[-1], stream).generator())
        for p in spec.orders:
            assert np.array_equal(single.tables[p], chunk.tables[p][-1])


@pytest.mark.parametrize("law", [dis.gaussian(), dis.rademacher(), dis.uniform_scaled(),
                                 dis.golden_skew()], ids=lambda law: law.family)
def test_stacked_draws_equal_per_path_sample_couplings(law):
    """``sample_replicates`` writes each row's draws straight into the stack;
    on p = 2 + 3 they are the bits ``sample_couplings`` draws on the row's
    own path, for ranges of 1 and 32 rows."""
    spec = ModelSpec(4, {3: 0.5, 2: 1.0})
    exp = experiment_id(12, "stacked-draws")
    for rows in (range(7, 8), range(40, 72)):
        stack = sample_replicates(spec, law, exp, rows, 2)
        assert {p: t.shape for p, t in stack.tables.items()} == {
            2: (len(rows), 4, 4), 3: (len(rows), 4, 4, 4)}
        for row, r in enumerate(rows):
            single = sample_couplings(spec, law, SeedPath(exp, r, 2).generator())
            for p in (2, 3):
                assert bits_equal(stack.tables[p][row], single.tables[p]), (rows, r, p)


def test_sample_replicates_refuses_a_stack_past_the_entry_cap(monkeypatch):
    """One row of order 10 at N = 4 fits the cap, eight rows do not; the
    range is refused before any generator is made."""
    spec = ModelSpec(4, {10: 1.0})
    assert 4 ** 10 <= MAX_COUPLING_ENTRIES < 8 * 4 ** 10

    def no_generators(*args):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(dis, "replicate_generators", no_generators)
    with pytest.raises(ResourceCapError):
        sample_replicates(spec, dis.gaussian(), experiment_id(3, "cap"), range(8), 0)


def test_chunk_vb_draws_equal_per_replicate_numpy_draws():
    exp = experiment_id(11, "chunk-vb")
    rows = range(0, 40)
    got = [sample_vb(0.4, 5, 0.5, rng) for rng in replicate_generators(exp, rows, 1)]
    assert any(vb.n_edges == 0 for vb in got) and any(vb.n_edges > 2 for vb in got)
    for r, vb in zip(rows, got):
        rng = numpy_generator(exp, r, 1)
        k = int(rng.poisson(0.4 * 5))
        assert np.array_equal(vb.left_sites, rng.integers(0, 5, size=k))
        assert np.array_equal(vb.right_sites, rng.integers(0, 5, size=k))
        assert np.array_equal(vb.j_values, reference_sample(dis.rademacher(), rng, k))


def test_huge_atoms_are_a_validation_error():
    for atom in (1e155, 1e200):
        with pytest.raises(DisorderValidationError, match="overflow"):
            dis.discrete((atom, -atom), (0.5, 0.5))
