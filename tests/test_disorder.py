import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspinlab import disorder as dis
from pspinlab.disorder import (
    DisorderValidationError,
    SeedPath,
    experiment_id,
    sample_couplings,
    sample_vb,
)
from pspinlab.model import ModelSpec


ALL_FAMILIES = dis.standard_families() + [
    dis.skewed_three_point(9.0),
    dis.near_gaussian_family(8),
]


@pytest.mark.parametrize("law", ALL_FAMILIES, ids=lambda l: l.family)
def test_declared_moments_match_quadrature(law):
    law.validate_moments(tol=1e-10)


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
    assert law.quadrature_moment(4) == pytest.approx(4.0, abs=1e-12)
    assert law.quadrature_moment(2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DisorderValidationError):
        dis.three_point(0.5)


def test_golden_skew_exact_atoms():
    law = dis.golden_skew()
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert law.atoms == pytest.approx((phi, -1.0 / phi))
    assert law.quadrature_moment(3) == pytest.approx(1.0, abs=1e-12)
    assert law.quadrature_moment(4) == pytest.approx(2.0, abs=1e-12)


def test_skewed_three_point_moment_system():
    law = dis.skewed_three_point(5.0)
    for k, want in zip(range(1, 5), (0.0, 1.0, 1.0, 5.0)):
        assert law.quadrature_moment(k) == pytest.approx(want, abs=1e-11)
    with pytest.raises(DisorderValidationError):
        dis.skewed_three_point(2.0)


@pytest.mark.parametrize("size", [2, 8, 64, 1000])
def test_near_gaussian_third_moment_decay(size):
    law = dis.near_gaussian_family(size)
    assert law.moments[2] == pytest.approx(size ** -0.5)
    law.validate_moments(tol=1e-9)


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
        law.validate_moments(tol=1e-9)
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
        law.validate_moments()


def test_seed_path_validation():
    with pytest.raises(DisorderValidationError):
        SeedPath(-1)
    with pytest.raises(DisorderValidationError):
        SeedPath(0, replicate=1 << 64)
    p = SeedPath(9, 2, 1)
    assert p.child(stream=0) == SeedPath(9, 2, 0)


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
    rng = SeedPath(8, 0, 0).generator()
    with pytest.raises(DisorderValidationError):
        sample_vb(-0.1, 6, 1.0, rng)
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
