import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausscollect import far_field
from gausscollect.ensemble_model import (
    FULL_GAUSSIAN,
    GOUY_COMPENSATED,
    UNIFORM,
    CloudGeometry,
    make_profile,
    phase_at_points,
    sample_positions,
)
from gausscollect.special_math import graded_edges, panel_nodes
from gausscollect.waist_optimizer import default_bracket, optimal_waist_numeric
from gausscollect.far_field import (
    DirectionGrid,
    sampled_structure_factor,
    structure_factor,
)


def form_factor(theta, sp, sz):
    """Gaussian density form factor |FT rho/N|^2 at q = z_hat - n_hat."""
    q_perp = math.sin(theta)
    q_z = 1.0 - math.cos(theta)
    return math.exp(-(q_perp * sp) ** 2 - (q_z * sz) ** 2)


class TestSampledStructureFactor:
    def test_forward_is_exactly_one_for_uniform(self):
        cloud = CloudGeometry(5.0, 50.0)
        grid = sampled_structure_factor(
            cloud, make_profile(UNIFORM), 20_000, 3,
            DirectionGrid([0.0, 0.3], [0.0, 1.0]),
        )
        assert grid.intensity[0, 0] == 1.0
        assert grid.intensity[0, 1] == 1.0
        assert grid.forward_value == 1.0
        assert grid.stderr[0, 0] == 0.0

    def test_small_angle_matches_form_factor(self):
        sp, sz = 5.0, 50.0
        theta = 0.5 / sp
        cloud = CloudGeometry(sp, sz)
        grid = sampled_structure_factor(
            cloud, make_profile(UNIFORM), 100_000, 42,
            DirectionGrid([0.0, theta], [0.0]),
        )
        expect = form_factor(theta, sp, sz)
        assert abs(grid.intensity[1, 0] - expect) <= 3.0 * grid.stderr[1, 0]

    def test_backward_suppression(self):
        cloud = CloudGeometry(5.0, 100.0)
        grid = sampled_structure_factor(
            cloud, make_profile(UNIFORM), 100_000, 11,
            DirectionGrid([0.0, math.pi], [0.0]),
        )
        assert grid.intensity[1, 0] < 1e-3

    def test_deterministic(self):
        cloud = CloudGeometry(4.0, 40.0)
        d = DirectionGrid([0.0, 0.2], [0.0])
        a = sampled_structure_factor(cloud, make_profile(UNIFORM), 5000, 9, d)
        b = sampled_structure_factor(cloud, make_profile(UNIFORM), 5000, 9, d)
        assert np.array_equal(a.intensity, b.intensity)

    def test_azimuthal_symmetry(self):
        cloud = CloudGeometry(6.0, 30.0)
        m = 40_000
        grid = sampled_structure_factor(
            cloud, make_profile(UNIFORM), m, 5,
            DirectionGrid([0.08], np.linspace(0.0, 2 * math.pi, 8, endpoint=False)),
        )
        spread = grid.intensity[0].max() - grid.intensity[0].min()
        assert spread < 5.0 / math.sqrt(m)

    def test_bounded_up_to_noise(self):
        cloud = CloudGeometry(3.0, 20.0)
        m = 50_000
        grid = sampled_structure_factor(
            cloud, make_profile(GOUY_COMPENSATED, 8.0), m, 21,
            DirectionGrid(np.linspace(0.0, math.pi, 12), [0.0]),
        )
        # raw values are normalized by the forward cell; undo to check the bound
        raw = grid.intensity * grid.forward_value
        assert np.all(raw <= 1.0 + 5.0 / math.sqrt(m))

    def test_doubling_samples_halves_incoherent_floor(self):
        cloud = CloudGeometry(5.0, 100.0)
        d = DirectionGrid([math.pi], [0.0])
        floors = {}
        for m in (4000, 8000):
            vals = [
                sampled_structure_factor(cloud, make_profile(UNIFORM), m, seed, d).intensity[0, 0]
                for seed in range(24)
            ]
            floors[m] = np.mean(vals)
        ratio = floors[4000] / floors[8000]
        assert 1.4 < ratio < 2.8

    def test_compensated_profile_forward_normalization(self):
        cloud = CloudGeometry(4.0, 60.0)
        grid = sampled_structure_factor(
            cloud, make_profile(GOUY_COMPENSATED, 9.0), 20_000, 2,
            DirectionGrid([0.0, 0.1], [0.0]),
        )
        # imprinted phase de-coheres the plane-wave forward sum
        assert grid.forward_value < 1.0
        assert grid.intensity[0, 0] == 1.0  # normalized to the forward cell


def structure_factor_reference(cloud, profile, count, seed, thetas, phis):
    """Unblocked formulas: direction chunks over all atoms, two-pass variances."""
    positions = sample_positions(cloud, count, seed)
    spin_phase = phase_at_points(profile, positions)
    q = np.empty((thetas.size, phis.size, 3))
    q[..., 0] = -np.sin(thetas)[:, None] * np.cos(phis)[None, :]
    q[..., 1] = -np.sin(thetas)[:, None] * np.sin(phis)[None, :]
    q[..., 2] = (1.0 - np.cos(thetas))[:, None]
    q_flat = q.reshape(-1, 3)
    intensity = np.empty(q_flat.shape[0])
    stderr = np.empty(q_flat.shape[0])
    m = float(count)
    chunk = max(1, int(2_000_000 // count))
    for start in range(0, q_flat.shape[0], chunk):
        block = q_flat[start:start + chunk]
        phases = positions @ block.T + spin_phase[:, None]
        cos_p = np.cos(phases)
        sin_p = np.sin(phases)
        mr = cos_p.mean(axis=0)
        mi = sin_p.mean(axis=0)
        var_r = cos_p.var(axis=0) / m
        var_i = sin_p.var(axis=0) / m
        cov = ((cos_p * sin_p).mean(axis=0) - mr * mi) / m
        var_s = (4.0 * (mr * mr * var_r + 2.0 * mr * mi * cov + mi * mi * var_i)
                 + 2.0 * (var_r * var_r + var_i * var_i + 2.0 * cov * cov))
        intensity[start:start + chunk] = mr * mr + mi * mi
        stderr[start:start + chunk] = np.sqrt(np.maximum(var_s, 0.0))
    forward = intensity[0]
    shape = (thetas.size, phis.size)
    return (intensity / forward).reshape(shape), (stderr / forward).reshape(shape)


_THETAS = np.array([0.0, 1e-3, 0.05, 0.3, 1.0, math.pi])
_PHIS = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
_ONE_BLOCK = far_field._BLOCK_PHASORS // (_THETAS.size * _PHIS.size)


@pytest.mark.parametrize("variant", [UNIFORM, GOUY_COMPENSATED, FULL_GAUSSIAN])
@pytest.mark.parametrize("count", [1, 100, _ONE_BLOCK, 2 * _ONE_BLOCK + 7])
def test_blocked_moments_match_unblocked_formulas(variant, count):
    # the near-forward 1e-3 direction has phases that hardly spread, where
    # raw (unshifted) moments lose the variance to cancellation
    cloud = CloudGeometry(5.0, 50.0)
    profile = make_profile(variant, 9.0)
    grid = sampled_structure_factor(cloud, profile, count, 17, DirectionGrid(_THETAS, _PHIS))
    intensity, stderr = structure_factor_reference(cloud, profile, count, 17, _THETAS, _PHIS)
    assert np.max(np.abs(grid.intensity - intensity)) <= 1e-12
    assert np.max(np.abs(grid.stderr - stderr)) <= 1e-12


class TestDirectionGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            DirectionGrid(np.array([]), np.array([0.0]))
        with pytest.raises(ValueError):
            DirectionGrid(np.array([0.0]), np.array([0.0]), intensity=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            DirectionGrid(np.array([0.0]), np.array([0.0]), intensity=-np.ones((1, 1)))


# ---------------------------------------------------------------------------
# the exact ensemble-mean pattern
# ---------------------------------------------------------------------------

def transverse_mean(z, cloud, profile, q_perp_sq):
    """Transverse average of exp(i [q_perp . rho + phi(rho, z)]) at each z."""
    sp_sq = cloud.sigma_perp_bar ** 2
    if profile.variant == UNIFORM:
        return np.full(z.shape, math.exp(-0.5 * q_perp_sq * sp_sq), dtype=complex)
    zr = profile.reference_beam.rayleigh_bar
    gouy = np.exp(-1j * np.arctan(z / zr))
    if profile.variant == GOUY_COMPENSATED:
        return gouy * math.exp(-0.5 * q_perp_sq * sp_sq)
    d = 1.0 - 2j * sp_sq * z / (2.0 * (z * z + zr * zr))
    return gouy * np.exp(-0.5 * q_perp_sq * sp_sq / d) / d


def mean_phasor_reference(cloud, profile, theta):
    """E at one polar angle by plain Gauss-Legendre on the real axis.

    Graded panels, four times finer at the focus and at ratio 1.3, each
    split until neither exp(i q_z z) nor the transverse average turns by
    more than pi / 4 across a piece: four times what a 16-point panel
    resolves to double precision.
    """
    sz = cloud.sigma_z_bar
    zr = sz if profile.reference_beam is None else profile.reference_beam.rayleigh_bar
    q_perp_sq = math.sin(theta) ** 2
    q_z = 2.0 * math.sin(0.5 * theta) ** 2
    edges = np.array(graded_edges(min(zr, sz) / 16.0, 8.5 * sz, 1.3))
    z, _ = panel_nodes(edges, 16)
    phase = np.unwrap(np.angle(transverse_mean(z, cloud, profile, q_perp_sq)))
    turn = np.abs(np.diff(phase.reshape(-1, 16), axis=1)).sum(axis=1)
    pieces = 4 * np.maximum(1, np.ceil((q_z * np.diff(edges) + turn) / math.pi)).astype(int)
    total = 0j
    for a, b, n in zip(edges[:-1], edges[1:], pieces):
        z, w = panel_nodes(np.linspace(a, b, n + 1), 16)
        density = np.exp(-0.5 * (z / sz) ** 2) / (math.sqrt(2.0 * math.pi) * sz)
        total += np.sum(w * density * transverse_mean(z, cloud, profile, q_perp_sq)
                        * np.exp(1j * q_z * z))
    return total


def unnormalized(grid):
    return grid.intensity * grid.forward_value


_VARIANTS = [UNIFORM, GOUY_COMPENSATED, FULL_GAUSSIAN]

# the clouds of the benchmark's seed-7 envelope session, each with its
# optimal waist per phase (perfbench/workloads.py, plan_envelope_session(7))
_SESSION_CLOUDS = [(2.135338, 23.22316), (8.813331, 125.257019),
                   (3.566448, 398.980081), (44.183771, 1.687619)]


def preset_box_cases(n, seed):
    """(cloud, profile) pairs: clouds log-uniform over the preset box, each
    with a waist log-uniform over its optimizer bracket, for every phase."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        cloud = CloudGeometry(50.0 ** rng.random(), 1000.0 ** rng.random())
        lo, hi = default_bracket(cloud)
        w0 = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        cases += [(cloud, make_profile(variant, w0)) for variant in _VARIANTS]
    return cases


class TestStructureFactor:
    def test_uniform_is_the_closed_form(self):
        sp, sz, n = 3.0, 40.0, 500
        thetas = np.linspace(0.0, math.pi, 9)
        grid = structure_factor(CloudGeometry(sp, sz), make_profile(UNIFORM), n,
                                DirectionGrid(thetas, [0.0, 2.0]))
        coherent = np.array([form_factor(t, sp, sz) for t in thetas])
        expect = coherent + (1.0 - coherent) / n
        assert_allclose(unnormalized(grid), np.column_stack([expect, expect]), rtol=1e-14)

    @pytest.mark.parametrize("variant", _VARIANTS)
    def test_forward_is_exactly_one(self, variant):
        n = 1000
        grid = structure_factor(CloudGeometry(4.0, 60.0), make_profile(variant, 9.0), n,
                                DirectionGrid([0.0, 0.1, 2.0], [0.0, 1.0, 3.0]))
        assert np.all(grid.intensity[0] == 1.0)
        # the normalization keeps the forward value |E_0|^2 + (1 - |E_0|^2) / N
        assert 1.0 / n < grid.forward_value <= 1.0
        if variant == UNIFORM:
            assert grid.forward_value == 1.0
        else:
            # the imprinted phase de-coheres the plane-wave forward sum
            assert grid.forward_value < 0.99
        assert grid.stderr is None

    @pytest.mark.parametrize("variant", _VARIANTS)
    def test_no_azimuthal_dependence(self, variant):
        grid = structure_factor(CloudGeometry(6.0, 30.0), make_profile(variant, 12.0), 100,
                                DirectionGrid([0.0, 0.08, 1.0],
                                               np.linspace(0.0, 2 * math.pi, 8, endpoint=False)))
        assert np.all(grid.intensity == grid.intensity[:, :1])

    def test_incoherent_floor_is_one_over_n(self):
        # far outside the coherent lobe |E|^2 underflows: S = 1 / N
        for n in (1, 7, 10_000):
            grid = structure_factor(CloudGeometry(5.0, 100.0), make_profile(UNIFORM), n,
                                    DirectionGrid([0.0, math.pi], [0.0]))
            assert grid.intensity[1, 0] == pytest.approx(1.0 / n, rel=1e-15)

    def test_repeatable(self):
        d = DirectionGrid(np.linspace(0.0, math.pi, 7), [0.0])
        profile = make_profile(FULL_GAUSSIAN, 8.0)
        a = structure_factor(CloudGeometry(4.0, 40.0), profile, 50, d)
        b = structure_factor(CloudGeometry(4.0, 40.0), profile, 50, d)
        assert np.array_equal(a.intensity, b.intensity)

    def test_rejects_pancake_and_empty_ensembles(self):
        d = DirectionGrid([0.0], [0.0])
        with pytest.raises(ValueError):
            structure_factor(CloudGeometry(4.0, 0.0), make_profile(UNIFORM), 10, d)
        with pytest.raises(ValueError):
            structure_factor(CloudGeometry(4.0, 4.0), make_profile(UNIFORM), 0, d)


def assert_matches_real_axis_reference(cloud, profile):
    # every third direction of the default 25-point polar grid
    thetas = np.linspace(0.0, math.pi, 25)[::3]
    mean = far_field._mean_phasor(cloud, profile, thetas)
    reference = np.array([mean_phasor_reference(cloud, profile, t) for t in thetas])
    assert np.max(np.abs(mean - reference)) <= 1e-13


@pytest.mark.parametrize("variant", _VARIANTS)
@pytest.mark.parametrize("sp, sz", _SESSION_CLOUDS)
def test_mean_phasor_matches_reference_on_session_requests(sp, sz, variant):
    cloud = CloudGeometry(sp, sz)
    w0 = optimal_waist_numeric(cloud, variant).w0_max_bar
    assert_matches_real_axis_reference(cloud, make_profile(variant, w0))


@pytest.mark.parametrize("cloud, profile", preset_box_cases(4, 2024))
def test_mean_phasor_matches_reference_on_preset_box(cloud, profile):
    assert_matches_real_axis_reference(cloud, profile)


def test_sampled_pattern_scatters_around_the_exact_one():
    # the sampled pattern of N atoms is one draw of the ensemble whose mean
    # is the exact pattern for n_atoms = N: its z-scores are of order 1,
    # at the incoherent floor (theta near pi) as well as inside the lobe.
    # At the floor the delta-method term, taken at the sampled mean, adds
    # about 2 / N^2 to the second-order 1 / N^2: the error is conservative
    # there, by up to sqrt(3).  Without the second-order term it vanishes
    # with the sampled mean, and |z| reaches about 15 here.
    cloud = CloudGeometry(2.135, 23.223)
    d = DirectionGrid(np.linspace(0.05, math.pi, 12), [0.0])
    count = 2000
    exact = structure_factor(cloud, make_profile(UNIFORM), count, d).intensity
    z = np.array([
        (grid.intensity - exact) / grid.stderr
        for grid in (sampled_structure_factor(cloud, make_profile(UNIFORM), count, seed, d)
                     for seed in range(20))
    ])
    assert np.max(np.abs(z)) < 5.0
    assert 0.4 < np.sqrt(np.mean(z * z)) < 1.2


def test_axial_panels_grow_logarithmically_in_cloud_length():
    # the Filon rule takes exp(i q_z z) exactly: nothing resolves q_z sz
    counts = [far_field._axial_edges(25.0, sz, 50.0, 12.5).size - 1
              for sz in (1e2, 1e4, 1e6, 1e8)]
    steps = np.diff(counts)
    assert counts[-1] < 150
    assert steps.max() - steps.min() <= 2


def test_direction_blocks_bound_the_temporaries():
    import tracemalloc

    d = DirectionGrid(np.linspace(0.0, math.pi, 2000),
                       np.linspace(0.0, 2 * math.pi, 4, endpoint=False))
    cloud, profile = CloudGeometry(5.0, 400.0), make_profile(FULL_GAUSSIAN, 6.0)
    structure_factor(cloud, profile, 1000, d)
    tracemalloc.start()
    try:
        structure_factor(cloud, profile, 1000, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
