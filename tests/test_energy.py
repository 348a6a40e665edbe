import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlmass.embedding import EmbeddingResult, align_embedding, embed_metric
from qlmass.energy import (
    EnergyError,
    ObserverKernel,
    SurfaceData,
    default_eps_list,
    energy,
    euler_lagrange_residual,
    hamilton_jacobi_check,
    make_observer,
    optimal_frame_gap,
    side_integral,
)
from qlmass.initialdata import (
    BowenYorkData,
    FlatData,
    SchwarzschildData,
    extract_boundary_data,
    fibonacci_directions,
)
from qlmass.mesh import icosphere

# independent 1D axisymmetric quadrature value for the exterior sphere of
# the mass-1 conformally flat slice at coordinate radius 10
SCHW_E_R10 = 1.068044510


def _flat_setup(level):
    mesh = icosphere(level)
    bd = extract_boundary_data(FlatData(), 1.0, mesh=mesh)
    emb = embed_metric(mesh, bd.geom.metric, degree=16, tol=1e-10)
    emb = align_embedding(emb, bd.positions)
    return bd, emb


@pytest.fixture(scope="module")
def flat3():
    return _flat_setup(3)


@pytest.fixture(scope="module")
def schw4():
    mesh = icosphere(4)
    bd = extract_boundary_data(SchwarzschildData(1.0), 10.0, mesh=mesh)
    emb = embed_metric(mesh, bd.geom.metric, degree=16, tol=1e-10)
    emb = align_embedding(emb, bd.positions)
    return bd, emb


def test_observer_basics(flat3):
    _, emb = flat3
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(obs.uA, emb.positions[:, 2], atol=1e-12)
    assert abs(np.abs(obs.uA).max() - 1.0) < 1e-6
    neg = make_observer(emb, np.array([0.0, 0.0, -1.0]))
    np.testing.assert_allclose(neg.uA, -obs.uA, atol=1e-15)
    with pytest.raises(EnergyError):
        make_observer(emb, np.zeros(3))
    with pytest.raises(EnergyError):
        make_observer(emb, np.array([0.0, 0.0, 1.5]))


def test_canonical_frame_closed_form(flat3):
    # round unit sphere, u = z: sinh f = -cos(theta)/sin(theta) away from
    # the poles (the masked critical set)
    _, emb = flat3
    sd = SurfaceData.from_embedding(emb)
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
    _, frame = side_integral(sd, obs, 0.0)
    z = emb.positions[:, 2]
    s = np.sqrt(np.maximum(1.0 - z**2, 0.0))
    sel = (~frame.dead_vertices) & (s > 0.3)
    exact = np.arcsinh(-z[sel] / s[sel])
    np.testing.assert_allclose(frame.f[sel], exact, atol=5e-2)


def test_frame_vanishes_for_large_eps(flat3):
    _, emb = flat3
    sd = SurfaceData.from_embedding(emb)
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
    f_small = side_integral(sd, obs, 1.0)[1].f
    f_tiny = side_integral(sd, obs, 100.0)[1].f
    # f decays like 1/eps once eps dominates the gradient scale
    assert np.abs(f_tiny).max() < np.abs(f_small).max() / 50.0
    assert np.abs(f_tiny).max() < 1.5e-2


def test_ground_state_bitwise_zero(flat3):
    # identical data on both sides: the integrands cancel exactly
    _, emb = flat3
    sd = SurfaceData.from_embedding(emb)
    obs = make_observer(emb, np.array([0.3, -0.5, np.sqrt(1 - 0.34)]))
    rep = energy(sd, sd, obs)
    assert rep.E == 0.0
    assert rep.reference_term == rep.physical_term


def test_flat_provider_energy_small_and_contracts():
    values = []
    for level in (3, 4):
        bd, emb = _flat_setup(level)
        rep = energy(
            SurfaceData.from_embedding(emb),
            SurfaceData.from_boundary(bd),
            make_observer(emb, np.array([0.0, 0.0, 1.0])),
        )
        values.append(abs(rep.E))
    assert values[1] < 5e-3
    assert values[0] / values[1] > 3.5


def test_integration_by_parts_identity(flat3):
    # face integral of grad u . grad f equals the stiffness pairing, which
    # equals minus the lumped integral of f Lap u
    _, emb = flat3
    sd = SurfaceData.from_embedding(emb)
    ops = sd.ops
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
    _, frame = side_integral(sd, obs, 0.1)
    gu = ops.gradient(obs.uA)
    gf = ops.gradient(frame.f)
    direct = float(np.einsum("fk,fk->f", gu, gf) @ ops.face_areas)
    pairing = ops.dirichlet_pairing(obs.uA, frame.f)
    by_parts = -ops.integrate(frame.f * ops.laplace(obs.uA))
    assert abs(direct - pairing) < 1e-12 * max(1.0, abs(pairing))
    assert abs(by_parts - pairing) < 1e-12 * max(1.0, abs(pairing))


def test_sqrt_term_monotone_in_eps(flat3):
    _, emb = flat3
    sd = SurfaceData.from_embedding(emb)
    obs = make_observer(emb, np.array([0.0, 1.0, 0.0]))
    totals = [side_integral(sd, obs, eps)[0] for eps in (0.1, 0.3, 1.0)]
    assert totals[0] < totals[1] < totals[2]


def test_hamilton_jacobi_identity():
    # nonzero trK and alpha exercise every term of both routes
    mesh = icosphere(3)
    by = BowenYorkData(np.array([0.03, -0.02, 0.1]))
    bd = extract_boundary_data(by, 10.0, mesh=mesh)
    emb = embed_metric(mesh, bd.geom.metric, degree=16, tol=1e-10)
    emb = align_embedding(emb, bd.positions)
    phys = SurfaceData.from_boundary(bd)
    ref = SurfaceData.from_embedding(emb)
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
    eps_list = default_eps_list(
        ObserverKernel(obs.positions, [phys]).fields(obs.a)) + [
        10.0 * float(np.abs(obs.uA).max())
    ]
    rows = hamilton_jacobi_check(ref, phys, obs, eps_list)
    for row in rows:
        assert row["relDifference"] < 1e-12


def test_schwarzschild_energy_oracle(schw4):
    bd, emb = schw4
    ref = SurfaceData.from_embedding(emb)
    phys = SurfaceData.from_boundary(bd)
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
    rep = energy(ref, phys, obs)
    assert abs(rep.E - SCHW_E_R10) / SCHW_E_R10 < 5e-3
    # time-symmetric data: a and -a give identical energies
    rep_neg = energy(ref, phys, make_observer(emb, -obs.a))
    assert abs(rep.E - rep_neg.E) < 1e-10
    # isotropy of the round sphere
    rep_x = energy(ref, phys, make_observer(emb, np.array([1.0, 0.0, 0.0])))
    assert abs(rep.E - rep_x.E) < 1e-8 * rep.E


def test_eps_limit_route_agrees(schw4):
    bd, emb = schw4
    ref = SurfaceData.from_embedding(emb)
    phys = SurfaceData.from_boundary(bd)
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
    rep = energy(ref, phys, obs, mode="both")
    assert rep.warnings == []
    errs = [abs(e - rep.E) for _, e in rep.eps_sequence]
    # regularized sequence approaches the explicit value on the tail
    assert errs[-1] < errs[0]
    assert errs[-1] < 1e-3 * rep.E
    rep2 = energy(ref, phys, obs, mode="epsLimit")
    assert abs(rep2.E - rep.E) < 1e-3 * rep.E


def test_bowen_york_antisymmetry():
    by = BowenYorkData(np.array([0.0, 0.0, 0.1]))
    mesh = icosphere(3)
    bd = extract_boundary_data(by, 10.0, mesh=mesh)
    emb = embed_metric(mesh, bd.geom.metric, degree=16, tol=1e-10)
    emb = align_embedding(emb, bd.positions)
    phys = SurfaceData.from_boundary(bd)
    ref = SurfaceData.from_embedding(emb)
    e_plus = energy(ref, phys, make_observer(emb, np.array([0.0, 0.0, 1.0])))
    e_minus = energy(ref, phys, make_observer(emb, np.array([0.0, 0.0, -1.0])))
    anti = e_plus.E - e_minus.E
    assert abs(anti - (-0.2)) < 0.05 * 0.2


def test_optimal_frame_gaps(flat3):
    _, emb = flat3
    sd = SurfaceData.from_embedding(emb)
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
    base, frame = side_integral(sd, obs, 0.0)
    rng = np.random.default_rng(7)
    trials = [frame.f]
    x = emb.positions
    for _ in range(20):
        c = rng.normal(size=6)
        bump = (
            c[0] * x[:, 0] * x[:, 1] + c[1] * (x[:, 0] ** 2 - x[:, 1] ** 2)
            + c[2] * x[:, 2] * x[:, 0] + c[3] * x[:, 2] * x[:, 1]
            + c[4] * x[:, 2] + c[5]
        )
        amp = np.abs(bump).max()
        trials.append(frame.f + bump / max(amp, 1.0) * rng.uniform(0.05, 1.0))
    gaps = optimal_frame_gap(sd, obs, 0.0, trials)
    assert abs(gaps[0]) < 1e-12 * abs(base)
    assert min(gaps) > -1e-9 * abs(base)
    assert max(gaps) > 0.0


def test_euler_lagrange_ground_state():
    norms = []
    for level in (3, 4):
        _, emb = _flat_setup(level)
        sd = SurfaceData.from_embedding(emb)
        obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
        out = euler_lagrange_residual(sd, obs)
        scale = 8.0 * np.pi
        assert abs(out["totalIntegral"]) < 1e-8 * scale
        assert abs(out["distributionalCharges"]["min"] - 2.0 * np.pi) \
            < 0.05 * 2.0 * np.pi
        assert abs(out["distributionalCharges"]["max"] + 2.0 * np.pi) \
            < 0.05 * 2.0 * np.pi
        norms.append(out["interiorL2"])
    assert norms[1] < norms[0]


def test_report_serialization(flat3):
    bd, emb = flat3
    ref = SurfaceData.from_embedding(emb)
    phys = SurfaceData.from_boundary(bd)
    for a in (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])):
        obs = make_observer(emb, a)
        rep = energy(ref, phys, obs, mode="both")
        d = rep.to_dict()
        assert set(d) >= {
            "E", "referenceTerm", "physicalTerm", "termBreakdown",
            "epsSequence", "criticalAreaFraction", "admissibleFlag",
        }
        assert abs(d["E"] - (d["referenceTerm"] - d["physicalTerm"])) < 1e-14
        assert "reference" in d["termBreakdown"]
        json.dumps(d)


def test_different_metrics_rejected():
    # one mesh, two metrics: a flat r = 1 reference and a Schwarzschild
    # r = 10 physical side are not two sides of one surface
    mesh = icosphere(2)
    flat = extract_boundary_data(FlatData(), 1.0, mesh=mesh)
    schw = extract_boundary_data(SchwarzschildData(1.0), 10.0, mesh=mesh)
    emb = align_embedding(embed_metric(mesh, flat.geom.metric, degree=12,
                                       tol=1e-10), flat.positions)
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(EnergyError, match="differ in mesh or edge lengths"):
        energy(SurfaceData.from_embedding(emb),
               SurfaceData.from_boundary(schw), obs)


def test_mesh_mismatch_rejected(flat3):
    bd, emb = flat3
    small = icosphere(2)
    bd2 = extract_boundary_data(FlatData(), 1.0, mesh=small)
    with pytest.raises(EnergyError):
        energy(
            SurfaceData.from_embedding(emb),
            SurfaceData.from_boundary(bd2),
            make_observer(emb, np.array([0.0, 0.0, 1.0])),
        )


@pytest.fixture(scope="module")
def sides2():
    # level-2 round sphere: embedded reference side, flat and Bowen-York
    # physical sides
    mesh = icosphere(2)
    flat = extract_boundary_data(FlatData(), 1.0, mesh=mesh)
    emb = embed_metric(mesh, flat.geom.metric, degree=12, tol=1e-10)
    emb = align_embedding(emb, flat.positions)
    by = extract_boundary_data(BowenYorkData(np.array([0.03, -0.02, 0.1])),
                               1.0, mesh=mesh)
    return emb, SurfaceData.from_embedding(emb), [
        SurfaceData.from_boundary(flat), SurfaceData.from_boundary(by)]


_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3)


def _unit(a):
    a = np.asarray(a)
    assume(np.linalg.norm(a) > 0.1)
    return a / np.linalg.norm(a)


@settings(max_examples=25, deadline=None)
@given(_DIRECTIONS)
def test_identical_data_energy_is_exactly_zero(sides2, a):
    emb, ref, _ = sides2
    assert energy(ref, ref, make_observer(emb, _unit(a))).E == 0.0


@settings(max_examples=25, deadline=None)
@given(_DIRECTIONS, st.sampled_from(["explicit", "both"]))
def test_term_breakdown_sums_to_side_terms(sides2, a, mode):
    emb, ref, physicals = sides2
    obs = make_observer(emb, _unit(a))
    for phys in physicals:
        rep = energy(ref, phys, obs, mode=mode)
        for side, term in (("reference", rep.reference_term),
                           ("physical", rep.physical_term)):
            parts = rep.term_breakdown[side]
            assert len(parts) == 3
            assert sum(parts) == pytest.approx(8.0 * np.pi * term,
                                               rel=1e-14, abs=0.0)


def _count_calls(monkeypatch):
    """Counts the calls of the observer field primitives."""
    import qlmass.energy as energy_mod
    from qlmass.operators import OperatorSet

    counts = {}

    def counted(owner, name):
        fn = getattr(owner, name)
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(energy_mod, "_vertex_grad_sq")
    for name in ("gradient", "laplace", "critical_set_mask",
                 "face_covector"):
        counted(OperatorSet, name)
    return counts


def _fresh(sd):
    """The same side with none of its fields computed yet."""
    return SurfaceData(sd.ops, sd.H, sd.trk, sd.alpha_edges, name=sd.name)


def test_each_side_builds_its_observer_fields_once(monkeypatch, sides2):
    emb, ref, physicals = sides2
    ref, phys = _fresh(ref), _fresh(physicals[1])
    obs = make_observer(emb, np.array([0.0, 0.6, 0.8]))
    counts = _count_calls(monkeypatch)
    rep = energy(ref, phys, obs, mode="both")
    assert len(rep.eps_sequence) == 7
    # one set of observer fields for both sides, with one critical set
    assert counts == {"_vertex_grad_sq": 2, "gradient": 1, "laplace": 1,
                      "critical_set_mask": 1, "face_covector": 2}
    counts.update(dict.fromkeys(counts, 0))
    eps_list = list(np.logspace(-1, -4, 7))
    assert len(hamilton_jacobi_check(ref, phys, obs, eps_list)) == 7
    assert counts["_vertex_grad_sq"] == 1
    assert counts["laplace"] == 1
    # the gauge covectors are the sides' own; only the slice ones are new
    assert counts["face_covector"] == 2


def test_side_covectors_are_built_once_for_every_observer(monkeypatch,
                                                          sides2):
    emb, ref, physicals = sides2
    ref, phys = _fresh(ref), _fresh(physicals[1])
    counts = _count_calls(monkeypatch)
    for a in ([0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -0.8, 0.6]):
        obs = make_observer(emb, np.array(a))
        energy(ref, phys, obs, mode="both")
        hamilton_jacobi_check(ref, phys, obs, [0.1, 0.01])
        optimal_frame_gap(phys, obs, 0.1, [])
    # one gauge and one slice covector per side
    assert counts["face_covector"] == 4


def test_unknown_energy_mode_raises(sides2):
    emb, ref, physicals = sides2
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(EnergyError, match="energy mode 'epslimit' not in"):
        energy(ref, physicals[0], obs, mode="epslimit")


@pytest.mark.parametrize("mode", ["epsLimit", "both"])
def test_empty_eps_list_raises(sides2, mode):
    emb, ref, physicals = sides2
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(EnergyError, match="empty eps_list"):
        energy(ref, physicals[1], obs, eps_list=[], mode=mode)


@settings(max_examples=20, deadline=None)
@given(_DIRECTIONS, _DIRECTIONS, _DIRECTIONS)
def test_energy_invariant_under_rigid_motion(sides2, a, rotvec, shift):
    # the reference side and the observer move together; the physical
    # side is intrinsic and stays as it is.  E changes sign as a turns,
    # so the bound is relative to the energy scale of the two terms
    from scipy.spatial.transform import Rotation

    emb, ref, physicals = sides2
    a = _unit(a)
    R = Rotation.from_rotvec(np.pi * np.asarray(rotvec)).as_matrix()
    moved = EmbeddingResult(emb.mesh, emb.positions @ R.T + np.asarray(shift),
                            emb.defect_l2, emb.iterations, metric=emb.metric)
    moved_ref = SurfaceData.from_embedding(moved)
    for phys in physicals:
        base = energy(ref, phys, make_observer(emb, a))
        motion = energy(moved_ref, phys, make_observer(moved, R @ a))
        scale = max(abs(base.reference_term), abs(base.physical_term))
        assert abs(motion.E - base.E) <= 1e-12 * scale


def test_non_convex_reference_image_rejected():
    # a vertex pushed far inward makes the image concave there
    from qlmass.embedding import EmbeddingError

    mesh = icosphere(2)
    pos = mesh.vertices.copy()
    pos[0] *= 0.5
    dented = EmbeddingResult(mesh, pos, 0.0, 0)
    with pytest.raises(EmbeddingError, match="non-convex image: H0 <= 0 at "
                                             "vertex 0"):
        SurfaceData.from_embedding(dented)


# -- the observer kernel: many directions in one call ---------------------

@pytest.fixture(scope="module")
def kernels2(sides2):
    """(embedding, observer kernel) of the level-2 Bowen-York sphere and of
    the level-2 Schwarzschild sphere at r = 10."""
    emb, ref, physicals = sides2
    mesh = icosphere(2)
    schw = extract_boundary_data(SchwarzschildData(1.0), 10.0, mesh=mesh)
    schw_emb = align_embedding(embed_metric(mesh, schw.geom.metric, degree=12,
                                            tol=1e-10), schw.positions)
    return [(emb, ObserverKernel(emb.positions, [ref, physicals[1]])),
            (schw_emb, ObserverKernel(schw_emb.positions, [
                SurfaceData.from_embedding(schw_emb),
                SurfaceData.from_boundary(schw)]))]


_DIRECTION_SETS = st.lists(_DIRECTIONS, min_size=1, max_size=8)


def _unit_rows(dirs):
    a = np.asarray(dirs, dtype=float)
    norm = np.linalg.norm(a, axis=1)
    assume(np.all(norm > 0.1))
    return a / norm[:, None]


@settings(max_examples=25, deadline=None)
@given(_DIRECTION_SETS)
def test_batched_energies_equal_one_direction_energies(kernels2, dirs):
    # E is the difference of two side terms ~200 times larger, so the
    # rounding bound is relative to the largest side term
    dirs = _unit_rows(dirs)
    for emb, kernel in kernels2:
        E, terms = kernel.energies(dirs)
        assert E.shape == (len(dirs),) and terms.shape == (2, len(dirs))
        one = [kernel.energies(a[None])[0][0] for a in dirs]
        reports = [energy(*kernel.sides, make_observer(emb, a)) for a in dirs]
        bound = 1e-13 * np.abs(terms).max()
        assert np.abs(E - one).max() <= bound
        assert np.abs(E - [rep.E for rep in reports]).max() <= bound


@settings(max_examples=25, deadline=None)
@given(_DIRECTION_SETS)
def test_identical_sides_cancel_exactly_in_every_column(sides2, dirs):
    emb, ref, _ = sides2
    E, terms = ObserverKernel(emb.positions, [ref, ref]).energies(
        _unit_rows(dirs))
    assert np.all(E == 0.0)
    assert np.array_equal(terms[0], terms[1])


@settings(max_examples=25, deadline=None)
@given(_DIRECTION_SETS, st.data(),
       st.sampled_from([0.0, 1e-13, 0.5, 1.0 + 1e-5, 3.0]))
def test_zero_or_non_unit_direction_is_named(kernels2, dirs, data, scale):
    dirs = _unit_rows(dirs)
    i = data.draw(st.integers(0, len(dirs) - 1))
    dirs[i] *= scale
    with pytest.raises(EnergyError, match=f"observer direction {i} is not a "
                                          f"unit vector: "):
        kernels2[0][1].energies(dirs)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 2), st.integers(1, 40), st.floats(0.0, 2.0 * np.pi))
def test_directions_beyond_one_block_equal_the_blocks(kernels2, n_blocks,
                                                      extra, rotation):
    kernel = kernels2[1][1]
    n = kernel.block * n_blocks + extra
    dirs = fibonacci_directions(n, rotation=rotation)
    E, terms = kernel.energies(dirs)
    blocks = [kernel.energies(dirs[i:i + kernel.block])
              for i in range(0, n, kernel.block)]
    assert np.array_equal(E, np.concatenate([b[0] for b in blocks]))
    assert np.array_equal(terms, np.hstack([b[1] for b in blocks]))
