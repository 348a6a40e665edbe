"""Acceptance suite: the ten primary end-to-end checks at their stated
tolerances and runtime budgets.  Each test prints one pass/fail line."""

import time
from types import SimpleNamespace

import numpy as np
from scipy.spatial import Delaunay

from qlmass.embedding import align_embedding, embed_metric
from qlmass.energy import (
    ObserverKernel,
    SurfaceData,
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
from qlmass.search import asymptotics_driver
from qlmass.volume import (
    VolumeMesh,
    _split_prism,
    admissibility_table,
    admissibility_verdict,
    build_fill_in,
    integral_identity_check,
    level_set_topology,
    solve_spacetime_harmonic,
    verdict_of,
)

# independent 1D axisymmetric quadrature values for exterior spheres of
# the mass-1 conformally flat slice
SCHW_ORACLE = {10.0: 1.068044510, 20.0: 1.033672125,
               40.0: 1.016750676, 80.0: 1.008354251}


def _surface(provider, radius, level):
    bd = extract_boundary_data(provider, radius, level=level)
    emb = embed_metric(bd.geom.mesh, bd.geom.metric, degree=16, tol=1e-10)
    emb = align_embedding(emb, bd.positions)
    return bd, emb, SurfaceData.from_embedding(emb), \
        SurfaceData.from_boundary(bd)


def _ball(level, radius=1.0, layers=8):
    mesh = icosphere(level)
    pos = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                         keepdims=True)
    return build_fill_in(radius * pos, mesh=mesh, layers=layers)


def _solid_torus(n_major=48, n_rings=3, major=2.0, minor=0.7):
    """Solid torus: Delaunay disc sections swept around a circle."""
    pts2 = [(0.0, 0.0)]
    for ring in range(1, n_rings + 1):
        rad = minor * ring / n_rings
        k = 6 * ring
        ang = 2.0 * np.pi * np.arange(k) / k
        pts2.extend(zip(rad * np.cos(ang), rad * np.sin(ang)))
    pts2 = np.asarray(pts2)
    tri = Delaunay(pts2).simplices
    P = len(pts2)
    sections = []
    for s in range(n_major):
        phi = 2.0 * np.pi * s / n_major
        x = (major + pts2[:, 0]) * np.cos(phi)
        y = (major + pts2[:, 0]) * np.sin(phi)
        sections.append(np.column_stack([x, y, pts2[:, 1]]))
    verts = np.vstack(sections)
    tets = []
    for s in range(n_major):
        a, b = s * P, ((s + 1) % n_major) * P
        for p0, p1, p2 in tri:
            tets.extend(_split_prism((a + p0, a + p1, a + p2,
                                      b + p0, b + p1, b + p2)))
    return VolumeMesh(verts, tets)


def _report(num, name, ok, detail, elapsed, budget):
    in_budget = elapsed <= budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    print(f"criterion {num} ({name}): {verdict}  {detail}  "
          f"[{elapsed:.1f}s of {budget:.0f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert in_budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_01_ground_state_zero():
    t0 = time.perf_counter()
    peaks = {}
    for level in (3, 4):
        _, emb, ref, phys = _surface(FlatData(), 1.0, level)
        es = ObserverKernel(emb.positions, [ref, phys]).energies(
            fibonacci_directions(16))[0]
        peaks[level] = float(np.abs(es).max())
    ratio = peaks[3] / peaks[4]
    ok = peaks[4] <= 5e-3 and ratio >= 3.5
    _report(1, "ground state zero", ok,
            f"max|E|={peaks[4]:.2e} (tol 5e-3), contraction {ratio:.2f}x "
            f"(need 3.5x)", time.perf_counter() - t0, 10.0)


def test_criterion_02_energy_limit_schwarzschild():
    t0 = time.perf_counter()
    a_list = list(fibonacci_directions(8))
    rep = asymptotics_driver(SchwarzschildData(1.0), a_list,
                             list(SCHW_ORACLE), mesh_level=4)
    limit_err = max(abs(f["E_inf"] - 1.0) for f in rep.fits)
    oracle_err = max(
        abs(rep.energies[i][j] - SCHW_ORACLE[r]) / SCHW_ORACLE[r]
        for i in range(len(a_list))
        for j, r in enumerate(rep.radii)
    )
    ok = limit_err <= 0.01 and oracle_err <= 0.005
    _report(2, "energy limit", ok,
            f"max|E_inf-1|={limit_err:.2e} (tol 0.01), finite-r vs oracle "
            f"{oracle_err:.2e} (tol 0.005)", time.perf_counter() - t0,
            120.0)


def test_criterion_03_momentum_term():
    t0 = time.perf_counter()
    up, down = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    rep = asymptotics_driver(
        BowenYorkData(np.array([0.0, 0.0, 0.1])),
        [up, down], [10.0, 20.0, 40.0], mesh_level=3)
    anti = rep.fits[0]["E_inf"] - rep.fits[1]["E_inf"]
    ok = abs(anti + 0.2) <= 0.05 * 0.2
    _report(3, "momentum term", ok,
            f"E_inf(a)-E_inf(-a)={anti:.4f} (target -0.2, tol 5%)",
            time.perf_counter() - t0, 120.0)


def test_criterion_04_optimal_frame():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = np.inf
    setups = [
        _surface(FlatData(), 1.0, 3),
        _surface(SchwarzschildData(1.0), 10.0, 3),
        _surface(BowenYorkData(np.array([0.0, 0.0, 0.1])), 10.0, 3),
    ]
    for _, emb, _, phys in setups:
        obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
        base, frame = side_integral(phys, obs, 0.0)
        x = emb.positions / np.linalg.norm(emb.positions, axis=1,
                                           keepdims=True)
        trials = []
        for _ in range(100):
            c = rng.normal(size=6)
            bump = (c[0] * x[:, 0] * x[:, 1]
                    + c[1] * (x[:, 0] ** 2 - x[:, 1] ** 2)
                    + c[2] * x[:, 2] * x[:, 0] + c[3] * x[:, 2] * x[:, 1]
                    + c[4] * x[:, 2] + c[5])
            amp = max(np.abs(bump).max(), 1.0)
            trials.append(frame.f + bump / amp * rng.uniform(0.05, 1.0))
        gaps = optimal_frame_gap(phys, obs, 0.0, trials)
        worst = min(worst, min(g / abs(base) for g in gaps))
    ok = worst >= -1e-9
    _report(4, "optimal frame", ok,
            f"min gap/scale={worst:.2e} over 300 perturbations "
            f"(tol -1e-9)", time.perf_counter() - t0, 30.0)


def test_criterion_05_integral_identity():
    t0 = time.perf_counter()
    flat = FlatData()
    vol = _ball(2)
    z = vol.vertices[vol.boundary_vertices, 2]

    sol = solve_spacetime_harmonic(vol, flat, z)
    lin = integral_identity_check(flat, vol, sol, 1.0)
    lin_ok = abs(lin["slack"]) <= 1e-8 * lin["scale"]

    sol = solve_spacetime_harmonic(vol, flat, z ** 2)
    quad = integral_identity_check(flat, vol, sol, 1.0)
    quad_ok = quad["slack"] >= -1e-6 * quad["scale"]

    schw = SchwarzschildData(1.0)
    vol_s = _ball(2, radius=10.0)
    bvals = vol_s.vertices[vol_s.boundary_vertices, 2] / 10.0
    sol = solve_spacetime_harmonic(vol_s, schw, bvals)
    sch = integral_identity_check(schw, vol_s, sol, 10.0)
    sch_ok = sch["slack"] >= -1e-6 * sch["scale"]

    ok = lin_ok and quad_ok and sch_ok
    _report(5, "integral identity", ok,
            f"slack/scale: linear {lin['slack'] / lin['scale']:.1e} "
            f"(|.|<=1e-8), quadratic {quad['slack'] / quad['scale']:.1e}, "
            f"schwarzschild {sch['slack'] / sch['scale']:.1e} (>=-1e-6)",
            time.perf_counter() - t0, 60.0)


def test_criterion_06_harmonic_solver():
    t0 = time.perf_counter()
    flat = FlatData()

    vol = _ball(2)
    bpos = vol.vertices[vol.boundary_vertices]
    direction = np.array([0.3, -0.2, 1.0])
    sol = solve_spacetime_harmonic(vol, flat, bpos @ direction)
    lin_err = np.abs(sol.u - vol.vertices @ direction).max()
    cg_iters, fallbacks = sol.cg_iterations, sol.splu_fallbacks

    maxp_ok = True
    errs = []
    for level in (2, 3, 4):
        vol = _ball(level, layers=2 ** level)
        z = vol.vertices[vol.boundary_vertices, 2]
        bvals = z ** 2
        sol = solve_spacetime_harmonic(vol, flat, bvals)
        cg_iters += sol.cg_iterations
        fallbacks += sol.splu_fallbacks
        rng = np.ptp(bvals)
        maxp_ok = maxp_ok and (
            sol.u.max() <= bvals.max() + 1e-10 * rng
            and sol.u.min() >= bvals.min() - 1e-10 * rng)
        r2 = np.einsum("ni,ni->n", vol.vertices, vol.vertices)
        exact = vol.vertices[:, 2] ** 2 - (r2 - 1.0) / 3.0
        w = np.zeros(vol.n_vertices)
        np.add.at(w, vol.tets.reshape(-1),
                  np.repeat(vol.tet_volumes / 4.0, 4))
        errs.append(np.sqrt(np.sum(w * (sol.u - exact) ** 2)))
    ratio = errs[1] / errs[2]
    ok = lin_err <= 1e-12 and maxp_ok and ratio >= 3.0
    _report(6, "harmonic solver", ok,
            f"linear err={lin_err:.1e} (tol 1e-12), max principle "
            f"{'holds' if maxp_ok else 'violated'}, L2 contraction "
            f"{ratio:.2f}x (need 3x for O(h^2)), {cg_iters} CG iterations, "
            f"{fallbacks} splu fallbacks",
            time.perf_counter() - t0, 60.0)


def test_criterion_07_admissibility_topology():
    t0 = time.perf_counter()
    ball_ok = True
    dirs = list(fibonacci_directions(6)) + [np.array([0.0, 0.0, 1.0])]
    for level in (2, 3):
        vol = _ball(level)
        for a in dirs:
            topo = level_set_topology(vol, vol.vertices @ a, n_levels=64)
            ball_ok = ball_ok and bool(
                np.all(topo.chi == 1)
                and np.all(topo.boundary_components == 1))

    torus = _solid_torus()
    obs = SimpleNamespace(a=np.array([0.0, 0.0, 1.0]))
    verdict = admissibility_verdict(torus, obs)["verdict"]
    ok = ball_ok and verdict == "not admissible"
    _report(7, "admissibility topology", ok,
            f"ball chi=1=n for {len(dirs)} directions: {ball_ok}; "
            f"torus axis observer: {verdict}",
            time.perf_counter() - t0, 30.0)


def test_criterion_08_hamilton_jacobi():
    t0 = time.perf_counter()
    worst = 0.0
    for provider, radius in ((FlatData(), 1.0),
                             (SchwarzschildData(1.0), 10.0),
                             (BowenYorkData(
                                 np.array([0.0, 0.0, 0.1])), 10.0)):
        _, emb, ref, phys = _surface(provider, radius, 3)
        obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
        rows = hamilton_jacobi_check(ref, phys, obs, [0.1, 0.01, 0.001])
        worst = max(worst, max(r["relDifference"] for r in rows))
    ok = worst <= 1e-12
    _report(8, "hamilton-jacobi identity", ok,
            f"max relative route difference {worst:.2e} (tol 1e-12)",
            time.perf_counter() - t0, 10.0)


def test_criterion_09_el_residual():
    t0 = time.perf_counter()
    l2 = {}
    charges_ok = True
    total_ok = True
    for level in (3, 4):
        _, emb, ref, _ = _surface(FlatData(), 1.0, level)
        obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))
        out = euler_lagrange_residual(ref, obs)
        scale = 8.0 * np.pi
        charges_ok &= (
            abs(out["distributionalCharges"]["min"] - 2 * np.pi)
            <= 0.05 * 2 * np.pi
            and abs(out["distributionalCharges"]["max"] + 2 * np.pi)
            <= 0.05 * 2 * np.pi
        )
        total_ok &= abs(out["totalIntegral"]) <= 1e-8 * scale
        l2[level] = out["interiorL2"]
    ok = charges_ok and total_ok and l2[4] < l2[3]
    _report(9, "euler-lagrange residual", ok,
            f"charges within 5% of +/-2pi: {charges_ok}, total integral "
            f"small: {total_ok}, interior L2 {l2[3]:.3f}->{l2[4]:.3f}",
            time.perf_counter() - t0, 30.0)


def test_criterion_10_positivity():
    t0 = time.perf_counter()
    worst = np.inf
    for provider, radius in ((FlatData(), 1.0),
                             (SchwarzschildData(1.0), 10.0)):
        bd, emb, ref, phys = _surface(provider, radius, 3)
        fill = build_fill_in(emb)
        h = float(np.mean(ref.ops.metric.edge_lengths))
        area_radius = np.sqrt(ref.ops.total_area / (4.0 * np.pi))
        dirs = fibonacci_directions(16)
        energies, terms = ObserverKernel(emb.positions,
                                         [ref, phys]).energies(dirs)
        _, tables = admissibility_table(dirs, fill, n_levels=16)
        for e, side_terms, table in zip(energies, terms.T, tables):
            if verdict_of(table) != "admissible":
                continue
            disc = (h / area_radius) ** 2 * np.abs(side_terms).max()
            worst = min(worst, e / disc)
    ok = worst >= -5.0
    _report(10, "positivity", ok,
            f"min E / (discretization estimate) = {worst:.2f} (tol -5)",
            time.perf_counter() - t0, 120.0)
