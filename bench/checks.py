"""Reference computations and result checks, made apart from qlmass.

Nothing here imports qlmass: each check compares a pass's outputs with
an independent computation (a 1D quadrature, a polar-grid solve, an
exact solution) or with a property the method must have.  Every check
returns a list of (name, ok, detail) triples.
"""

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

import workloads

# -- Schwarzschild round spheres by 1D quadrature -----------------------------


def schwarzschild_sphere_energy(radius, mass=1.0):
    """Energy of the coordinate sphere of the given isotropic radius in the
    time-symmetric Schwarzschild slice, by axisymmetric quadrature.

    With psi = 1 + m/2r, area radius R = psi^2 r, reference mean curvature
    H0 = 2/R, physical mean curvature H = H0 (1 - m/(r psi)) and k = H0/H,
    E = (1/8pi) int_0^pi [(2/R - (2 cos/R) asinh(cot))
        - (H sin sqrt(1 + k^2 cot^2) - (2 cos/R) asinh(k cot))]
        2 pi R^2 sin dtheta.
    """
    psi = 1.0 + mass / (2.0 * radius)
    area_radius = psi**2 * radius
    h0 = 2.0 / area_radius
    h = h0 * (1.0 - mass / (radius * psi))
    k = h0 / h

    def integrand(theta):
        cos, sin = np.cos(theta), np.sin(theta)
        cot = cos / sin
        reference = h0 - h0 * cos * np.arcsinh(cot)
        physical = (h * sin * np.sqrt(1.0 + k * k * cot * cot)
                    - h0 * cos * np.arcsinh(k * cot))
        return (reference - physical) * 2.0 * np.pi * area_radius**2 * sin

    value, _ = quad(integrand, 0.0, np.pi, limit=200, epsabs=1e-13,
                    epsrel=1e-13)
    return value / (8.0 * np.pi)


# -- uniform expansion on the unit ball by a polar-grid solve ----------------


def polar_grid_solution(c=1.0, n_r=96, n_t=96, tol=1e-12, max_steps=200):
    """Axisymmetric fixed-point solve of Lap u = -3c |grad u| on the unit
    ball with u(1, theta) = cos(theta), on a cell-centred (r, theta) grid.

    The r = 0 neighbour of a first-ring cell is the cell at the same radius
    and angle pi - theta; the poles are reflecting; the boundary value
    enters through a ghost cell u_ghost = 2 cos(theta) - u.  Returns
    (r, theta, u) with u of shape (n_r, n_t).
    """
    hr, ht = 1.0 / n_r, np.pi / n_t
    r = (np.arange(n_r) + 0.5) * hr
    th = (np.arange(n_t) + 0.5) * ht
    i, j = np.meshgrid(np.arange(n_r), np.arange(n_t), indexing="ij")
    i, j = i.ravel(), j.ravel()
    ri = r[i]
    cot = np.cos(th[j]) / np.sin(th[j])
    c_rr = 1.0 / hr**2
    c_tt = 1.0 / (ri**2 * ht**2)
    c_out = c_rr + 1.0 / (ri * hr)
    c_in = c_rr - 1.0 / (ri * hr)
    c_up = c_tt + cot / (2.0 * ri**2 * ht)
    c_down = c_tt - cot / (2.0 * ri**2 * ht)
    k = i * n_t + j
    outer = i == n_r - 1
    inner = i == 0
    entries = [
        (k, k, -2.0 * c_rr - 2.0 * c_tt - np.where(outer, c_out, 0.0)),
        (k[~outer], k[~outer] + n_t, c_out[~outer]),
        (k[~inner], k[~inner] - n_t, c_in[~inner]),
        (k[inner], n_t - 1 - j[inner], c_in[inner]),
        (k, i * n_t + np.minimum(j + 1, n_t - 1), c_up),
        (k, i * n_t + np.maximum(j - 1, 0), c_down),
    ]
    rows = np.concatenate([e[0] for e in entries])
    cols = np.concatenate([e[1] for e in entries])
    vals = np.concatenate([e[2] for e in entries])
    n = n_r * n_t
    lu = splu(coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc())
    boundary = np.where(outer, 2.0 * np.cos(th[j]) * c_out, 0.0)

    cos_th = np.cos(th)
    u = np.zeros((n_r, n_t))
    for _ in range(max_steps):
        ghost = np.empty((n_r + 2, n_t + 2))
        ghost[1:-1, 1:-1] = u
        ghost[0, 1:-1] = u[0, ::-1]
        ghost[-1, 1:-1] = 2.0 * cos_th - u[-1]
        ghost[:, 0] = ghost[:, 1]
        ghost[:, -1] = ghost[:, -2]
        u_r = (ghost[2:, 1:-1] - ghost[:-2, 1:-1]) / (2.0 * hr)
        u_t = (ghost[1:-1, 2:] - ghost[1:-1, :-2]) / (2.0 * ht)
        rhs = -3.0 * c * np.sqrt(u_r**2 + (u_t / r[:, None])**2)
        new = lu.solve(rhs.ravel() - boundary).reshape(n_r, n_t)
        step = np.abs(new - u).max()
        u = new
        if step < tol:
            break
    return r, th, u


# -- per-workload checks ------------------------------------------------------


def _check(name, ok, detail):
    return (name, bool(ok), detail)


def check_mass_search(out, seed, target=-0.1, tolerance=0.005,
                      max_angle_deg=10.0):
    """Bowen-York data on a flat slice with P = 0.1 z: the mass is
    E_ADM - |P| = -0.1, attained at a = P/|P|."""
    spec = workloads.MASS_SEARCH
    expected = workloads.fibonacci_directions(
        spec["grid"], workloads.grid_rotation(seed))
    grid_a = out["grid_a"]
    energies = out["grid_E"]
    admissible = out["grid_admissible"] == "admissible"
    mass = float(out["mass"])
    argmin = out["argmin"]
    p_hat = np.asarray(spec["momentum"]) / np.linalg.norm(spec["momentum"])
    angle = np.degrees(np.arccos(np.clip(
        argmin @ p_hat / np.linalg.norm(argmin), -1.0, 1.0)))
    best_grid = energies[admissible].min() if admissible.any() else np.nan
    return [
        _check("grid is the seeded Fibonacci grid",
               grid_a.shape == expected.shape
               and np.allclose(grid_a, expected, rtol=0.0, atol=1e-12),
               f"{len(grid_a)} directions"),
        _check("every grid direction admissible", admissible.all(),
               f"{int(admissible.sum())} of {len(admissible)}"),
        _check("energies finite", np.isfinite(energies).all()
               and np.isfinite(mass), f"mass={mass:.6e}"),
        _check(f"argmin within {max_angle_deg} deg of P/|P|",
               angle <= max_angle_deg, f"{angle:.3f} deg"),
        _check("mass at most the smallest admissible grid energy",
               mass <= best_grid, f"{mass:.6e} vs {best_grid:.6e}"),
        _check(f"mass within {tolerance} of E_ADM - |P| = {target}",
               abs(mass - target) <= tolerance,
               f"|{mass:.6e} - {target}| = {abs(mass - target):.2e}"),
    ]


def check_asymptotics_ladder(out, seed, rel_tol=0.005, limit_tol=0.01,
                             adm_mass=1.0):
    spec = workloads.ASYMPTOTICS_LADDER
    expected = workloads.fibonacci_directions(
        spec["observers"], workloads.grid_rotation(seed))
    radii = out["radii"]
    energies = out["energies"]
    limits = out["E_inf"]
    results = [
        _check("observers are the seeded Fibonacci grid",
               out["a_list"].shape == expected.shape
               and np.array_equal(out["a_list"], expected),
               f"{len(out['a_list'])} directions"),
        _check("no radius dropped",
               np.array_equal(radii, np.asarray(spec["radii"], float)),
               f"radii {radii.tolist()}"),
    ]
    if not results[-1][1]:
        return results
    quadrature = np.array([schwarzschild_sphere_energy(r, spec["mass"])
                           for r in radii])
    rel = np.abs(energies - quadrature[None, :]) / quadrature[None, :]
    results += [
        _check(f"finite-radius energies within {rel_tol:.1%} of quadrature",
               np.isfinite(rel).all() and rel.max() <= rel_tol,
               f"max rel err {rel.max():.3e}"),
        _check(f"fitted E_inf within {limit_tol} of the ADM mass",
               np.isfinite(limits).all()
               and np.abs(limits - adm_mass).max() <= limit_tol,
               f"max |E_inf - {adm_mass}| = "
               f"{np.abs(limits - adm_mass).max():.3e}"),
    ]
    return results


def _maximum_principle(u, bvals, rel_tol=1e-10):
    rng = np.ptp(bvals)
    return (u.max() <= bvals.max() + rel_tol * rng
            and u.min() >= bvals.min() - rel_tol * rng)


def check_interior_identity(out, seed, oracle, linear_tol=1e-12,
                            oracle_tol=0.01, slack_tol=1e-6):
    """`oracle` is the (r, theta, u) triple of polar_grid_solution()."""
    a = workloads.observer_direction(seed)
    verts = out["ball_vertices"]
    bidx = out["ball_boundary"]
    u_lin = out["u_linear"]
    u_ue = out["u_uniform_expansion"]
    exact = verts @ a
    lin_err = float(np.abs(u_lin - exact).max())

    r_o, th_o, u_o = oracle
    vr = np.linalg.norm(verts, axis=1)
    vth = np.arccos(np.clip(verts[:, 2] / np.maximum(vr, 1e-300), -1, 1))
    sel = (vr > 0.1) & (vr < 0.9) & (vth > 0.2) & (vth < np.pi - 0.2)
    ref = RegularGridInterpolator((r_o, th_o), u_o)(
        np.column_stack([vr[sel], vth[sel]]))
    oracle_err = float(np.abs(u_ue[sel] - ref).max() / np.ptp(u_ue))

    s_verts = out["schw_vertices"]
    s_bvals = s_verts[out["schw_boundary"]] @ a
    slack, scale = float(out["slack"]), float(out["scale"])
    return [
        _check(f"linear data reproduced to {linear_tol:g}",
               lin_err <= linear_tol, f"max err {lin_err:.2e}"),
        _check("maximum principle (linear, uniform expansion, "
               "Schwarzschild)",
               _maximum_principle(u_lin, exact[bidx])
               and _maximum_principle(u_ue, verts[bidx, 2])
               and _maximum_principle(out["u_schw"], s_bvals),
               "to 1e-10 of the boundary range"),
        _check(f"uniform expansion within {oracle_tol:.0%} of the polar "
               "grid solution", oracle_err <= oracle_tol,
               f"max err {oracle_err:.3%} of range at {int(sel.sum())} "
               "vertices"),
        _check(f"Schwarzschild identity slack >= -{slack_tol:g} scale",
               np.isfinite(slack) and slack >= -slack_tol * scale,
               f"slack={slack:.3e} scale={scale:.3e}"),
    ]
