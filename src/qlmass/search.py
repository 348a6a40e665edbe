"""Observer-infimum search and the large-sphere asymptotics driver.

mass_infimum minimizes the energy over a deterministic direction grid on
the observer sphere, filters by the fill-in admissibility verdict, and
polishes the best feasible point with a local Nelder-Mead search in
tangent coordinates.  asymptotics_driver tabulates energies of coordinate
spheres over a radius ladder and fits the large-radius limit against the
asymptotic energy and momentum surface integrals.
"""

import csv
import json
import warnings

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit, minimize

from .embedding import EmbeddingError, align_embedding, embed_metric
from .energy import EnergyError, SurfaceData, energy, make_observer
from .initialdata import (
    InitialDataError,
    adm_integrals,
    extract_boundary_data,
    fibonacci_directions,
)
from .volume import admissibility_verdict


class SearchError(RuntimeError):
    pass


class MassReport:
    """Best-found energy over the admissible observers.

    Attributes
    ----------
    mass_value : minimum energy over admissible grid points and the
        local refinement iterates.
    energy_spread : max minus min of the energy over the grid points not
        found inadmissible; how far apart the candidates for mass_value are.
    argmin_a : observer direction attaining mass_value.
    energy_grid : list of {a, E, admissible} rows in grid order.
    refinement_trace : list of {a, E} local-search iterates.
    """

    def __init__(self, mass_value, energy_spread, argmin_a, energy_grid,
                 refinement_trace, notes=None, context=None):
        self.mass_value = float(mass_value)
        self.energy_spread = float(energy_spread)
        self.argmin_a = np.asarray(argmin_a, dtype=float)
        self.energy_grid = energy_grid
        self.refinement_trace = refinement_trace
        self.notes = notes or []
        self.context = context or {}

    def to_dict(self):
        return {
            "massValue": self.mass_value,
            "energySpread": self.energy_spread,
            "argminA": self.argmin_a.tolist(),
            "energyGrid": [
                {"a": list(map(float, row["a"])), "E": float(row["E"]),
                 "admissible": row["admissible"]}
                for row in self.energy_grid
            ],
            "refinementTrace": [
                {"a": list(map(float, it["a"])), "E": float(it["E"])}
                for it in self.refinement_trace
            ],
            "notes": self.notes,
            "context": self.context,
        }


def _tangent_basis(a):
    pick = np.argmin(np.abs(a))
    t1 = np.zeros(3)
    t1[pick] = 1.0
    t1 -= a * a[pick]
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(a, t1)


def mass_infimum(ref_sd, phys_sd, emb, fill_in=None, grid_n=256,
                 refine_iters=50, grid_rotation=0.0,
                 admissibility_levels=16, context=None):
    """Minimum energy over admissible observer directions.

    Evaluates the energy on a Fibonacci direction grid, filters by the
    per-direction admissibility verdict when a fill-in is supplied, then
    refines around the best feasible direction by Nelder-Mead in local
    tangent coordinates (renormalizing the direction at every iterate).
    Deterministic for fixed arguments.  Raises SearchError with
    per-point diagnostics when no grid direction is admissible.
    """
    dirs = fibonacci_directions(grid_n, rotation=grid_rotation)
    rows = []
    for a in dirs:
        obs = make_observer(emb, a)
        rep = energy(ref_sd, phys_sd, obs)
        verdict = admissibility_verdict(
            fill_in, obs, n_levels=admissibility_levels
        )["verdict"]
        rows.append({"a": a, "E": rep.E, "admissible": verdict})

    feasible = [r for r in rows if r["admissible"] != "not admissible"]
    if not feasible:
        diag = [
            {"a": r["a"].tolist(), "E": r["E"], "verdict": r["admissible"]}
            for r in rows
        ]
        raise SearchError(
            "no admissible observer direction on the grid; "
            f"per-point diagnostics: {json.dumps(diag)}"
        )
    best = min(feasible, key=lambda r: (r["E"], tuple(r["a"])))
    a0 = best["a"]
    t1, t2 = _tangent_basis(a0)

    trace = []

    def direction(v):
        theta = float(np.hypot(v[0], v[1]))
        if theta < 1e-14:
            return a0
        tang = (v[0] * t1 + v[1] * t2) / theta
        return np.cos(theta) * a0 + np.sin(theta) * tang

    def objective(v):
        a = direction(v)
        rep = energy(ref_sd, phys_sd, make_observer(emb, a))
        trace.append({"a": a, "E": rep.E})
        return rep.E

    notes = []
    if refine_iters > 0:
        h = 2.0 / np.sqrt(grid_n)  # grid spacing in radians
        simplex = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
        minimize(objective, np.zeros(2), method="Nelder-Mead",
                 options={"maxiter": refine_iters, "xatol": 1e-10,
                          "fatol": 1e-14, "initial_simplex": simplex})

    mass_value, argmin = best["E"], a0
    if trace:
        refined = min(trace, key=lambda it: it["E"])
        if refined["E"] < mass_value:
            verdict = admissibility_verdict(
                fill_in, make_observer(emb, refined["a"]),
                n_levels=admissibility_levels,
            )["verdict"]
            if verdict == "not admissible":
                notes.append(
                    "refined direction rejected as not admissible; "
                    "grid minimum reported"
                )
            else:
                mass_value, argmin = refined["E"], refined["a"]
    spread = max(r["E"] for r in feasible) - min(r["E"] for r in feasible)
    return MassReport(mass_value, spread, argmin, rows, trace, notes=notes,
                      context=context)


# -- asymptotics -----------------------------------------------------------

def _fit_power(radii, values):
    """Fit E(r) = E_inf + c r^(-p) with p in [0.5, 2]; Richardson
    extrapolation across the last three radii as fallback."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(radii) < 3:
        return {"E_inf": float(values[-1]), "c": 0.0, "p": None,
                "method": "lastValue"}

    def model(r, e_inf, c, p):
        return e_inf + c * r ** (-p)

    try:
        p0 = [values[-1], (values[0] - values[-1]) * radii[0], 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            coefs, _ = curve_fit(
                model, radii, values, p0=p0,
                bounds=([-np.inf, -np.inf, 0.5], [np.inf, np.inf, 2.0]),
                maxfev=20000,
            )
        fitted = model(radii, *coefs)
        scale = max(np.ptp(values), 1e-30)
        if np.abs(fitted - values).max() < 0.5 * scale:
            return {"E_inf": float(coefs[0]), "c": float(coefs[1]),
                    "p": float(coefs[2]), "method": "powerLaw"}
    except (RuntimeError, ValueError):
        pass

    # Richardson step on the last three entries (radii need not double)
    r1, r2, r3 = radii[-3:]
    e1, e2, e3 = values[-3:]
    rho = r3 / r2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (e1 - e2) / (e2 - e3)
    if not np.isfinite(ratio) or ratio <= 0.0:
        return {"E_inf": float(e3), "c": 0.0, "p": None,
                "method": "lastValue"}
    p = float(np.clip(np.log(ratio) / np.log(r2 / r1), 0.5, 2.0))
    e_inf = e3 + (e3 - e2) / (rho ** p - 1.0)
    return {"E_inf": float(e_inf), "c": float((e3 - e_inf) * r3 ** p),
            "p": p, "method": "richardson"}


class AsymptoticsReport:
    """Energies of coordinate spheres over a radius ladder with the
    fitted large-radius limit per observer direction.

    energies[i][j] is the energy for a_list[i] at radii[j]; fits[i]
    holds E_inf, c, p; adm_target[i] is the asymptotic surface-integral
    prediction (energy integral minus the direction-momentum pairing).
    """

    def __init__(self, radii, a_list, energies, fits, adm_target,
                 adm_report, notices, context=None):
        self.radii = list(map(float, radii))
        self.a_list = [np.asarray(a, dtype=float) for a in a_list]
        self.energies = energies
        self.fits = fits
        self.adm_target = adm_target
        self.adm_report = adm_report
        self.notices = notices
        self.context = context or {}

    def to_dict(self):
        return {
            "radii": self.radii,
            "aList": [a.tolist() for a in self.a_list],
            "energies": [[float(e) for e in row] for row in self.energies],
            "fits": self.fits,
            "admTarget": list(map(float, self.adm_target)),
            "admIntegrals": self.adm_report,
            "notices": self.notices,
            "context": self.context,
        }


def asymptotics_driver(data, a_list, radii, mesh_level=3, degree=16,
                       tol=1e-10, max_iterations=200, context=None):
    """Energy of coordinate spheres per observer direction and radius,
    with the fitted limit E(r) = E_inf + c r^(-p).

    Radii where extraction or embedding fails are dropped with a notice.
    The fitted limits are reported next to the asymptotic integrals'
    prediction for each direction.
    """
    a_list = [np.asarray(a, dtype=float) for a in a_list]
    notices = []
    used_radii = []
    columns = []
    for r in sorted(radii):
        try:
            bd = extract_boundary_data(data, r, level=mesh_level)
            emb = embed_metric(bd.geom.mesh, bd.geom.metric, degree=degree,
                               tol=tol, max_iterations=max_iterations)
            emb = align_embedding(emb, bd.positions)
            ref_sd = SurfaceData.from_embedding(emb)
            phys_sd = SurfaceData.from_boundary(bd)
            col = [energy(ref_sd, phys_sd, make_observer(emb, a)).E
                   for a in a_list]
        except (InitialDataError, EmbeddingError, EnergyError) as exc:
            notices.append(f"radius {r} dropped: {exc}")
            continue
        used_radii.append(r)
        columns.append(col)
    if not used_radii:
        raise SearchError("all radii failed; " + "; ".join(notices))

    energies = [[columns[j][i] for j in range(len(used_radii))]
                for i in range(len(a_list))]
    fits = [_fit_power(used_radii, row) for row in energies]
    adm = adm_integrals(data, used_radii)
    target = [adm["E"] - float(a @ np.asarray(adm["P"])) for a in a_list]
    return AsymptoticsReport(used_radii, a_list, energies, fits, target,
                             adm, notices, context=context)


# -- CSV emission ----------------------------------------------------------

def write_mass_grid_csv(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_x", "a_y", "a_z", "E", "admissible"])
        for row in report.energy_grid:
            a = row["a"]
            writer.writerow([repr(float(a[0])), repr(float(a[1])),
                             repr(float(a[2])), repr(float(row["E"])),
                             row["admissible"]])


def write_asymptotics_csv(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "a_x", "a_y", "a_z", "E",
                         "E_inf", "c", "p", "admTarget"])
        for i, a in enumerate(report.a_list):
            fit = report.fits[i]
            for j, r in enumerate(report.radii):
                writer.writerow([
                    repr(float(r)),
                    repr(float(a[0])), repr(float(a[1])), repr(float(a[2])),
                    repr(float(report.energies[i][j])),
                    repr(float(fit["E_inf"])), repr(float(fit["c"])),
                    "" if fit["p"] is None else repr(float(fit["p"])),
                    repr(float(report.adm_target[i])),
                ])
