"""Observer-infimum search and the large-sphere asymptotics driver.

mass_infimum minimizes the energy over a deterministic direction grid on
the observer sphere, filters by the admissibility verdict, and polishes
the best feasible point with a local Nelder-Mead search in tangent
coordinates.  asymptotics_driver tabulates energies of coordinate
spheres over a radius ladder, fits E_inf + c / r + d / r^2 to each row by
linear least squares and sets the limit against the asymptotic energy and
momentum surface integrals.  Both take all the energies of one surface
from one `ObserverKernel` call.
"""

import csv
import json

import numpy as np

from .embedding import EmbeddingError, align_embedding, embed_metric
from .energy import EnergyError, ObserverKernel, SurfaceData, unit_rows
from .initialdata import (
    InitialDataError,
    adm_integrals,
    extract_boundary_data,
    fibonacci_directions,
    growing_differences,
    radius_fit,
)
from .config import TOPOLOGY_LEVELS, InputError
from .volume import admissibility_table, star_shaped_surface, verdict_of


class SearchError(RuntimeError, InputError):
    pass


class MassReport:
    """Best-found energy over the admissible observers.

    Attributes
    ----------
    mass_value : minimum energy over admissible grid points and the
        local refinement iterates.
    energy_spread : max minus min of the energy over the admissible grid
        points; how far apart the candidates for mass_value are.
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


def _nelder_mead(func, simplex, maxiter, xatol, fatol):
    """Minimize `func` from the (N+1, N) `simplex` by Nelder-Mead with
    reflection 1, expansion 2, contraction 1/2 and shrink 1/2; returns the
    best vertex and its value.

    The loop is that of scipy 1.17's `minimize(method="Nelder-Mead")` with
    an initial simplex: the vertices are re-sorted by np.argsort after
    every step, the search stops when every vertex lies within `xatol` of
    the best in each coordinate and every value within `fatol` of the
    best, and the evaluation of the start counts as iteration 1 of
    `maxiter`, so both make the same calls of `func` in the same order.
    """
    sim = np.array(simplex, dtype=float)
    fsim = np.array([func(x) for x in sim])
    for _ in range(maxiter - 1):
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        if (np.abs(sim[1:] - sim[0]).max() <= xatol
                and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
            break
        xbar = sim[:-1].sum(axis=0) / (len(sim) - 1)
        xr = 2.0 * xbar - sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = 3.0 * xbar - 2.0 * sim[-1]
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # outside contraction when the reflection improved on the
            # worst vertex, inside contraction otherwise; shrink when it
            # does not help
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = func(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = func(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, len(sim)):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
    best = np.argmin(fsim)
    return sim[best], fsim[best]


def mass_infimum(ref_sd, phys_sd, emb, fill_in=None, grid_n=256,
                 refine_iters=50, grid_rotation=0.0,
                 admissibility_levels=TOPOLOGY_LEVELS, context=None):
    """Minimum energy over admissible observer directions.

    Evaluates the energy on a Fibonacci direction grid, filters by the
    per-direction admissibility verdict, then refines around the best
    feasible direction by Nelder-Mead in local tangent coordinates
    (renormalizing the direction at every iterate), each iterate a
    one-direction call of the grid's `ObserverKernel`.  The verdicts are
    the `verdict_of` the `admissibility_table` of a block of directions,
    on the fill-in or, without one, on the embedded surface, which must
    then be star-shaped about its centroid as `build_fill_in` requires.
    Deterministic for fixed arguments.  Raises SearchError with per-point
    diagnostics when no grid direction is admissible.  A note says when
    the spread of the admissible grid energies is at most 1e-12 of the
    largest side term: then argmin_a is undetermined.
    """
    surface = (star_shaped_surface(emb.positions, emb.mesh)
               if fill_in is None else None)

    def verdicts(dirs):
        a = unit_rows(dirs)
        return [verdict_of(table) for i in range(0, len(a), kernel.block)
                for table in admissibility_table(
                    a[i:i + kernel.block], fill_in, surface,
                    n_levels=admissibility_levels)[1]]

    kernel = ObserverKernel(emb.positions, [ref_sd, phys_sd])
    dirs = fibonacci_directions(grid_n, rotation=grid_rotation)
    energies, terms = kernel.energies(dirs)
    largest_term = float(np.abs(terms).max())
    rows = [{"a": a, "E": float(e), "admissible": v}
            for a, e, v in zip(dirs, energies, verdicts(dirs))]

    feasible = [r for r in rows if r["admissible"] == "admissible"]
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
        e = float(kernel.energies(a[None])[0][0])
        trace.append({"a": a, "E": e})
        return e

    notes = []
    if refine_iters > 0:
        h = 2.0 / np.sqrt(grid_n)  # grid spacing in radians
        simplex = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
        _nelder_mead(objective, simplex, refine_iters, xatol=1e-10,
                     fatol=1e-14)

    mass_value, argmin = best["E"], a0
    if trace:
        refined = min(trace, key=lambda it: it["E"])
        if refined["E"] < mass_value:
            if verdicts(refined["a"][None]) == ["not admissible"]:
                notes.append(
                    "refined direction rejected as not admissible; "
                    "grid minimum reported"
                )
            else:
                mass_value, argmin = refined["E"], refined["a"]
    spread = max(r["E"] for r in feasible) - min(r["E"] for r in feasible)
    if spread <= 1e-12 * largest_term:
        notes.append(f"the admissible grid energies agree to rounding "
                     f"(spread {spread:.2e}, largest side term "
                     f"{largest_term:.6g}): the energy does not determine "
                     f"argminA")
    return MassReport(mass_value, spread, argmin, rows, trace, notes=notes,
                      context=context)


# -- asymptotics -----------------------------------------------------------

class AsymptoticsReport:
    """Energies of coordinate spheres over a radius ladder with the
    fitted large-radius limit per observer direction.

    energies[i][j] is the energy for a_list[i] at radii[j]; fits[i]
    holds E_inf, c, d of `radius_fit`; adm_target[i] is the asymptotic
    surface-integral prediction (energy integral minus the
    direction-momentum pairing).
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
    with the fitted limit E(r) = E_inf + c / r + d / r^2 of `radius_fit`.

    Radii where extraction or embedding fails are dropped with a notice;
    a repeated radius raises SearchError, and a notice names the rows
    whose energies have `growing_differences`.  The fitted limits are
    reported next to the asymptotic integrals' prediction per direction.
    """
    if len(set(radii)) < len(radii):
        raise SearchError(f"repeated radius in {list(radii)}")
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
            sides = [SurfaceData.from_embedding(emb),
                     SurfaceData.from_boundary(bd)]
            col = ObserverKernel(emb.positions, sides).energies(
                np.array(a_list))[0].tolist()
        except (InitialDataError, EmbeddingError, EnergyError) as exc:
            notices.append(f"radius {r} dropped: {exc}")
            continue
        used_radii.append(r)
        columns.append(col)
    if not used_radii:
        raise SearchError("all radii failed; " + "; ".join(notices))

    energies = [[columns[j][i] for j in range(len(used_radii))]
                for i in range(len(a_list))]
    growing = [i for i, row in enumerate(energies)
               if growing_differences(row)]
    if growing:
        notices.append(
            f"energy differences between successive radii grow for "
            f"observer rows {growing}: there is no limit in 1/r to fit")
    fits = [radius_fit(used_radii, row) for row in energies]
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
                         "E_inf", "c", "d", "admTarget"])
        for i, a in enumerate(report.a_list):
            fit = report.fits[i]
            for j, r in enumerate(report.radii):
                writer.writerow([
                    repr(float(r)),
                    repr(float(a[0])), repr(float(a[1])), repr(float(a[2])),
                    repr(float(report.energies[i][j])),
                    *("" if fit[key] is None else repr(fit[key])
                      for key in ("E_inf", "c", "d")),
                    repr(float(report.adm_target[i])),
                ])
