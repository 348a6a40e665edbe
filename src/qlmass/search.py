"""Observer-infimum search and the large-sphere asymptotics driver.

mass_infimum minimizes the energy over a deterministic direction grid on
the observer sphere, filters by the admissibility verdict, and polishes
the best feasible point with a local model-based search in tangent
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
        directions the local polish evaluated.
    energy_spread : max minus min of the energy over the admissible grid
        points; how far apart the candidates for mass_value are.
    argmin_a : observer direction attaining mass_value.
    energy_grid : list of {a, E, admissible} rows in grid order.
    refinement_trace : list of {a, E}, every direction the local polish
        evaluated, in call order (six per round).
    """

    def __init__(self, mass_value, energy_spread, argmin_a, energy_grid,
                 refinement_trace, notes=None):
        self.mass_value = float(mass_value)
        self.energy_spread = float(energy_spread)
        self.argmin_a = np.asarray(argmin_a, dtype=float)
        self.energy_grid = energy_grid
        self.refinement_trace = refinement_trace
        self.notes = notes or []

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
        }


def _tangent_basis(a):
    pick = np.argmin(np.abs(a))
    t1 = np.zeros(3)
    t1[pick] = 1.0
    t1 -= a * a[pick]
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(a, t1)


# the polish stencil in units of h: centre, +-h along both axes, diagonal
_STENCIL = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                    dtype=float)


def _polish(func, h, rounds, xatol=1e-10, fatol=1e-14, h_min=1e-3):
    """Minimize `func`, which maps k points (k, 2) to their values (k,),
    from the origin with a first stencil of size h; returns the last
    centre and its value, never above the origin's.

    Each round evaluates the `_STENCIL` about the centre in one call of
    `func` and fits the quadratic through its six values.  When the
    model's Hessian is positive definite the centre takes its Newton step,
    clipped to 2h, and h becomes the step's length within [h_min, h] (a
    smaller stencil would difference rounding); otherwise the centre moves
    to the best stencil point, and h shrinks fourfold when that is the
    centre.  A centre above the one before sends the next round back there
    with a quarter of its h.  The search stops after a step of at most
    `xatol`, one round after a model that promised at most `fatol` (its
    Newton decrease, or the spread of the six values), or after `rounds`
    rounds.
    """
    x, fx, hx = np.zeros(2), np.inf, h  # the last centre not uphill
    centre, done = x, False
    for _ in range(rounds):
        f = func(centre + h * _STENCIL)
        if f[0] > fx:
            hx /= 4.0
            centre, h = x, hx
            continue
        x, fx, hx = centre, f[0], h
        if done:
            break
        g = np.array([f[1] - f[2], f[3] - f[4]]) / 2.0
        cross = f[5] - f[1] - f[3] + f[0]
        hess = np.array([[f[1] + f[2] - 2.0 * f[0], cross],
                         [cross, f[3] + f[4] - 2.0 * f[0]]])
        newton = hess[0, 0] > 0.0 and np.linalg.det(hess) > 0.0
        if newton:
            step = np.linalg.solve(hess, -g)
            step *= 2.0 / max(2.0, np.hypot(*step))
            gain = -(g @ step + step @ hess @ step / 2.0)
        else:
            step, gain = _STENCIL[np.argmin(f)], np.ptp(f)
        length = h * np.hypot(*step)
        centre = x + h * step
        if length == 0.0:
            h /= 4.0
        elif newton:
            h = min(h, max(length, h_min))
        done = gain <= fatol
        if 0.0 < length <= xatol:
            break
    return x, fx


def mass_infimum(ref_sd, phys_sd, emb, fill_in=None, grid_n=256,
                 refine_iters=50, grid_rotation=0.0,
                 admissibility_levels=TOPOLOGY_LEVELS):
    """Minimum energy over admissible observer directions.

    Evaluates the energy on a Fibonacci direction grid, filters by the
    per-direction admissibility verdict, then polishes around the best
    feasible direction in local tangent coordinates (exponential map,
    first stencil the grid spacing): at most `refine_iters` rounds of
    `_polish`, each six directions in one call of the grid's
    `ObserverKernel`.  The verdicts are the `verdict_of` the
    `admissibility_table` of a block of directions, on the fill-in or,
    without one, on the embedded surface, which must then be star-shaped
    about its centroid as `build_fill_in` requires.
    Deterministic for fixed arguments.  Raises SearchError with per-point
    diagnostics when no grid direction is admissible.  A note says when
    two or more admissible grid energies spread by at most 1e-12 of the
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

    def objective(v):
        theta = np.hypot(v[:, 0], v[:, 1])
        sinc = np.divide(np.sin(theta), theta, out=np.ones_like(theta),
                         where=theta > 0.0)
        a = (np.cos(theta)[:, None] * a0
             + sinc[:, None] * (v[:, :1] * t1 + v[:, 1:] * t2))
        e = kernel.energies(a)[0]
        trace.extend({"a": ai, "E": float(ei)} for ai, ei in zip(a, e))
        return e

    notes = []
    _polish(objective, 2.0 / np.sqrt(grid_n), refine_iters)  # grid spacing

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
    if len(feasible) > 1 and spread <= 1e-12 * largest_term:
        notes.append(f"the admissible grid energies agree to rounding "
                     f"(spread {spread:.2e}, largest side term "
                     f"{largest_term:.6g}): the energy does not determine "
                     f"argminA")
    return MassReport(mass_value, spread, argmin, rows, trace, notes=notes)


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
                 adm_report, notices):
        self.radii = list(map(float, radii))
        self.a_list = [np.asarray(a, dtype=float) for a in a_list]
        self.energies = energies
        self.fits = fits
        self.adm_target = adm_target
        self.adm_report = adm_report
        self.notices = notices

    def to_dict(self):
        return {
            "radii": self.radii,
            "aList": [a.tolist() for a in self.a_list],
            "energies": [[float(e) for e in row] for row in self.energies],
            "fits": self.fits,
            "admTarget": list(map(float, self.adm_target)),
            "admIntegrals": self.adm_report,
            "notices": self.notices,
        }


def asymptotics_driver(data, a_list, radii, mesh_level=3, degree=16,
                       tol=1e-10, max_iterations=200):
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
                             adm, notices)


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
