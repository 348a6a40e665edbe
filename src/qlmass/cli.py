"""Command line interface: experiment orchestration with reproducible
configs, manifests, and plot-ready CSV outputs.

Exit codes: 0 on success; 2 on a `config.InputError`, the base of every
error bad input causes (config, unreadable input file or output.dir,
non-spacelike mean curvature, empty feasible set), on a non-admissible
verdict and on a negative identity slack; 1 on internal errors.
"""

import os
import time

# the imports below count toward the run time in the manifest, and so does
# the import of the numerical layers when a command runs
_IMPORTS_STARTED = time.perf_counter()

# one BLAS thread unless QLM_THREADS or a *_NUM_THREADS variable asks for
# more: the dense solves are small and gain nothing from a second thread
_threads = os.environ.get("QLM_THREADS", "1")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import json
import sys
from pathlib import Path

import click
import numpy as np

from .config import (
    SCHEMA,
    ConfigError,
    InputError,
    RunManifest,
    _parse_value,
    default_config,
    observer_vector,
    parse_config,
    read_config,
    serialize_config,
)

_IMPORT_SECONDS = time.perf_counter() - _IMPORTS_STARTED


_FLAGS = [
    ("--provider", "provider", "initial data provider"),
    ("--mass", "provider.mass", "schwarzschild mass parameter"),
    ("--momentum", "provider.momentum", "bowen_york momentum x,y,z"),
    ("--boundary-file", "provider.boundary_file",
     "boundary fields file for provider=file"),
    ("--radius", "radius", "coordinate sphere radius"),
    ("--radii", "radii", "comma separated radius ladder"),
    ("--level", "mesh.level", "icosphere refinement level"),
    ("--a", "observer.a", "observer direction x,y,z"),
    ("--grid", "observers.grid", "mass-search grid size"),
    ("--seed", "seed", "seed for grid rotation"),
    ("--out", "output.dir", "output directory"),
]


_FLAG_KEYS = {"flag_" + key.replace(".", "_"): key for _, key, _ in _FLAGS}


def _with_flags(fn):
    fn = click.option("--config", "config_path",
                      type=click.Path(), default=None,
                      help="config file (key = value lines)")(fn)
    for flag, key, help_text in _FLAGS:
        fn = click.option(flag, "flag_" + key.replace(".", "_"),
                          default=None,
                          help=f"{help_text} (overrides config)")(fn)
    return fn


def _build_config(kwargs):
    """Config file (or defaults) with the given flags applied."""
    path = kwargs["config_path"]
    cfg = read_config(path) if path else default_config()
    for name, key in _FLAG_KEYS.items():
        if kwargs[name] is not None:
            cfg[key] = _parse_value(key, SCHEMA[key][0], str(kwargs[name]),
                                    "<flag>")
    return cfg


def _grid_rotation(cfg):
    return float(np.random.default_rng(cfg["seed"]).uniform(0.0,
                                                            2.0 * np.pi))


def _provider(cfg):
    from .initialdata import BowenYorkData, FlatData, SchwarzschildData

    name = cfg["provider"]
    if name == "flat":
        return FlatData()
    if name == "schwarzschild":
        return SchwarzschildData(cfg["provider.mass"])
    if name == "bowen_york":
        return BowenYorkData(np.asarray(cfg["provider.momentum"]))
    if name == "file":
        return None
    raise ConfigError(f"unknown provider {name!r}")


def _boundary(cfg):
    from .initialdata import (
        FlatData,
        extract_boundary_data,
        read_boundary_fields,
    )

    radius = cfg["radius"]
    level = cfg["mesh.level"]
    data = _provider(cfg)
    if data is None:
        # file fields live on the round coordinate sphere of the radius
        round_geom = extract_boundary_data(FlatData(), radius,
                                           level=level).geom
        return _read_input(cfg, "provider.boundary_file",
                           read_boundary_fields, round_geom, radius=radius)
    return extract_boundary_data(data, radius, level=level)


def _surface(cfg):
    from .embedding import align_embedding, embed_metric

    bd = _boundary(cfg)
    emb = embed_metric(bd.geom.mesh, bd.geom.metric,
                       degree=cfg["embedding.degree"],
                       tol=cfg["embedding.tol"],
                       max_iterations=cfg["embedding.max_iterations"])
    return bd, align_embedding(emb, bd.positions)


def _resolution_context(cfg):
    return {
        "meshLevel": cfg["mesh.level"],
        "embeddingDegree": cfg["embedding.degree"],
        "embeddingTol": cfg["embedding.tol"],
        "harmonicTol": cfg["harmonic.tol"],
        "topologyLevels": cfg["topology.levels"],
    }


def _write_json(manifest, path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
        fh.write("\n")
    manifest.add_output(path)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _read_input(cfg, key, reader, *args, **kwargs):
    """reader(path, ...) of the file that config key `key` names; a file
    that is missing or not UTF-8 text is a ConfigError naming both."""
    path = cfg[key]
    try:
        return reader(path, *args, **kwargs)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{key} not found or unreadable: {path!r}: "
                          f"{reason}") from None


def _fill_in(cfg, manifest):
    """The fill-in of `volume.mesh_file`, step `fillIn`; None without."""
    from .volume import read_volume_mesh

    if not cfg["volume.mesh_file"]:
        return None
    fill = _read_input(cfg, "volume.mesh_file", read_volume_mesh)
    manifest.record("fillIn")
    return fill


def _execute(command, kwargs, body):
    started = time.perf_counter()
    from . import search  # noqa: F401 (imports every numerical layer)
    import_seconds = _IMPORT_SECONDS + time.perf_counter() - started
    try:
        cfg = _build_config(kwargs)
        outdir = Path(cfg["output.dir"])
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output.dir: {exc}") from None
        manifest = RunManifest(command, cfg, import_seconds=import_seconds)
        code = body(cfg, outdir, manifest) or 0
        manifest.write(outdir / "manifest.json")
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:  # internal
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)
    sys.exit(code)


@click.group()
def main():
    """Quasi-local energy and mass workbench."""


@main.command("print-config")
def print_config():
    """Print the default config with documentation comments."""
    click.echo(serialize_config(default_config()), nl=False)


@main.command()
@_with_flags
def embed(**kwargs):
    """Solve the isometric embedding of the extracted boundary metric."""
    def body(cfg, outdir, manifest):
        from .embedding import write_embedding

        _, emb = _surface(cfg)
        manifest.record("extractAndEmbed")
        write_embedding(outdir / "embedding.txt", emb)
        manifest.add_output(outdir / "embedding.txt")
        payload = {
            "defectL2": emb.defect_l2,
            "defectMax": emb.defect_max,
            "iterations": emb.iterations,
            "radius": cfg["radius"],
            "resolution": _resolution_context(cfg),
        }
        _write_json(manifest, outdir / "embed.json", payload)
        click.echo(f"defectL2={emb.defect_l2:.3e} "
                   f"iterations={emb.iterations}")

    _execute("embed", kwargs, body)


@main.command("energy")
@_with_flags
def energy_cmd(**kwargs):
    """Quasi-local energy of one observer direction."""
    def body(cfg, outdir, manifest):
        from .energy import SurfaceData, energy, make_observer

        bd, emb = _surface(cfg)
        manifest.record("extractAndEmbed")
        obs = make_observer(emb, observer_vector(cfg))
        rep = energy(SurfaceData.from_embedding(emb),
                     SurfaceData.from_boundary(bd), obs,
                     mode=cfg["energy.mode"],
                     context=_resolution_context(cfg))
        manifest.record("energy")
        _write_json(manifest, outdir / "energy.json", rep.to_dict())
        click.echo(f"E={rep.E:.10e}")

    _execute("energy", kwargs, body)


@main.command()
@_with_flags
def mass(**kwargs):
    """Energy infimum over admissible observer directions."""
    def body(cfg, outdir, manifest):
        from .energy import SurfaceData
        from .search import mass_infimum, write_mass_grid_csv

        bd, emb = _surface(cfg)
        manifest.record("extractAndEmbed")
        # without a mesh file the verdict needs only the embedded surface
        fill = _fill_in(cfg, manifest)
        report = mass_infimum(
            SurfaceData.from_embedding(emb),
            SurfaceData.from_boundary(bd), emb, fill_in=fill,
            grid_n=cfg["observers.grid"],
            refine_iters=cfg["observers.refine_iters"],
            grid_rotation=_grid_rotation(cfg),
            admissibility_levels=cfg["topology.levels"],
            context=_resolution_context(cfg),
        )
        manifest.record("massSearch")
        write_mass_grid_csv(outdir / "mass_grid.csv", report)
        manifest.add_output(outdir / "mass_grid.csv")
        _write_json(manifest, outdir / "mass.json", report.to_dict())
        for note in report.notes:
            click.echo(f"note: {note}")
        click.echo(f"mass={report.mass_value:.10e} "
                   f"argmin={report.argmin_a.tolist()}")

    _execute("mass", kwargs, body)


@main.command()
@_with_flags
def asymptotics(**kwargs):
    """Energies over a radius ladder with the fitted large-radius limit."""
    def body(cfg, outdir, manifest):
        from .initialdata import fibonacci_directions
        from .search import asymptotics_driver, write_asymptotics_csv

        data = _provider(cfg)
        if data is None:
            raise ConfigError(
                "asymptotics needs an analytic provider, not files"
            )
        a_list = list(fibonacci_directions(cfg["asymptotics.observers"],
                                           rotation=_grid_rotation(cfg)))
        report = asymptotics_driver(
            data, a_list, list(cfg["radii"]),
            mesh_level=cfg["mesh.level"],
            degree=cfg["embedding.degree"], tol=cfg["embedding.tol"],
            max_iterations=cfg["embedding.max_iterations"],
            context=_resolution_context(cfg),
        )
        manifest.record("asymptotics")
        write_asymptotics_csv(outdir / "asymptotics.csv", report)
        manifest.add_output(outdir / "asymptotics.csv")
        _write_json(manifest, outdir / "asymptotics.json", report.to_dict())
        for notice in report.notices:
            click.echo(f"notice: {notice}")
        limits = [fit["E_inf"] for fit in report.fits]
        click.echo(f"E_inf={np.mean(limits):.6f} "
                   f"(spread {np.ptp(limits):.2e})")

    _execute("asymptotics", kwargs, body)


@main.command()
@_with_flags
def admissibility(**kwargs):
    """Level-set topology verdict for one observer direction."""
    def body(cfg, outdir, manifest):
        from .energy import unit_rows
        from .volume import (
            admissibility_table,
            star_shaped_surface,
            verdict_of,
        )

        # a mesh file decides alone; else the embedded surface's sections do
        fill = _fill_in(cfg, manifest)
        surface = None
        if fill is None:
            _, emb = _surface(cfg)
            manifest.record("extractAndEmbed")
            surface = star_shaped_surface(emb.positions, emb.mesh)
        a = unit_rows(observer_vector(cfg))[0]  # the bits of make_observer
        route, table = admissibility_table(a, fill, surface,
                                           n_levels=cfg["topology.levels"])
        verdict = verdict_of(table)
        levels = [
            {"s": float(s), "chi": int(c), "n": int(nb),
             "components": int(nc)}
            for s, c, nb, nc in zip(table.levels, table.chi,
                                    table.boundary_components,
                                    table.n_components)
        ]
        if route == "boundary":
            for row, area in zip(levels, table.smallest_loop_area):
                row["smallestLoopArea"] = float(area)
        manifest.record("topology")
        payload = {"verdict": verdict, "route": route, "levels": levels,
                   "resolution": _resolution_context(cfg)}
        _write_json(manifest, outdir / "admissibility.json", payload)
        click.echo(f"verdict={verdict}")
        return 0 if verdict == "admissible" else 2

    _execute("admissibility", kwargs, body)


@main.command("verify-identity")
@_with_flags
def verify_identity(**kwargs):
    """Integral identity terms for the interior spacetime-harmonic
    extension of the observer function."""
    def body(cfg, outdir, manifest):
        from .energy import make_observer
        from .volume import (
            build_fill_in,
            integral_identity_check,
            require_on_sphere,
            solve_spacetime_harmonic,
        )

        data = _provider(cfg)
        if data is None:
            raise ConfigError(
                "verify-identity needs an analytic provider, not files"
            )
        a = observer_vector(cfg)
        fill = _fill_in(cfg, manifest)
        if fill is not None:
            bvals = fill.vertices[fill.boundary_vertices] @ a
        else:
            # the data live on the coordinate ball, whose boundary is the
            # sphere the identity is checked on; u there is the observer
            # function of the reference side, vertex by vertex
            bd, emb = _surface(cfg)
            manifest.record("extractAndEmbed")
            fill = build_fill_in(bd.positions, mesh=bd.geom.mesh,
                                 layers=cfg["volume.layers"])
            manifest.record("fillIn")
            bvals = make_observer(emb, a).uA
        require_on_sphere(fill, cfg["radius"])
        delta = cfg["harmonic.delta"] or None
        sol = solve_spacetime_harmonic(fill, data, bvals, delta=delta,
                                       tol=cfg["harmonic.tol"],
                                       max_picard=cfg["harmonic.max_picard"])
        manifest.record("harmonicSolve")
        report = integral_identity_check(data, fill, sol, cfg["radius"],
                                         n_levels=cfg["topology.levels"])
        manifest.record("identity")
        report["solver"] = {
            "picardIters": sol.picard_iters,
            "cgIterations": sol.cg_iterations,
            "stepCgIterations": sol.step_cg_iterations,
            "andersonDepths": sol.anderson_depths,
            "spluFallbacks": sol.splu_fallbacks,
            "residualNorm": sol.residual_norm,
            "delta": sol.delta,
        }
        report["resolution"] = _resolution_context(cfg)
        _write_json(manifest, outdir / "identity.json", report)
        click.echo(f"slack={report['slack']:.3e} scale={report['scale']:.3e} "
                   f"method={report['method']}")
        return 0 if report["slack"] >= -1e-6 * report["scale"] else 2

    _execute("verify-identity", kwargs, body)


@main.command("el-residual")
@_with_flags
def el_residual(**kwargs):
    """First-variation residual diagnostics for one observer."""
    def body(cfg, outdir, manifest):
        from .energy import (
            SurfaceData,
            euler_lagrange_residual,
            make_observer,
        )

        bd, emb = _surface(cfg)
        manifest.record("extractAndEmbed")
        obs = make_observer(emb, observer_vector(cfg))
        out = euler_lagrange_residual(SurfaceData.from_boundary(bd), obs)
        manifest.record("residual")
        payload = {
            "distributionalCharges": out["distributionalCharges"],
            "interiorL2": out["interiorL2"],
            "totalIntegral": out["totalIntegral"],
            "warnings": out["warnings"],
            "resolution": _resolution_context(cfg),
        }
        _write_json(manifest, outdir / "el_residual.json", payload)
        click.echo(f"charges={out['distributionalCharges']} "
                   f"interiorL2={out['interiorL2']:.3e}")

    _execute("el-residual", kwargs, body)


def _selftest_checks():
    from .embedding import align_embedding, embed_metric
    from .energy import (
        SurfaceData,
        energy,
        hamilton_jacobi_check,
        make_observer,
    )
    from .initialdata import FlatData, extract_boundary_data
    from .mesh import icosphere
    from .volume import (
        VolumeMesh,
        admissibility_verdict,
        build_fill_in,
        solve_spacetime_harmonic,
        star_shaped_surface,
        verdict_of,
    )

    mesh = icosphere(2)
    bd = extract_boundary_data(FlatData(), 1.0, mesh=mesh)
    emb = embed_metric(mesh, bd.geom.metric, degree=12, tol=1e-10)
    emb = align_embedding(emb, bd.positions)
    ref = SurfaceData.from_embedding(emb)
    phys = SurfaceData.from_boundary(bd)
    obs = make_observer(emb, np.array([0.0, 0.0, 1.0]))

    yield ("ground state identical-data energy is exactly zero",
           energy(ref, ref, obs).E == 0.0)
    yield ("round sphere in flat data has small energy",
           abs(energy(ref, phys, obs).E) < 1e-3)

    hj = hamilton_jacobi_check(ref, phys, obs, [0.1, 0.01])
    yield ("surface-Hamiltonian route equals the density route",
           max(row["relDifference"] for row in hj) < 1e-12)

    fill = build_fill_in(emb)
    derived = VolumeMesh(fill.vertices, fill.tets)
    turns = [np.roll(derived.boundary_surface.faces, k, axis=1)
             for k in range(3)]
    yield ("fill-in boundary is the one derived from its tets",
           np.array_equal(fill.boundary_vertices, derived.boundary_vertices)
           and np.any([np.all(fill.boundary_surface.faces == t, axis=1)
                       for t in turns], axis=0).all())

    table = star_shaped_surface(emb.positions, emb.mesh).sections(obs.a)
    verdicts = (verdict_of(table), admissibility_verdict(fill, obs)["verdict"])
    yield ("ball admissible for the height observer, without its fill-in "
           "as with it", verdicts == ("admissible", "admissible"))

    bvals = fill.vertices[fill.boundary_vertices] @ np.array([0.0, 0.0, 1.0])
    sol = solve_spacetime_harmonic(fill, FlatData(), bvals)
    exact = fill.vertices @ np.array([0.0, 0.0, 1.0])
    yield ("linear boundary data solved exactly",
           float(np.abs(sol.u - exact).max()) <= 1e-12)
    rng = float(np.ptp(bvals))
    yield ("maximum principle on the interior solution",
           sol.u.max() <= bvals.max() + 1e-10 * rng
           and sol.u.min() >= bvals.min() - 1e-10 * rng)

    cfg = default_config()
    yield ("config round-trips losslessly",
           parse_config(serialize_config(cfg)) == cfg)


@main.command()
def selftest():
    """Run the quick invariant suite and print pass/fail per check."""
    failures = 0
    try:
        for name, ok in _selftest_checks():
            click.echo(f"{'pass' if ok else 'FAIL'}  {name}")
            failures += 0 if ok else 1
    except Exception as exc:
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)
    sys.exit(2 if failures else 0)


if __name__ == "__main__":
    main()
