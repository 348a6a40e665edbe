"""One pass of a workload in a fresh process, run by run.py.

    python3 bench/passes.py WORKLOAD SEED OUT --spawned-at T
                            [--trace] [--setup-only]

Set-up imports qlmass and builds the workload's inputs; its time runs
from T, the runner's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux).  The pass
then calls qlmass through its module attributes in the order the `qlm`
command uses, so that the wrappers of tracing.py see every call.  OUT.json
receives the timings, the steps completed and the spans; OUT.npz the
outputs that run.py checks.
"""

import argparse
import json
import resource
import time
import traceback

import numpy as np

import workloads


def _mass_search_inputs(seed):
    from qlmass.initialdata import BowenYorkData

    spec = workloads.MASS_SEARCH
    return {"data": BowenYorkData(np.array(spec["momentum"])),
            "rotation": workloads.grid_rotation(seed)}


def _mass_search(inputs, out):
    from qlmass import embedding, initialdata, search, volume
    from qlmass.energy import SurfaceData

    spec = workloads.MASS_SEARCH
    bd = initialdata.extract_boundary_data(inputs["data"], spec["radius"],
                                           level=spec["level"])
    yield
    emb = embedding.embed_metric(
        bd.geom.mesh, bd.geom.metric, degree=spec["embedding_degree"],
        tol=spec["embedding_tol"],
        max_iterations=spec["embedding_max_iterations"])
    yield
    emb = embedding.align_embedding(emb, bd.positions)
    yield
    fill = volume.build_fill_in(emb, layers=spec["layers"])
    yield
    report = search.mass_infimum(
        SurfaceData.from_embedding(emb), SurfaceData.from_boundary(bd), emb,
        fill_in=fill, grid_n=spec["grid"],
        refine_iters=spec["refine_iters"],
        grid_rotation=inputs["rotation"],
        admissibility_levels=spec["topology_levels"])
    out.update(
        grid_a=np.array([row["a"] for row in report.energy_grid]),
        grid_E=np.array([row["E"] for row in report.energy_grid]),
        grid_admissible=np.array([row["admissible"]
                                  for row in report.energy_grid]),
        mass=np.float64(report.mass_value), argmin=report.argmin_a,
    )
    yield


def _asymptotics_inputs(seed):
    from qlmass.initialdata import SchwarzschildData

    spec = workloads.ASYMPTOTICS_LADDER
    a_list = workloads.fibonacci_directions(spec["observers"],
                                            workloads.grid_rotation(seed))
    return {"data": SchwarzschildData(spec["mass"]), "a_list": list(a_list)}


def _asymptotics_ladder(inputs, out):
    from qlmass import search

    spec = workloads.ASYMPTOTICS_LADDER
    report = search.asymptotics_driver(
        inputs["data"], inputs["a_list"], list(spec["radii"]),
        mesh_level=spec["level"], degree=spec["embedding_degree"],
        tol=spec["embedding_tol"])
    out.update(radii=np.array(report.radii), a_list=np.array(report.a_list),
               energies=np.array(report.energies),
               E_inf=np.array([fit["E_inf"] for fit in report.fits]))
    yield


def _unit_sphere(level):
    from qlmass.mesh import icosphere

    mesh = icosphere(level)
    return mesh, mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                                keepdims=True)


def _interior_inputs(seed):
    from qlmass.initialdata import (
        FlatData,
        SchwarzschildData,
        UniformExpansionData,
    )

    spec = workloads.INTERIOR_IDENTITY
    return {"ball": _unit_sphere(spec["ball_level"]),
            "schw_ball": _unit_sphere(spec["schw_level"]),
            "expansion": UniformExpansionData(spec["expansion"]),
            "flat": FlatData(),
            "schwarzschild": SchwarzschildData(spec["schw_mass"]),
            "a": workloads.observer_direction(seed)}


def _interior_identity(inputs, out):
    from qlmass import volume

    spec = workloads.INTERIOR_IDENTITY
    a = inputs["a"]
    mesh, pos = inputs["ball"]
    vol = volume.build_fill_in(pos, mesh=mesh, layers=spec["layers"])
    bverts = vol.vertices[vol.boundary_vertices]
    out.update(ball_vertices=vol.vertices,
               ball_boundary=vol.boundary_vertices)
    yield
    sol = volume.solve_spacetime_harmonic(vol, inputs["expansion"],
                                          bverts[:, 2])
    out.update(u_uniform_expansion=sol.u)
    yield
    sol = volume.solve_spacetime_harmonic(vol, inputs["flat"], bverts @ a)
    out.update(u_linear=sol.u)
    yield
    # the `qlm verify-identity` path: boundary values a.x on the fill-in
    mesh, pos = inputs["schw_ball"]
    radius = spec["schw_radius"]
    svol = volume.build_fill_in(radius * pos, mesh=mesh,
                                layers=spec["layers"])
    out.update(schw_vertices=svol.vertices,
               schw_boundary=svol.boundary_vertices)
    yield
    sol = volume.solve_spacetime_harmonic(
        svol, inputs["schwarzschild"],
        svol.vertices[svol.boundary_vertices] @ a)
    out.update(u_schw=sol.u)
    yield
    report = volume.integral_identity_check(
        inputs["schwarzschild"], svol, sol, radius,
        n_levels=spec["topology_levels"])
    out.update(slack=np.float64(report["slack"]),
               scale=np.float64(report["scale"]))
    yield


# workload -> (input builder, pass generator, steps per pass); the pass
# yields once after each step it completes
WORKLOADS = {
    "mass-search": (_mass_search_inputs, _mass_search, 5),
    "asymptotics-ladder": (_asymptotics_inputs, _asymptotics_ladder, 1),
    "interior-identity": (_interior_inputs, _interior_identity, 6),
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import qlmass.search  # noqa: F401  (loads every layer module)
    import qlmass.volume  # noqa: F401

    build_inputs, run_pass, steps = WORKLOADS[args.workload]
    inputs = build_inputs(args.seed)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        with open(args.out + ".json", "w") as fh:
            json.dump(result, fh)
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(pass_id=f"{args.workload}/{args.seed}/{args.out}")
        tracer.install()

    outputs = {}
    completed = 0
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for _ in run_pass(inputs, outputs):
            completed += 1
    except Exception:  # a failed step is counted, not fatal to the run
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    result.update(
        wall_s=wall, cpu_s=cpu,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        steps=steps, completed=completed, error=error,
        spans=tracer.spans if tracer else [],
    )
    np.savez(args.out + ".npz", **outputs)
    with open(args.out + ".json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
