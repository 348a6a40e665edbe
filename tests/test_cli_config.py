"""Tests for the plain-text config schema, run manifests, and the
command line interface."""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qlmass.cli import _FLAGS, main
from qlmass.config import (
    SCHEMA,
    SCHEMA_VERSION,
    ConfigError,
    config_hash,
    default_config,
    parse_config,
    read_config,
    serialize_config,
)
from qlmass.initialdata import (
    FlatData,
    extract_boundary_data,
    write_boundary_fields,
)
from qlmass.mesh import icosphere
from qlmass.volume import (
    VolumeMesh,
    _split_prism,
    build_fill_in,
    level_set_topology,
    read_volume_mesh,
    write_volume_mesh,
)


def _spherical_shell(level=2, inner=0.5, n_layers=4):
    """Thick spherical shell: no linear height function is admissible."""
    mesh = icosphere(level)
    pos = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                         keepdims=True)
    V = mesh.n_vertices
    scales = np.linspace(1.0, inner, n_layers + 1)
    verts = np.vstack([s * pos for s in scales])
    tets = []
    for l in range(n_layers):
        lo, hi = l * V, (l + 1) * V
        for f in mesh.faces:
            tets.extend(_split_prism((lo + f[0], lo + f[1], lo + f[2],
                                      hi + f[0], hi + f[1], hi + f[2])))
    return VolumeMesh(verts, np.asarray(tets))


# -- config parsing --------------------------------------------------------

def test_defaults_round_trip():
    cfg = default_config()
    assert parse_config(serialize_config(cfg)) == cfg


def test_modified_values_round_trip():
    cfg = default_config()
    cfg["provider"] = "schwarzschild"
    cfg["provider.mass"] = 0.1234567890123456789
    cfg["radii"] = (1.5, 2.25, np.pi)
    cfg["observer.a"] = (0.1, -0.2, 0.97)
    cfg["mesh.level"] = 5
    back = parse_config(serialize_config(cfg))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


def _valid_configs():
    """Configs with random values that every check accepts."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=1e-300, max_value=1e300)
    text = st.text(st.characters(codec="utf-8", exclude_characters="#"),
                   max_size=12)
    by_kind = {
        "int": st.integers(),
        "float": finite,
        "str": text.filter(
            lambda s: s == s.strip() and len(s.splitlines()) <= 1),
        "floats": st.lists(finite, min_size=1, max_size=4).map(tuple),
        "vec3": st.tuples(finite, finite, finite),
    }
    limited = {
        "seed": st.integers(min_value=0),
        "radius": positive,
        "radii": st.lists(positive, min_size=1, max_size=4,
                          unique=True).map(tuple),
        "mesh.level": st.integers(min_value=0),
        "embedding.degree": st.integers(min_value=1),
        "embedding.tol": positive,
        "embedding.max_iterations": st.integers(min_value=1),
        "observers.grid": st.integers(min_value=1),
        "observers.refine_iters": st.integers(min_value=0),
        "asymptotics.observers": st.integers(min_value=1),
        "volume.layers": st.integers(min_value=1),
        "harmonic.tol": positive,
        "harmonic.max_picard": st.integers(min_value=1),
        "topology.levels": st.integers(min_value=1),
    }
    # a key that gains a limit in SCHEMA needs a strategy here
    assert set(limited) == {key for key, row in SCHEMA.items() if row[2]}
    limited["schemaVersion"] = st.just(SCHEMA_VERSION)
    return st.fixed_dictionaries({
        key: limited.get(key, by_kind[kind])
        for key, (kind, *_) in SCHEMA.items()
    })


@settings(max_examples=60, deadline=None)
@given(cfg=_valid_configs())
def test_valid_configs_round_trip(cfg):
    back = parse_config(serialize_config(cfg))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


@settings(max_examples=40, deadline=None)
@given(cfg=_valid_configs(), other=_valid_configs(),
       key=st.sampled_from(sorted(SCHEMA)),
       help_text=st.text(st.characters(
           exclude_categories=("Cc", "Cs", "Zl", "Zp"))))
def test_config_hash_names_the_values_not_the_help(cfg, other, key,
                                                   help_text):
    before = config_hash(cfg)
    kind, default, limit, _ = SCHEMA[key]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(SCHEMA, key, (kind, default, limit, help_text))
        assert config_hash(cfg) == before
    # a value that serializes differently (repr tells -0.0 from 0.0) moves
    # the hash; one that serializes the same does not
    for k in SCHEMA:
        same = repr(other[k]) == repr(cfg[k])
        assert (config_hash({**cfg, k: other[k]}) == before) == same


@pytest.mark.parametrize("key, raw", [("provider.mass", "nan"),
                                      ("radius", "inf"),
                                      ("radii", "10,-inf"),
                                      ("observer.a", "0,nan,1")])
def test_non_finite_number_rejected(key, raw):
    with pytest.raises(ConfigError,
                       match=f"bad value for key {key}: .* is not finite"):
        parse_config(f"{key} = {raw}\n")


def test_partial_config_gets_defaults():
    cfg = parse_config("provider = schwarzschild\nradius = 10.0\n")
    assert cfg["provider"] == "schwarzschild"
    assert cfg["radius"] == 10.0
    assert cfg["mesh.level"] == default_config()["mesh.level"]


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match=r"<config>:3: unknown key bogus"):
        parse_config("# comment\nradius = 1.0\nbogus = 2\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key radius"):
        parse_config("radius = 1.0\nradius = 2.0\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match=r"<config>:1: bad value for key "
                                          r"mesh.level"):
        parse_config("mesh.level = three\n")
    with pytest.raises(ConfigError, match="three components"):
        parse_config("observer.a = 1,2\n")


def test_wrong_schema_version_rejected():
    with pytest.raises(ConfigError, match="schemaVersion 99"):
        parse_config("schemaVersion = 99\n")


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        read_config("/nonexistent/path.cfg")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="expected `key = value`"):
        parse_config("radius 1.0\n")


# -- CLI -------------------------------------------------------------------

@pytest.fixture()
def runner():
    return CliRunner()


def _fresh_python(code):
    """Run `code` in a new interpreter that imports this qlmass."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qlmass

    src = str(Path(qlmass.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_reading_a_config_loads_no_numerical_layer():
    code = ("import sys, qlmass.config; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert _fresh_python(code).stdout.strip() == "[]"


def test_print_config_loads_no_numerical_layer():
    # the schema goes to stdout, the scipy modules loaded to stderr
    code = ("import sys\n"
            "from qlmass.cli import main\n"
            "main(['print-config'], standalone_mode=False)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')),"
            " file=sys.stderr)")
    proc = _fresh_python(code)
    assert proc.stderr.strip() == "[]"
    assert proc.stdout == serialize_config(default_config())


def test_commands_load_no_optimize_special_or_spatial(tmp_path):
    # one command per path: embedding, mass search with its fill-in, the
    # radius-ladder fit, and the field-recovery identity (Bowen-York data
    # interpolate the boundary fields)
    code = ("import sys\n"
            "from qlmass.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "for args in (['embed'], ['mass', '--level', '2', '--grid', '8'],\n"
            "             ['asymptotics', '--provider', 'schwarzschild',\n"
            "              '--level', '2'],\n"
            "             ['verify-identity', '--provider', 'bowen_york',\n"
            "              '--level', '2']):\n"
            "    try:\n"
            "        main(args + ['--out', out + '/' + args[0]],\n"
            "             standalone_mode=False)\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, (args, exc.code)\n"
            "print(sorted(m for m in sys.modules if m.startswith(\n"
            "    ('scipy.optimize', 'scipy.special', 'scipy.spatial'))),\n"
            "    file=sys.stderr)")
    proc = _fresh_python(code)
    assert proc.stderr.strip() == "[]"
    identity = json.loads((tmp_path / "verify-identity"
                           / "identity.json").read_text())
    assert identity["method"] == "fieldRecovery"


def test_print_config_is_parseable(runner):
    result = runner.invoke(main, ["print-config"])
    assert result.exit_code == 0
    assert parse_config(result.output) == default_config()


def test_selftest_passes(runner):
    result = runner.invoke(main, ["selftest"])
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if l]
    assert len(lines) >= 5
    assert all(l.startswith("pass") for l in lines)


def test_energy_command_writes_report_and_manifest(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["energy", "--level", "2",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "energy.json").read_text())
    assert abs(report["E"]) < 1e-3
    assert report["resolution"]["meshLevel"] == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "energy"
    # the clock starts with the imports, which are the first wall time
    assert list(manifest["wallTimes"]) == ["imports", "extractAndEmbed",
                                           "energy"]
    assert manifest["wallTimes"]["imports"] > 0.0
    assert manifest["totalSeconds"] >= sum(manifest["wallTimes"].values())
    assert {o["path"].split("/")[-1] for o in manifest["outputs"]} == {
        "energy.json"
    }
    assert all(len(o["sha256"]) == 64 for o in manifest["outputs"])


def test_identical_config_reproduces_output_hashes(runner, tmp_path):
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(main, ["energy", "--level", "2",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        hashes.append([o["sha256"] for o in manifest["outputs"]])
        assert manifest["configHash"] == config_hash(
            parse_config(f"mesh.level = 2\noutput.dir = {out}\n")
        )
    assert hashes[0] == hashes[1]


def test_config_file_with_flag_override(runner, tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("provider = flat\nmesh.level = 2\n")
    out = tmp_path / "run"
    result = runner.invoke(main, ["energy", "--config", str(cfg_path),
                                  "--a", "1,0,0", "--out", str(out)])
    assert result.exit_code == 0, result.output


def test_every_report_ends_with_the_resolution_of_its_config(runner,
                                                             tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("mesh.level = 2\nembedding.tol = 1e-9\n"
                        "harmonic.tol = 1e-9\ntopology.levels = 16\n"
                        "observers.grid = 8\nobservers.refine_iters = 2\n"
                        "radii = 10,20\n")
    expected = {"meshLevel": 2, "embeddingDegree": 16, "embeddingTol": 1e-9,
                "harmonicTol": 1e-9, "topologyLevels": 16}
    reports = {"embed": "embed.json", "energy": "energy.json",
               "mass": "mass.json", "asymptotics": "asymptotics.json",
               "admissibility": "admissibility.json",
               "verify-identity": "identity.json",
               "el-residual": "el_residual.json"}
    for command, name in reports.items():
        out = tmp_path / command
        result = runner.invoke(main, [command, "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, (command, result.output)
        report = json.loads((out / name).read_text())
        assert list(report)[-1] == "resolution", name
        assert report["resolution"] == expected, name
        assert "context" not in report, name


@pytest.mark.parametrize("flag, key", _FLAGS)
def test_flag_help_is_the_help_of_its_key(runner, flag, key):
    result = runner.invoke(main, ["energy", "--help"])
    assert result.exit_code == 0, result.output
    # click rewraps the help; compare without the whitespace
    text = "".join(result.output.split())
    assert "".join(f"{flag} TEXT {SCHEMA[key][3]}".split()) in text


def test_mass_command(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["mass", "--level", "2", "--grid", "16",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out / "mass_grid.csv") as fh:
        header = fh.readline().strip()
    assert header == "a_x,a_y,a_z,E,admissible"
    report = json.loads((out / "mass.json").read_text())
    assert abs(report["massValue"]) < 1e-3
    assert len(report["energyGrid"]) == 16
    energies = [row["E"] for row in report["energyGrid"]
                if row["admissible"] != "not admissible"]
    assert report["energySpread"] == max(energies) - min(energies)
    assert list(report)[:3] == ["massValue", "energySpread", "argminA"]


def _ball(level, scale, center):
    mesh = icosphere(level)
    pos = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                         keepdims=True)
    return build_fill_in(scale * pos + np.asarray(center), mesh=mesh,
                         layers=3)


@pytest.mark.parametrize("level, named", [
    (1, lambda ball: "volume.mesh_file has 42 boundary vertices, the "
                     "embedded surface 642"),
    (3, lambda ball: f"volume.mesh_file boundary vertex 0 is at "
                     f"{ball.vertices[0].tolist()}, off embedded vertex 0 "
                     f"at ["),
], ids=["count", "position"])
def test_mass_refuses_a_mesh_file_off_the_embedded_surface(runner, tmp_path,
                                                           level, named):
    # the verdict is about a fill-in of the embedded level-3 surface, not
    # of a ball of radius 7 about (50, 0, 0)
    mesh_path, out = tmp_path / "far.vmesh", tmp_path / "run"
    ball = _ball(level, 7.0, (50.0, 0.0, 0.0))
    write_volume_mesh(mesh_path, ball)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"volume.mesh_file = {mesh_path}\n")
    result = runner.invoke(main, ["mass", "--config", str(cfg_path),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert named(ball) in result.output
    assert "internal error" not in result.output
    assert not (out / "mass.json").exists()


def test_mass_mesh_file_of_the_embedded_surface_changes_no_output(runner,
                                                                  tmp_path):
    from qlmass.cli import _surface

    _, emb = _surface(default_config())
    mesh_path = tmp_path / "fill.vmesh"
    write_volume_mesh(mesh_path, build_fill_in(emb))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"volume.mesh_file = {mesh_path}\n")
    runs = []
    for config in ([], ["--config", str(cfg_path)]):
        out = tmp_path / f"run{len(runs)}"
        result = runner.invoke(main, ["mass", *config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        runs.append([(out / name).read_bytes()
                     for name in ("mass.json", "mass_grid.csv")])
    assert runs[0] == runs[1]


def test_asymptotics_command(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, [
        "asymptotics", "--provider", "schwarzschild", "--mass", "1",
        "--radii", "4,8,16", "--level", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "asymptotics.json").read_text())
    for fit in report["fits"]:
        assert abs(fit["E_inf"] - 1.0) < 0.05
    assert (out / "asymptotics.csv").exists()


_IDENTITY_STEPS = ["imports", "extractAndEmbed", "fillIn", "harmonicSolve",
                   "identity"]


def test_verify_identity_command(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["verify-identity", "--level", "2",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "identity.json").read_text())
    assert report["slack"] >= -1e-8 * report["scale"]
    assert report["method"] == "harmonicFit"
    # the built fill-in is its own step, as a read one is
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["wallTimes"]) == _IDENTITY_STEPS


@pytest.mark.parametrize("flags", [
    [],
    ["--provider", "schwarzschild", "--radius", "10"],
    ["--provider", "bowen_york", "--radius", "40"],
], ids=["flat", "schwarzschild", "bowen_york"])
def test_verify_identity_reports_the_dec_margin(runner, tmp_path, flags):
    from qlmass.initialdata import BowenYorkData

    out = tmp_path / "run"
    result = runner.invoke(main, ["verify-identity", "--level", "2", *flags,
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "identity.json").read_text())
    if not flags or flags[1] == "schwarzschild":
        # the constraint fields of these providers are closed-form zeros
        assert report["decMargin"] == 0.0
        return
    # flat-metric Bowen-York data have mu = -|k|^2 / 2 and J = 0
    data = BowenYorkData(np.array(default_config()["provider.momentum"]))
    k = data.extrinsic(np.array([report["decMarginAt"]]))[0]
    assert report["decMargin"] < 0.0
    assert report["decMargin"] == pytest.approx(-0.5 * np.sum(k * k),
                                                rel=1e-6)


def test_embed_command_reports_the_largest_edge_defect(runner, tmp_path):
    from qlmass.embedding import align_embedding, embed_metric
    from qlmass.initialdata import SchwarzschildData

    out = tmp_path / "run"
    result = runner.invoke(main, ["embed", "--provider", "schwarzschild",
                                  "--radius", "10", "--level", "2",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "embed.json").read_text())
    bd = extract_boundary_data(SchwarzschildData(1.0), 10.0, level=2)
    emb = align_embedding(embed_metric(bd.geom.mesh, bd.geom.metric),
                          bd.positions)
    # alignment moves the edge lengths by rounding only
    assert report["defectMax"] == pytest.approx(
        emb.consistency_residual(bd.geom.metric), rel=1e-3)
    assert report["defectMax"] > report["defectL2"]


def test_verify_identity_solves_on_the_checked_sphere(runner, tmp_path,
                                                      monkeypatch):
    import qlmass.volume as volume_mod

    solved = []
    solve = volume_mod.solve_spacetime_harmonic

    def spy(vol, data, boundary_values, **kwargs):
        solved.append((vol, boundary_values))
        return solve(vol, data, boundary_values, **kwargs)

    monkeypatch.setattr(volume_mod, "solve_spacetime_harmonic", spy)
    out = tmp_path / "run"
    result = runner.invoke(main, ["verify-identity", "--provider",
                                  "schwarzschild", "--radius", "10",
                                  "--level", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    (vol, bvals), = solved
    radii = np.linalg.norm(vol.vertices[vol.boundary_vertices], axis=1)
    assert np.abs(radii - 10.0).max() <= 1e-12 * 10.0
    report = json.loads((out / "identity.json").read_text())
    assert report["slack"] >= -1e-8 * report["scale"]


def _timed_ball_mesh_file(path, times_of):
    """A level-2 unit-ball fill-in written to `path` with the vertex times
    times_of(ball) in the time column of its vertex rows."""
    mesh = icosphere(2)
    pos = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                         keepdims=True)
    ball = build_fill_in(pos, mesh=mesh, layers=3)
    write_volume_mesh(path, ball)
    times = times_of(ball)
    lines = path.read_text().splitlines()
    for i, t in enumerate(times):
        lines[1 + i] = " ".join([repr(float(t))] + lines[1 + i].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    return ball, times


def _verify_identity_on(runner, tmp_path, mesh_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"mesh.level = 2\nvolume.mesh_file = {mesh_path}\n"
                        f"observer.a = 0, 0.6, 0.8\n")
    out = tmp_path / "run"
    return out, runner.invoke(main, ["verify-identity", "--config",
                                     str(cfg_path), "--out", str(out)])


def test_verify_identity_mesh_file_keeps_the_vertex_times(runner, tmp_path,
                                                          monkeypatch):
    # interior times are kept on the fill-in; the boundary values are the
    # observer function a.x of the t = 0 reference surface
    import qlmass.volume as volume_mod

    solved = []
    solve = volume_mod.solve_spacetime_harmonic

    def spy(vol, data, boundary_values, **kwargs):
        solved.append((vol, boundary_values,
                       solve(vol, data, boundary_values, **kwargs)))
        return solved[-1][2]

    monkeypatch.setattr(volume_mod, "solve_spacetime_harmonic", spy)

    def interior_times(ball):
        times = 0.1 * ball.vertices[:, 0]
        times[ball.boundary_vertices] = 0.0
        return times

    _, times = _timed_ball_mesh_file(tmp_path / "ball.vmesh", interior_times)
    out, result = _verify_identity_on(runner, tmp_path,
                                      tmp_path / "ball.vmesh")
    assert result.exit_code == 0, result.output
    (vol, bvals, sol), = solved
    assert np.array_equal(vol.times, times)
    assert vol.times.any()
    # the mesh file replaces the extracted sphere, so none is built
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["wallTimes"]) == ["imports", "fillIn",
                                           "harmonicSolve", "identity"]
    x = vol.vertices[vol.boundary_vertices]
    np.testing.assert_array_equal(bvals, x @ np.array([0.0, 0.6, 0.8]))
    report = json.loads((out / "identity.json").read_text())
    assert report["solver"] == {
        "picardIters": sol.picard_iters,
        "cgIterations": sol.cg_iterations,
        "stepCgIterations": sol.step_cg_iterations,
        "andersonDepths": sol.anderson_depths,
        "spluFallbacks": sol.splu_fallbacks,
        "residualNorm": sol.residual_norm,
        "delta": sol.delta,
    }


def test_verify_identity_mesh_file_rejects_boundary_times(runner, tmp_path):
    # the reference surface lies in t = 0, so a boundary time would reach
    # the boundary values but not the energy
    ball, times = _timed_ball_mesh_file(tmp_path / "ball.vmesh",
                                        lambda ball: 0.1 * ball.vertices[:, 0])
    bv = ball.boundary_vertices
    first = bv[times[bv] != 0.0][0]
    _, result = _verify_identity_on(runner, tmp_path,
                                    tmp_path / "ball.vmesh")
    assert result.exit_code == 2, result.output
    assert (f"boundary vertex {first} has time {float(times[first])!r}"
            in result.output)
    assert "internal error" not in result.output


@pytest.mark.parametrize("scale, level, flags", [
    (1.0, 2, ["--radius", "2"]),
    (5.0, 1, ["--provider", "schwarzschild", "--radius", "10"]),
])
def test_verify_identity_refuses_a_ball_off_its_radius(runner, tmp_path,
                                                       scale, level, flags):
    # the identity integrates over the sphere |x| = radius, which a ball
    # of another size does not bound
    mesh = icosphere(level)
    pos = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                         keepdims=True)
    ball = build_fill_in(scale * pos, mesh=mesh, layers=3)
    mesh_path, out = tmp_path / "ball.vmesh", tmp_path / "run"
    write_volume_mesh(mesh_path, ball)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"mesh.level = {level}\n"
                        f"volume.mesh_file = {mesh_path}\n")
    result = runner.invoke(main, ["verify-identity", "--config",
                                  str(cfg_path), *flags, "--out", str(out)])
    assert result.exit_code == 2, result.output
    r = float(np.linalg.norm(ball.vertices[0]))
    assert (f"boundary vertex 0 has |x| = {r!r}, off the sphere of radius "
            f"{float(flags[-1])!r}" in result.output)
    assert "(config key `radius`)" in result.output
    assert not (out / "identity.json").exists()


def test_verify_identity_checks_the_radius_before_the_solve(runner, tmp_path,
                                                           monkeypatch):
    # a ball off the sphere |x| = radius is refused before the interior
    # solve, whose work the refusal would throw away
    import qlmass.volume as volume_mod
    from qlmass.config import RunManifest

    steps = []
    record = RunManifest.record

    def spy(self, operation):
        steps.append(operation)
        record(self, operation)

    def solve(*args, **kwargs):
        raise AssertionError("solve_spacetime_harmonic called")

    monkeypatch.setattr(RunManifest, "record", spy)
    monkeypatch.setattr(volume_mod, "solve_spacetime_harmonic", solve)
    mesh = icosphere(2)
    pos = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                         keepdims=True)
    mesh_path = tmp_path / "ball.vmesh"
    write_volume_mesh(mesh_path, build_fill_in(pos, mesh=mesh, layers=3))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"mesh.level = 2\nvolume.mesh_file = {mesh_path}\n")
    result = runner.invoke(main, ["verify-identity", "--config",
                                  str(cfg_path), "--radius", "2",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert "off the sphere of radius 2.0" in result.output
    assert steps == ["fillIn"]


def test_el_residual_command(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["el-residual", "--level", "3",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "el_residual.json").read_text())
    assert abs(report["distributionalCharges"]["min"] - 2 * np.pi) < 0.4
    assert abs(report["totalIntegral"]) < 1e-8


def test_admissibility_verdict_failure_exits_two(runner, tmp_path):
    # supply a fill-in file whose mid levels are annuli (spherical shell)
    shell = _spherical_shell()
    mesh_path = tmp_path / "shell.vmesh"
    write_volume_mesh(mesh_path, shell)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"mesh.level = 2\nvolume.mesh_file = {mesh_path}\n"
        f"output.dir = {tmp_path / 'run'}\n"
    )
    result = runner.invoke(main, ["admissibility", "--config",
                                  str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert "not admissible" in result.output


def test_admissibility_on_a_built_fill_in_reads_no_tet_table(runner,
                                                             tmp_path,
                                                             monkeypatch):
    # the boundary surface decides and reports: one loop graph, and no
    # tet table is built for the rows
    import qlmass.volume as volume_mod

    def unread(vol):
        raise AssertionError("topology_arrays read by qlm admissibility")

    monkeypatch.setattr(VolumeMesh, "topology_arrays", property(unread))
    graphs = []
    build = volume_mod._component_labels

    def spy(*args):
        graphs.append(args)
        return build(*args)

    monkeypatch.setattr(volume_mod, "_component_labels", spy)
    result = runner.invoke(main, ["admissibility", "--level", "2",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert len(graphs) == 1
    report = json.loads((tmp_path / "run" / "admissibility.json").read_text())
    assert report["route"] == "boundary"
    assert all(set(row) == {"s", "chi", "n", "components",
                            "smallestLoopArea"} for row in report["levels"])


def _forbid_build_fill_in(monkeypatch):
    import qlmass.volume as volume_mod

    def build(*args, **kwargs):
        raise AssertionError("build_fill_in called")

    monkeypatch.setattr(volume_mod, "build_fill_in", build)


def test_admissibility_without_a_mesh_file_builds_no_fill_in(runner,
                                                            tmp_path,
                                                            monkeypatch):
    # the sections of the embedded surface decide, as for qlm mass
    _forbid_build_fill_in(monkeypatch)
    out = tmp_path / "run"
    result = runner.invoke(main, ["admissibility", "--level", "2",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["wallTimes"]) == ["imports", "extractAndEmbed",
                                           "topology"]
    report = json.loads((out / "admissibility.json").read_text())
    assert (report["verdict"], report["route"]) == ("admissible", "boundary")


def test_admissibility_reads_the_mesh_file(runner, tmp_path, monkeypatch):
    import qlmass.volume as volume_mod

    mesh_path, a = tmp_path / "ball.vmesh", np.array([0.0, 0.6, 0.8])
    _timed_ball_mesh_file(mesh_path, lambda ball: np.zeros(ball.n_vertices))
    _forbid_build_fill_in(monkeypatch)
    read = []
    reader = volume_mod.read_volume_mesh

    def spy(path):
        read.append(path)
        return reader(path)

    monkeypatch.setattr(volume_mod, "read_volume_mesh", spy)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"mesh.level = 2\nvolume.mesh_file = {mesh_path}\n"
                        f"observer.a = 0, 0.6, 0.8\n")
    out = tmp_path / "run"
    result = runner.invoke(main, ["admissibility", "--config", str(cfg_path),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert read == [str(mesh_path)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["wallTimes"]) == ["imports", "fillIn", "topology"]
    table = reader(mesh_path).boundary_surface.sections(a)
    report = json.loads((out / "admissibility.json").read_text())
    assert report["levels"] == [
        {"s": float(s), "chi": int(c), "n": int(n), "components": int(k),
         "smallestLoopArea": float(area)}
        for s, c, n, k, area in zip(table.levels, table.chi,
                                    table.boundary_components,
                                    table.n_components,
                                    table.smallest_loop_area)]


def test_admissibility_with_a_mesh_file_extracts_no_sphere(runner,
                                                          tmp_path):
    # the sphere of radius 0.3 lies inside the Schwarzschild horizon, where
    # its mean curvature vector is not spacelike; the mesh file decides
    # the verdict, so that sphere is never extracted
    mesh_path = tmp_path / "ball.vmesh"
    _timed_ball_mesh_file(mesh_path, lambda ball: np.zeros(ball.n_vertices))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"volume.mesh_file = {mesh_path}\n")
    out = tmp_path / "run"
    result = runner.invoke(main, ["admissibility", "--config", str(cfg_path),
                                  "--provider", "schwarzschild",
                                  "--radius", "0.3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "admissibility.json").read_text())
    assert report["verdict"] == "admissible"


def test_admissibility_on_a_timed_mesh_reports_the_sampled_levels(
        runner, tmp_path):
    # u = -t + a.x is not linear: the sampled tet table decides, and its
    # topology.levels rows are the ones reported
    def interior_times(ball):
        times = 0.1 * ball.vertices[:, 0]
        times[ball.boundary_vertices] = 0.0
        return times

    mesh_path = tmp_path / "ball.vmesh"
    _timed_ball_mesh_file(mesh_path, interior_times)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"mesh.level = 2\nvolume.mesh_file = {mesh_path}\n"
                        f"observer.a = 0, 0.6, 0.8\ntopology.levels = 12\n")
    out = tmp_path / "run"
    result = runner.invoke(main, ["admissibility", "--config", str(cfg_path),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "admissibility.json").read_text())
    assert report["route"] == "sampledTets"
    vol = read_volume_mesh(mesh_path)
    topo = level_set_topology(
        vol, -vol.times + vol.vertices @ np.array([0.0, 0.6, 0.8]), 12)
    assert report["levels"] == [
        {"s": float(s), "chi": int(c), "n": int(n), "components": int(k)}
        for s, c, n, k in zip(topo.levels, topo.chi,
                              topo.boundary_components, topo.n_components)]


def _edit_row(section, row, column, value):
    """Edit of a .vmesh file: sets entry `column` of row `row` after the
    `section <count>` header line."""
    def edit(lines):
        head = next(i for i, l in enumerate(lines) if l.startswith(section))
        fields = lines[head + 1 + row].split()
        fields[column] = value
        lines[head + 1 + row] = " ".join(fields)
        return lines
    return edit


def _empty_section(section):
    """Edit of a .vmesh file: drops every row of the section and sets its
    count to 0."""
    def edit(lines):
        head = next(i for i, l in enumerate(lines) if l.startswith(section))
        count = int(lines[head].split()[1])
        return lines[:head] + [f"{section} 0"] + lines[head + 1 + count:]
    return edit


def _extra_vertex(lines):
    """Edit of a .vmesh file: appends a vertex that no tet names."""
    head = next(i for i, l in enumerate(lines) if l.startswith("vertices"))
    count = int(lines[head].split()[1])
    return (lines[:head] + [f"vertices {count + 1}"]
            + lines[head + 1:head + 1 + count] + ["0.0 0.1 0.2 0.3"]
            + lines[head + 1 + count:])


def _repeat_last_tet(lines):
    """Edit of a .vmesh file: lists the last tet again, its vertices in
    another order; on a built fill-in it is a cone tet at the centre, all
    of whose faces are interior."""
    tets = next(i for i, l in enumerate(lines) if l.startswith("tets"))
    a, b, c, d = lines[-1].split()
    return (lines[:tets] + [f"tets {len(lines) - tets}"] + lines[tets + 1:]
            + [f"{c} {d} {a} {b}"])


def _separate_tet_twice(lines):
    """Edit of a .vmesh file: adds a tet apart from the ball, listed twice,
    whose faces each belong to its two copies alone."""
    verts = next(i for i, l in enumerate(lines) if l.startswith("vertices"))
    tets = next(i for i, l in enumerate(lines) if l.startswith("tets"))
    n, t = tets - verts - 1, len(lines) - tets - 1
    return ([f"vertices {n + 4}"] + lines[verts + 1:tets]
            + ["0.0 3.0 0.0 0.0", "0.0 3.5 0.0 0.0", "0.0 3.0 0.5 0.0",
               "0.0 3.0 0.0 0.5", f"tets {t + 2}"] + lines[tets + 1:]
            + [f"{n} {n + 1} {n + 2} {n + 3}", f"{n + 1} {n} {n + 2} {n + 3}"])


@pytest.mark.parametrize("edit, message", [
    (_edit_row("tets", 0, 1, "1000000"),
     "tet 0 names vertex 1000000, outside [0, 487)"),
    (_edit_row("tets", 3, 2, "-1"), "tet 3 names vertex -1, outside"),
    (_edit_row("vertices", 7, 2, "nan"),
     "vertex 7 has a non-finite coordinate or time"),
    (_edit_row("vertices", 9, 0, "inf"),
     "vertex 9 has a non-finite coordinate or time"),
    (_edit_row("vertices", 11, 0, "0.5"),
     "boundary vertex 11 has time 0.5; boundary times must be 0"),
    (lambda lines: lines[:-1], "malformed volume mesh file: expected "
                               "`tets <count>`"),
    # the boundary section that earlier files carried
    (lambda lines: lines + ["boundary 1", "0 1 2 0"],
     "malformed volume mesh file: content after the tet rows"),
    (_empty_section("tets"), "volume mesh has no tets"),
    (_extra_vertex, "vertex 487 is named by no tet"),
    (_repeat_last_tet, "face (445, 447, 449) belongs to tets 1919, 2239, "
                       "2240; a face may belong to two different tets at "
                       "most"),
    (_separate_tet_twice, "face (487, 488, 489) belongs to tets 2240, 2241; "
                          "a face may belong to two different tets at most"),
], ids=["tet-index-too-large", "tet-index-negative", "nan-coordinate",
        "inf-time", "boundary-time", "truncated", "trailing-content",
        "no-tets", "vertex-of-no-tet", "repeated-interior-tet",
        "repeated-separate-tet"])
def test_bad_volume_mesh_file_exits_two(runner, tmp_path, edit, message):
    mesh = icosphere(2)
    pos = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1,
                                         keepdims=True)
    mesh_path = tmp_path / "ball.vmesh"
    write_volume_mesh(mesh_path, build_fill_in(pos, mesh=mesh, layers=3))
    lines = edit(mesh_path.read_text().splitlines())
    mesh_path.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"mesh.level = 2\nvolume.mesh_file = {mesh_path}\n")
    result = runner.invoke(main, ["admissibility", "--config",
                                  str(cfg_path), "--out",
                                  str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "internal error" not in result.output


def test_sphere_inside_horizon_reports_h_and_trk(runner, tmp_path):
    result = runner.invoke(main, ["energy", "--provider", "schwarzschild",
                                  "--radius", "0.3", "--level", "1",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert "H <= |trK| at vertex 0 (H = -0.234375, trK = 0)" in result.output


def test_bad_config_exits_two(runner, tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("definitely_not_a_key = 1\n")
    result = runner.invoke(main, ["energy", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert "unknown key definitely_not_a_key" in result.output


def test_missing_provider_file_exits_two(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, [
        "energy", "--provider", "file", "--boundary-file",
        str(tmp_path / "absent.txt"), "--level", "2", "--out", str(out)])
    assert result.exit_code == 2
    assert "not found" in result.output


def _config_of(tmp_path, text):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    return str(cfg_path)


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("radius = 1.0  # \u00e9\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("args, named", [
    (lambda p: ["admissibility", "--config", _config_of(
        p, f"volume.mesh_file = {p}\n")], "volume.mesh_file"),
    (lambda p: ["admissibility", "--config", _config_of(
        p, f"volume.mesh_file = {_not_utf8(p)}\n")], "volume.mesh_file"),
    (lambda p: ["energy", "--provider", "file", "--boundary-file", str(p),
                "--level", "1"], "provider.boundary_file"),
    (lambda p: ["energy", "--provider", "file", "--boundary-file",
                str(_not_utf8(p)), "--level", "1"], "provider.boundary_file"),
    (lambda p: ["energy", "--config", str(_not_utf8(p))], "latin1.txt"),
    (lambda p: ["energy", "--level", "1", "--out",
                str(_not_utf8(p))], "output.dir"),
], ids=["mesh-file-directory", "mesh-file-not-utf8",
        "boundary-file-directory", "boundary-file-not-utf8",
        "config-not-utf8", "out-names-a-file"])
def test_unreadable_input_exits_two_naming_it(runner, tmp_path, args,
                                              named):
    argv = args(tmp_path)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "run")]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert named in result.output
    assert "internal error" not in result.output


def test_every_qlmass_error_is_an_input_error():
    # `qlm` exits 2 on InputError alone, so an error class outside it
    # would fall through to exit 1 as an internal error
    import importlib
    import inspect
    import pkgutil

    import qlmass
    from qlmass.config import InputError

    bases = {}
    for info in pkgutil.iter_modules(qlmass.__path__):
        module = importlib.import_module(f"qlmass.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls,
                                                                Exception):
                assert issubclass(cls, InputError), name
                bases[name] = cls.__mro__[1]
    assert bases == {
        "InputError": Exception, "ConfigError": ValueError,
        "MeshError": ValueError, "MetricError": ValueError,
        "InitialDataError": ValueError, "EmbeddingError": RuntimeError,
        "EnergyError": RuntimeError, "VolumeError": RuntimeError,
        "SearchError": RuntimeError,
    }


def test_unknown_provider_exits_two(runner, tmp_path):
    result = runner.invoke(main, ["energy", "--provider", "nosuch",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2
    assert "unknown provider" in result.output


def test_degenerate_metric_exits_two(runner, tmp_path):
    # squared edge lengths of a radius 1e-200 sphere underflow to zero
    result = runner.invoke(main, ["energy", "--provider", "flat",
                                  "--radius", "1e-200", "--level", "1",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert "edge lengths must be finite and positive" in result.output
    assert "internal error" not in result.output


def _rejected(runner, tmp_path, args, config_text=None):
    """Runs `qlm energy` with args (and a config file holding
    config_text) and returns the error output of the exit-2 rejection."""
    if config_text is not None:
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config_text)
        args = args + ["--config", str(cfg_path)]
    result = runner.invoke(main, ["energy", "--out", str(tmp_path / "run")]
                           + args)
    assert result.exit_code == 2, result.output
    assert "internal error" not in result.output
    assert not (tmp_path / "run" / "energy.json").exists()
    return result.output


@pytest.mark.parametrize("huge_or_tiny, ordinary", [
    ("1e300,1e300,1e300", "1,1,1"),
    ("1e-13,0,0", "1,0,0"),
])
def test_observer_direction_of_any_finite_scale(runner, tmp_path,
                                                huge_or_tiny, ordinary):
    # the norm of the first would overflow, that of the second is below
    # any fixed threshold; both scale to the direction of the second
    energies = []
    for name, a in (("a", huge_or_tiny), ("b", ordinary)):
        out = tmp_path / name
        result = runner.invoke(main, ["energy", "--provider",
                                      "schwarzschild", "--radius", "10",
                                      "--level", "2", f"--a={a}",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        energies.append(json.loads((out / "energy.json").read_text())["E"])
    assert abs(energies[0] - energies[1]) <= 1e-14 * abs(energies[1])


def test_zero_observer_direction_rejected(runner, tmp_path):
    out = _rejected(runner, tmp_path, ["--a=0,0,-0.0", "--level", "2"])
    assert "observer.a must be nonzero, got 0.0,0.0,-0.0" in out


def test_nonpositive_radius_rejected(runner, tmp_path):
    out = _rejected(runner, tmp_path, ["--radius", "-1", "--level", "2"])
    assert "<flag>: bad value for key radius: -1.0 (must be > 0)" in out
    out = _rejected(runner, tmp_path, [], "# sphere\nradius = 0\n")
    assert "exp.cfg:2: bad value for key radius" in out


def test_nonpositive_radii_entry_rejected(runner, tmp_path):
    out = _rejected(runner, tmp_path, ["--radii", "10,-20,40"])
    assert "bad value for key radii" in out and "> 0 each" in out


def test_repeated_radius_rejected(runner, tmp_path):
    result = runner.invoke(main, [
        "asymptotics", "--provider", "schwarzschild", "--radii", "10,10,20",
        "--level", "2", "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert ("<flag>: bad value for key radii: (10.0, 10.0, 20.0) "
            "(must be > 0 each and distinct)") in result.output
    assert not (tmp_path / "run" / "asymptotics.json").exists()


def test_negative_mesh_level_rejected(runner, tmp_path):
    out = _rejected(runner, tmp_path, ["--level", "-1"])
    assert "<flag>: bad value for key mesh.level: -1 (must be >= 0)" in out


def test_empty_observer_grid_rejected(runner, tmp_path):
    out = _rejected(runner, tmp_path, ["--grid", "0"])
    assert "bad value for key observers.grid: 0 (must be >= 1)" in out


def test_no_volume_layers_rejected(runner, tmp_path):
    out = _rejected(runner, tmp_path, [], "volume.layers = 0\n")
    assert "exp.cfg:1: bad value for key volume.layers: 0" in out


@pytest.mark.parametrize("levels", ["0", "-3"])
def test_topology_levels_below_one_rejected(runner, tmp_path, levels):
    out = _rejected(runner, tmp_path, [], f"topology.levels = {levels}\n")
    assert (f"exp.cfg:1: bad value for key topology.levels: {levels} "
            f"(must be >= 1)") in out


@pytest.mark.parametrize("key, raw, rule", [
    ("embedding.degree", "-1", ">= 1"),
    ("embedding.tol", "-1.0", "> 0"),
    ("embedding.max_iterations", "0", ">= 1"),
    ("asymptotics.observers", "0", ">= 1"),
    ("observers.refine_iters", "-5", ">= 0"),
    ("harmonic.tol", "-1.0", "> 0"),
    ("harmonic.max_picard", "0", ">= 1"),
    # numpy.random.default_rng, which draws the grid rotation, takes none
    ("seed", "-1", ">= 0"),
])
def test_solver_setting_out_of_range_rejected(runner, tmp_path, key, raw,
                                              rule):
    out = _rejected(runner, tmp_path, [], f"{key} = {raw}\n")
    assert (f"exp.cfg:1: bad value for key {key}: {raw} "
            f"(must be {rule})") in out


def test_asymptotics_passes_embedding_iteration_cap(runner, tmp_path,
                                                    monkeypatch):
    import qlmass.search as search_mod

    caps = []
    embed = search_mod.embed_metric

    def spy(*args, **kwargs):
        caps.append(kwargs.get("max_iterations"))
        return embed(*args, **kwargs)

    monkeypatch.setattr(search_mod, "embed_metric", spy)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("asymptotics.observers = 1\n"
                        "embedding.max_iterations = 77\n")
    result = runner.invoke(main, [
        "asymptotics", "--config", str(cfg_path), "--radii", "1,2",
        "--level", "1", "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert caps == [77, 77]
    caps.clear()
    search_mod.asymptotics_driver(FlatData(), [np.array([0.0, 0.0, 1.0])],
                                  [1.0], mesh_level=1)
    assert caps == [200]


@pytest.mark.parametrize("bad, message", [
    ("nan", "expected four finite numbers `H trK a1 a2`, got '2 nan 0 0'"),
    ("abc", "could not convert string to float: 'abc'"),
])
def test_bad_boundary_fields_file_exits_two(runner, tmp_path, bad, message):
    path = tmp_path / "fields.txt"
    bd = extract_boundary_data(FlatData(), 1.0, level=2)
    write_boundary_fields(path, bd)
    lines = path.read_text().splitlines()
    lines[4] = f"2 {bad} 0 0"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    result = runner.invoke(main, [
        "energy", "--provider", "file", "--boundary-file", str(path),
        "--radius", "1", "--level", "2", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"{path}:5: {message}" in result.output
    assert "internal error" not in result.output
    assert not (out / "energy.json").exists()


@pytest.mark.parametrize("line", ["energy.mode = explicit",
                                  "harmonic.delta = 0.0"],
                         ids=["energy.mode", "harmonic.delta"])
def test_removed_key_rejected(runner, tmp_path, line):
    # the energy and the interior solve derive their regularizations, so
    # neither is a setting any more
    out = _rejected(runner, tmp_path, [], f"radius = 2.0\n{line}\n")
    assert f"exp.cfg:2: unknown key {line.split()[0]}" in out


def test_every_key_has_a_reader():
    # a key whose reader is deleted would be accepted and ignored
    import inspect

    import qlmass.cli as cli_mod
    import qlmass.config as config_mod

    config_src = inspect.getsource(config_mod)
    start = config_src.index("SCHEMA = {")
    outside = (inspect.getsource(cli_mod) + config_src[:start]
               + config_src[config_src.index("\n}\n", start):])
    unread = [key for key in SCHEMA
              if f'"{key}"' not in outside and f"'{key}'" not in outside]
    assert unread == []


def test_out_dir_with_hash_rejected(runner, tmp_path):
    # `run#1` would be recorded as `run` in the config the hash is made of
    out = tmp_path / "run#1"
    result = runner.invoke(main, ["energy", "--level", "1",
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "<flag>: bad value for key output.dir" in result.output
    assert not out.exists()


def test_out_dir_not_utf8_rejected(runner, tmp_path):
    # an undecodable byte of a flag arrives as a lone surrogate
    out = tmp_path / "run\udcff"
    result = runner.invoke(main, ["energy", "--level", "1",
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "<flag>: bad value for key output.dir: " in result.output
    assert "is not UTF-8 text" in result.output
    assert not out.exists()


def test_nan_mass_rejected(runner, tmp_path):
    out = _rejected(runner, tmp_path, ["--provider", "schwarzschild",
                                       "--mass", "nan", "--level", "1"])
    assert "<flag>: bad value for key provider.mass: 'nan' is not finite" \
        in out


@pytest.mark.parametrize("raw", ["a#b", " a", "a ", "a\nb", "a\x1cb"])
def test_string_that_cannot_round_trip_rejected(runner, tmp_path, raw):
    out = _rejected(runner, tmp_path, ["--boundary-file", raw])
    assert ("<flag>: bad value for key provider.boundary_file: "
            f"{raw!r} holds '#'") in out
