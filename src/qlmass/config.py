"""Plain-text experiment configuration and run manifests.

Config files are `key = value` lines with `#` comments.  Every key has a
default; unknown or duplicate keys, non-finite numbers, strings holding
`#`, a line break or surrounding whitespace, and values outside LIMITS
are rejected with the offending line number (or `<flag>`).  Every
accepted config round-trips: parse_config(serialize_config(cfg)) == cfg
(floats round-trip through repr), so its hash names what ran.
"""

import hashlib
import json
import time

import numpy as np

from . import __version__


class InputError(Exception):
    """Base of every error that bad input causes; `qlm` exits 2 on it."""


class ConfigError(ValueError, InputError):
    pass


SCHEMA_VERSION = 1

# the values of energy.mode, named here so that reading a config loads no
# numerical layer
ENERGY_MODES = ("explicit", "epsLimit", "both")

# the default of topology.levels and of every sampled topology scan
TOPOLOGY_LEVELS = 64

# key -> (type, default, help); types: int, float, str, floats (comma
# separated list), vec3 (comma separated triple)
SCHEMA = {
    "schemaVersion": ("int", SCHEMA_VERSION, "config schema version"),
    "seed": ("int", 0, "seed for all randomized sweeps and grid rotations"),
    "provider": ("str", "flat",
                 "initial data provider: flat, schwarzschild, bowen_york, "
                 "or file"),
    "provider.mass": ("float", 1.0, "mass parameter of the "
                                    "schwarzschild provider"),
    "provider.momentum": ("vec3", (0.0, 0.0, 0.1),
                          "momentum vector of the bowen_york provider"),
    "provider.boundary_file": ("str", "",
                               "boundary fields file for provider = file "
                               "(four columns: H trK a1 a2 on the round "
                               "sphere of the configured radius)"),
    "radius": ("float", 1.0, "coordinate sphere radius for single-surface "
                             "commands"),
    "radii": ("floats", (10.0, 20.0, 40.0, 80.0),
              "radius ladder for the asymptotics command"),
    "mesh.level": ("int", 3, "icosphere refinement level"),
    "embedding.degree": ("int", 16,
                         "spherical-harmonic degree of the embedding solve"),
    "embedding.tol": ("float", 1e-8, "embedding defect tolerance"),
    "embedding.max_iterations": ("int", 200,
                                 "embedding Gauss-Newton iteration cap"),
    "observer.a": ("vec3", (0.0, 0.0, 1.0),
                   "observer direction for single-observer commands"),
    "observers.grid": ("int", 256, "direction grid size for mass search"),
    "observers.refine_iters": ("int", 50,
                               "local refinement iterations for mass "
                               "search"),
    "asymptotics.observers": ("int", 8,
                              "observer directions per radius in the "
                              "asymptotics command"),
    "energy.mode": ("str", "explicit",
                    "energy evaluation mode: explicit, epsLimit, or both"),
    "volume.layers": ("int", 8, "interior shell layers of the fill-in"),
    "volume.mesh_file": ("str", "",
                         "tetrahedral fill-in file overriding the built "
                         "star-shaped fill-in (empty selects the builder)"),
    "harmonic.delta": ("float", 0.0,
                       "gradient regularization of the interior solver "
                       "(0 selects the automatic scale)"),
    "harmonic.tol": ("float", 1e-10,
                     "interior solver stop on the fixed-point step, the "
                     "largest change of u that one Picard step makes"),
    "harmonic.max_picard": ("int", 100,
                            "interior solver fixed-point iteration cap"),
    "topology.levels": ("int", TOPOLOGY_LEVELS,
                        "sampled level sets per topology scan"),
    "output.dir": ("str", "out", "output directory"),
}


# key -> (rule, test) for the values a key admits
LIMITS = {
    "seed": (">= 0", lambda v: v >= 0),
    "radius": ("> 0", lambda v: v > 0.0),
    "radii": ("> 0 each and distinct",
              lambda v: all(r > 0.0 for r in v) and len(set(v)) == len(v)),
    "mesh.level": (">= 0", lambda v: v >= 0),
    "embedding.degree": (">= 1", lambda v: v >= 1),
    "embedding.tol": ("> 0", lambda v: v > 0.0),
    "embedding.max_iterations": (">= 1", lambda v: v >= 1),
    "observers.grid": (">= 1", lambda v: v >= 1),
    "observers.refine_iters": (">= 0", lambda v: v >= 0),
    "asymptotics.observers": (">= 1", lambda v: v >= 1),
    "volume.layers": (">= 1", lambda v: v >= 1),
    "harmonic.delta": (">= 0", lambda v: v >= 0.0),
    "harmonic.tol": ("> 0", lambda v: v > 0.0),
    "harmonic.max_picard": (">= 1", lambda v: v >= 1),
    "topology.levels": (">= 1", lambda v: v >= 1),
    "energy.mode": ("one of " + ", ".join(ENERGY_MODES),
                    lambda v: v in ENERGY_MODES),
}


def default_config():
    return {key: spec[1] for key, spec in SCHEMA.items()}


def _parse_value(key, kind, raw, where):
    try:
        if kind == "int":
            value = int(raw)
        elif kind == "float":
            value = float(raw)
        elif kind == "str":
            value = raw
            # anything else would not read back from serialize_config
            if "#" in raw or raw != raw.strip() or len(raw.splitlines()) > 1:
                raise ValueError(f"{raw!r} holds '#', a line break or "
                                 f"surrounding whitespace")
            # a lone surrogate (an undecodable byte of a flag) has no UTF-8
            # form, so the config hash could not be taken
            try:
                raw.encode()
            except UnicodeEncodeError:
                raise ValueError(f"{raw!r} is not UTF-8 text") from None
        else:
            value = tuple(float(p) for p in raw.split(","))
            if kind == "vec3" and len(value) != 3:
                raise ValueError("expected three components")
        if kind not in ("int", "str") and not np.all(np.isfinite(value)):
            raise ValueError(f"{raw!r} is not finite")
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for key {key}: {exc}")
    rule, test = LIMITS.get(key, (None, None))
    if rule is not None and not test(value):
        raise ConfigError(f"{where}: bad value for key {key}: {value!r} "
                          f"(must be {rule})")
    return value


def _format_value(kind, value):
    if kind == "int":
        return str(int(value))
    if kind == "float":
        return repr(float(value))
    if kind == "str":
        return str(value)
    return ",".join(repr(float(v)) for v in value)


def parse_config(text, source="<config>"):
    """Config dict from `key = value` text; defaults fill missing keys."""
    cfg = default_config()
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source}:{lineno}: expected `key = value`, got {line!r}"
            )
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key}")
        seen.add(key)
        cfg[key] = _parse_value(key, SCHEMA[key][0], raw,
                                f"{source}:{lineno}")
    if cfg["schemaVersion"] != SCHEMA_VERSION:
        raise ConfigError(
            f"{source}: unsupported schemaVersion {cfg['schemaVersion']} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    return cfg


def read_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text, source=str(path))


def serialize_config(cfg):
    """Canonical text form, keys in schema order with help comments."""
    lines = []
    for key, (kind, _, help_text) in SCHEMA.items():
        lines.append(f"# {help_text}")
        lines.append(f"{key} = {_format_value(kind, cfg[key])}")
    return "\n".join(lines) + "\n"


def config_hash(cfg):
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def observer_vector(cfg):
    a = np.asarray(cfg["observer.a"], dtype=float)
    norm = np.linalg.norm(a)
    if norm < 1e-12:
        raise ConfigError("observer.a must be nonzero")
    return a / norm


def file_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunManifest:
    """Reproducibility record of one command invocation: the config hash,
    the code version, wall times per operation, and content hashes of
    every written output.

    `import_seconds`, the time the program took to import its modules,
    is the first wall time, `imports`, and counts toward totalSeconds.
    """

    def __init__(self, command, cfg, import_seconds):
        self.command = command
        self.config_hash = config_hash(cfg)
        self.code_version = __version__
        self.started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.wall_times = {"imports": import_seconds}
        self.outputs = []
        self._mark = time.perf_counter()
        self._t0 = self._mark - import_seconds

    def record(self, operation):
        now = time.perf_counter()
        self.wall_times[operation] = now - self._mark
        self._mark = now

    def add_output(self, path):
        self.outputs.append({"path": str(path), "sha256": file_hash(path)})

    def write(self, path):
        payload = {
            "command": self.command,
            "configHash": self.config_hash,
            "codeVersion": self.code_version,
            "started": self.started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "totalSeconds": time.perf_counter() - self._t0,
            "wallTimes": self.wall_times,
            "outputs": self.outputs,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
