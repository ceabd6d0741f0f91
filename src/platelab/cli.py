"""Command line experiment driver.

Config files are flat `key = value` lines with `#` comments. Subcommands
return tables, which main writes as schema-versioned CSV files into the
output directory, and use the exit-code contract: 0 success, 1 config
error, 2 numerical failure, 3 inequality-check failure. A run that ends in
1 or 2 leaves no CSV.
"""

import argparse
import glob
import math
import os
import sys
from functools import partial

import numpy as np

from . import tables
from .estimates import (
    THETA,
    SizeExperimentConfig,
    admissible_centers,
    calibrate_constants,
    convergence_study,
    forward,
    lps_check,
    run_corpus,
    run_size_experiment,
    size_bounds,
    three_spheres_sweep,
)
from .functionals import stability_ratio, strain_energy_density, work_report
from .geometry import AprioriData, Domain, read_polygons
from .material import (
    InclusionMaterial,
    IsotropicMaterial,
    JumpBounds,
    inclusion_from_tables,
)
from .solver import SolveError, residual_check

class ConfigError(Exception):
    pass


class _Config(dict):
    """Typed values by key; reading a key the file lacks is a config error."""

    def __missing__(self, key):
        raise ConfigError(f"missing config key '{key}'")


def _numbers(key, text, count=None, positive=False):
    # finite numbers: count 1 is one number, 2 a pair and None a list of
    # one or more, split at commas and spaces
    try:
        values = [float(tok) for tok in
                  ([text] if count == 1 else text.replace(",", " ").split())]
    except ValueError:
        raise ConfigError(f"config key '{key}' is not a number"
                          f"{'' if count == 1 else ' list'}: {text!r}")
    if count == 2 and len(values) != 2:
        raise ConfigError(f"{key} needs two coordinates")
    if not values:
        raise ConfigError(f"config key '{key}' holds no radius")
    for value in values:
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite")
        if positive and not value > 0.0:
            raise ConfigError(f"{key} must be positive")
    return values[0] if count == 1 else tuple(values) if count else values


def _count(key, text):
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"config key '{key}' is not an integer: {text!r}")
    if value < 1:
        raise ConfigError(f"config key '{key}' must be at least 1, got {value}")
    return value


def _switch(key, text):
    on = text.lower() in ("on", "true", "1", "yes")
    if not on and text.lower() not in ("off", "false", "0", "no"):
        raise ConfigError(f"config key '{key}' must be on or off, got {text!r}")
    return on


def _stem(key, text):
    if not text or any(c in text for c in ("/", os.sep, "\0")):
        raise ConfigError(f"{key} must be a plain file name, got {text!r}")
    return text


def _domain(key, text):
    tokens = text.split()
    if tokens[:1] != ["rectangle"]:
        return text  # the path of a polygon file
    if len(tokens) != 5:
        raise ConfigError("domain rectangle needs 4 numbers")
    return tuple(_numbers(key, tok, 1) for tok in tokens[1:])


# every config key and the one parser of its text, applied when the file is
# read; name is the stem of the output files <name>_<kind>.csv
_KEYS = {
    "domain": _domain, "timestamp": _switch, "name": _stem,
    "rho": partial(_numbers, positive=True),
    **dict.fromkeys(("x0", "center"), partial(_numbers, count=2)),
    **dict.fromkeys(("element_budget", "refinements"), _count),
    **dict.fromkeys(("theta", "pitch"),
                    partial(_numbers, count=1, positive=True)),
    **dict.fromkeys(("lambda", "mu", "h", "alpha0", "gamma0", "alpha1",
                     "target_size", "kappa", "c1", "c2", "rho0", "m1", "s0",
                     "d0", "h1"), partial(_numbers, count=1)),
    **dict.fromkeys(("load", "inclusion", "stilde_table", "ptilde_table",
                     "corpus", "out"), lambda key, text: text)}


def parse_config(path):
    try:
        with open(path) as fh:
            lines = list(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    cfg = _Config()
    for ln, line in enumerate(lines, 1):
        key, eq, val = (s.strip() for s in line.split("#", 1)[0].partition("="))
        if eq and key in _KEYS and key not in cfg:
            cfg[key] = _KEYS[key](key, val)
        elif key or eq:
            raise ConfigError(f"{path}:{ln}: " + (
                "expected 'key = value'" if not eq else "empty key" if not key
                else f"duplicate key '{key}'" if key in cfg
                else f"unknown key '{key}'"))
    return cfg


def _given(cfg, *keys, **renamed):
    """Keyword arguments of the keys the config sets, each named as its key
    or as renamed maps it; a key left out keeps the library's default."""
    params = dict(zip(keys, keys), **renamed)
    return {param: cfg[key] for param, key in params.items() if key in cfg}


def _build_apriori(cfg):
    return AprioriData(**_given(cfg, "rho0", "m1", "s0", "d0", "h1", "x0"))


def _build_domain(cfg):
    spec = cfg["domain"]
    apriori = _build_apriori(cfg)
    try:
        if isinstance(spec, tuple):
            return Domain.rectangle(*spec, apriori)
        polys = read_polygons(spec)
        if len(polys) != 1:
            raise ConfigError("domain file must hold exactly one polygon")
        return Domain(polys[0], apriori)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad domain: {exc}")


def _build_material(cfg):
    return IsotropicMaterial(
        lam=cfg["lambda"], mu=cfg["mu"], h=cfg["h"],
        **_given(cfg, "alpha0", "gamma0", "alpha1"))


_INCLUSION_KEYS = ("inclusion", "kappa", "stilde_table", "ptilde_table")


def _build_inclusion(cfg):
    """(polygons tuple, InclusionMaterial or None) from config."""
    path = cfg.get("inclusion")
    has_kappa = "kappa" in cfg
    has_tables = "stilde_table" in cfg or "ptilde_table" in cfg
    if path is None:
        if has_kappa or has_tables:
            raise ConfigError("inclusion material given without inclusion polygons")
        return (), None
    if has_kappa == has_tables:
        raise ConfigError("give exactly one of kappa or tensor tables")
    try:
        polys = tuple(read_polygons(path))
        if has_kappa:
            incl = InclusionMaterial(kappa=cfg["kappa"])
        else:
            if "stilde_table" not in cfg or "ptilde_table" not in cfg:
                raise ConfigError("tensor override needs both stilde_table and ptilde_table")
            incl = inclusion_from_tables(cfg["stilde_table"], cfg["ptilde_table"])
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad inclusion: {exc}")
    return polys, incl


def _outdir(cfg, args):
    out = args.out or cfg.get("out") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out!r}: "
                          f"{exc.strerror}")
    return out


def _size_config(cfg, args, name):
    """The SizeExperimentConfig of a parsed config; builds every part."""
    domain = _build_domain(cfg)
    mat = _build_material(cfg)
    target = cfg["target_size"]
    polys, incl = _build_inclusion(cfg)
    return SizeExperimentConfig(
        domain=domain, material=mat, target_size=target,
        inclusion_polygons=polys, inclusion=incl,
        **_given(cfg, "c1", "c2", "element_budget", load_family="load"),
        assumed_shear=not args.full_integration,
        dense_oracle=args.dense_oracle, name=name)


def _reference_config(cfg, args, name):
    """The SizeExperimentConfig of the plate without its inclusion: the
    probes and convergence study the inclusion-free plate and ignore the
    inclusion keys."""
    ref = _Config((k, v) for k, v in cfg.items() if k not in _INCLUSION_KEYS)
    return _size_config(ref, args, name)


def _reference_field(cfg, args, name):
    """Energy field of the reference plate, for the probes; a field without
    energy, from a zero load, is refused."""
    fw = forward(_reference_config(cfg, args, name))
    field = strain_energy_density(fw.state0, order=4)
    if not field.total > 0.0:
        raise ConfigError("reference energy must be positive")
    return field


# Every command handler takes (cfg, args, name), writes and prints nothing,
# and returns (tables, failures): the (stem, (kind, header, rows)) tables
# that main writes to <stem>_<kind>.csv, in order, and the stderr lines of
# the checks that failed, which make the exit code 3.


def _cmd_solve(cfg, args, name):
    config = _size_config(cfg, args, name)
    fw = forward(config)
    res = residual_check(fw.state, config.material, fw.rhs, fw.indicator,
                         config.inclusion)
    return [(name, tables.state_rows(fw.state)),
            (name, tables.quantity_rows(name, {
                "n_elements": fw.mesh.n_elements,
                "mesh_size": fw.mesh.mesh_size,
                "solve_residual": fw.state.residual,
                "equilibrium_residual": res[1],
                "stability_ratio": stability_ratio(fw.state, fw.load),
            }))], []


def _cmd_work(cfg, args, name):
    fw = forward(_size_config(cfg, args, name))
    rep = work_report(fw.rhs, fw.state, fw.state0)
    return [(name, tables.quantity_rows(name, rep))], []


def _cmd_energy_lemma(cfg, args, name):
    config = _size_config(cfg, args, name)
    if config.inclusion is None:
        raise ConfigError("energy-lemma needs an inclusion")
    lemma = run_size_experiment(config).lemma
    return [(name, tables.quantity_rows(name, lemma))], \
        [f"energy lemma: {msg}" for msg in lemma.messages]


def _cmd_size(cfg, args, name):
    rep = run_size_experiment(_size_config(cfg, args, name))
    return [(name, tables.corpus_rows([rep])),
            (name, tables.quantity_rows(name, rep))], \
        [] if rep.passed else [f"size: {msg}" for msg in rep.messages]


def _probe_keys(cfg):
    """The radii and theta of both probes."""
    return cfg["rho"], cfg.get("theta", THETA)


# the share of centers a three-spheres sweep must fit
FEASIBLE_FRACTION = 0.95


def _cmd_three_spheres(cfg, args, name):
    # the probe keys are checked before the solve
    rhos, theta = _probe_keys(cfg)
    if len(rhos) != 1:
        raise ConfigError(f"rho holds {len(rhos)} radii; three-spheres "
                          "takes one")
    rho = rhos[0]
    if not rho < _build_apriori(cfg).rho0:
        raise ConfigError("rho must be smaller than rho0")
    field = _reference_field(cfg, args, name)
    centers = np.array([cfg["center"]]) if "center" in cfg else \
        admissible_centers(field.mesh, rho, theta, cfg.get("pitch"))
    reports = three_spheres_sweep(field, centers, rho, theta)
    frac = sum(r.feasible for r in reports) / len(reports)
    failures = [f"three-spheres: feasible fraction {frac:.3f} < "
                f"{FEASIBLE_FRACTION}"] if frac < FEASIBLE_FRACTION else []
    return [(name, tables.three_spheres_rows(reports)),
            (name, tables.quantity_rows(name, {
                "rho": rho, "theta": theta, "n_centers": len(reports),
                "feasible_fraction": frac,
            }))], failures


def _cmd_lps(cfg, args, name):
    rhos, theta = _probe_keys(cfg)
    # a radius names its CSV and its quantities at 6 significant digits
    tags = [f"{rho:g}" for rho in rhos]
    twin = next((t for i, t in enumerate(tags) if t in tags[:i]), None)
    if twin is not None:
        raise ConfigError(f"rho holds two radii that print as {twin}")
    field = _reference_field(cfg, args, name)
    results, failures = [], []
    quantities = {"theta": theta}
    for tag, rho in zip(tags, rhos):
        rep = lps_check(field, rho, theta)
        results.append((f"{name}_rho{tag.replace('.', 'p')}",
                        tables.lps_rows(rep)))
        quantities[f"constant_rho_{tag}"] = rep.constant
        quantities[f"n_centers_rho_{tag}"] = len(rep.centers)
        if not rep.constant > 0.0:
            failures.append(f"lps: no positive smallness constant at rho "
                            f"{tag}")
    return results + [(name, tables.quantity_rows(name, quantities))], failures


# convergence targets: the observed order of the finest level and the
# relative work error
MIN_ORDER = 1.9
WORK_RTOL = 0.005


def _cmd_convergence(cfg, args, name):
    records = convergence_study(_reference_config(cfg, args, name),
                                **_given(cfg, levels="refinements"))
    w_err, last_order = records[-1][3:]
    failures = []
    if last_order is not None and last_order < MIN_ORDER:
        failures = [f"convergence: observed order {last_order:.3f} < "
                    f"{MIN_ORDER}"]
    elif w_err > WORK_RTOL:
        failures = [f"convergence: work error {w_err:.3e} over tolerance"]
    return [(name, tables.convergence_rows(records))], failures


def _cmd_calibrate(cfg, args, name):
    corpus_dir = cfg["corpus"]
    paths = sorted(glob.glob(os.path.join(corpus_dir, "*.cfg")))
    if not paths:
        raise ConfigError(f"no *.cfg files in {corpus_dir}")
    configs = []
    for p in paths:
        sub = parse_config(p)
        cname = sub.get("name", os.path.splitext(os.path.basename(p))[0])
        configs.append(_size_config(sub, args, cname))
    # the size bounds scale with rho0^2, so one fit needs one rho0
    rho0 = configs[0].domain.apriori.rho0
    for p, c in zip(paths, configs):
        if c.domain.apriori.rho0 != rho0:
            raise ConfigError(f"corpus mixes rho0 = {rho0!r} ({paths[0]}) and "
                              f"rho0 = {c.domain.apriori.rho0!r} ({p})")

    reports = run_corpus(configs, args.jobs)

    entries = [r for r in reports if r.regime is not None]
    if not entries:
        raise ConfigError("calibration corpus has no inclusion experiments")
    results = [(name, tables.corpus_rows(reports))]
    # the fit needs every entry's verdict; a failed entry ends as in size
    failures = [f"calibrate: {r.name} failed checks"
                for r in entries if not r.passed]
    if failures:
        return results, failures
    jumps = [JumpBounds(r.eta, r.delta, r.regime) for r in entries]
    fit = calibrate_constants([(r.true_area, r.gap, r.work_reference, jb)
                               for r, jb in zip(entries, jumps)], rho0=rho0)

    rows = []
    worst_spread = 0.0
    for r, jb in zip(entries, jumps):
        lo, hi = size_bounds(r.gap, r.work_reference, jb, fit.c1, fit.c2, rho0)
        bracketed = lo <= r.true_area * (1 + 1e-12) and \
            r.true_area <= hi * (1 + 1e-12)
        if lo > 0.0:
            worst_spread = max(worst_spread, hi / lo)
        rows.append((r.name, r.true_area, lo, hi, 1 if bracketed else 0))
        if not bracketed:
            failures.append(f"calibrate: {r.name} not bracketed")
    return results + [
        (name, ("calibration",
                ("id", "true_area", "lower", "upper", "bracketed"), rows)),
        (name, tables.quantity_rows(name, {
            "c1": fit.c1, "c2": fit.c2, "spread": fit.c2 / fit.c1,
            "worst_interval_ratio": worst_spread, "count": fit.count,
            "regime": fit.regime,
        }))], failures


_HANDLERS = {
    "solve": _cmd_solve,
    "work": _cmd_work,
    "energy-lemma": _cmd_energy_lemma,
    "size": _cmd_size,
    "three-spheres": _cmd_three_spheres,
    "lps": _cmd_lps,
    "convergence": _cmd_convergence,
    "calibrate": _cmd_calibrate,
}


def _jobs(text):
    # the --jobs type: argparse refuses other values with a line naming it
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}")
    return value


def _parser():
    p = argparse.ArgumentParser(
        prog="platelab",
        description="Reissner-Mindlin plate laboratory: forward solves, "
                    "boundary-work measurements, and size-estimate checks.")
    p.add_argument("command", choices=sorted(_HANDLERS))
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--dense-oracle", action="store_true")
    p.add_argument("--full-integration", action="store_true")
    return p


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # keep the exit-code contract: usage problems are config errors
        return 0 if exc.code == 0 else 1
    try:
        cfg = parse_config(args.config)
        name = cfg.get("name", args.command.replace("-", "_"))
        outdir = _outdir(cfg, args)
        results, failures = _HANDLERS[args.command](cfg, args, name)
        paths = []
        for stem, (kind, header, rows) in results:
            path = os.path.join(outdir, f"{stem}_{kind}.csv")
            try:
                paths.append(tables.write_csv(
                    path, kind, header, rows,
                    timestamp=cfg.get("timestamp", True)))
            except OSError as exc:
                # a run that does not end in 0 or 3 leaves no CSV
                for done in paths:
                    os.remove(done)
                raise ConfigError(f"cannot write {path!r}: "
                                  f"{exc.strerror or exc}")
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SolveError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    for line in failures:
        print(line, file=sys.stderr)
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
