"""Command line experiment driver.

Config files are flat `key = value` lines with `#` comments. Subcommands
write schema-versioned CSV files into the output directory and use the
exit-code contract: 0 success, 1 config error, 2 numerical failure,
3 inequality-check failure.
"""

import argparse
import glob
import os
import sys

import numpy as np

from . import tables
from .estimates import (
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


# every key a command reads; any other key is a config error
_KEYS = frozenset((
    "domain", "lambda", "mu", "h", "alpha0", "gamma0", "alpha1",
    "target_size", "element_budget", "load", "inclusion", "kappa",
    "stilde_table", "ptilde_table", "c1", "c2",
    "rho0", "m1", "s0", "d0", "h1", "x0",
    "theta", "rho", "center", "pitch", "refinements", "corpus",
    "name", "out", "timestamp"))


def parse_config(path):
    cfg = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected 'key = value'")
                key, val = (s.strip() for s in line.split("=", 1))
                if not key:
                    raise ConfigError(f"{path}:{ln}: empty key")
                if key not in _KEYS:
                    raise ConfigError(f"{path}:{ln}: unknown key '{key}'")
                if key in cfg:
                    raise ConfigError(f"{path}:{ln}: duplicate key '{key}'")
                cfg[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    return cfg


def _f(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key '{key}'")
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"config key '{key}' is not a number: {cfg[key]!r}")


def _i(cfg, key, default=None):
    if key not in cfg:
        return default
    try:
        val = int(cfg[key])
    except ValueError:
        raise ConfigError(f"config key '{key}' is not an integer: {cfg[key]!r}")
    if val < 1:
        raise ConfigError(f"config key '{key}' must be at least 1, got {val}")
    return val


def _floats(cfg, key):
    if key not in cfg:
        raise ConfigError(f"missing config key '{key}'")
    try:
        return [float(tok) for tok in cfg[key].replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"config key '{key}' is not a number list: {cfg[key]!r}")


def _onoff(cfg, key, default):
    val = cfg.get(key)
    if val is None:
        return default
    low = val.lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"config key '{key}' must be on or off, got {val!r}")


def _set_floats(cfg, keys):
    """The number keys of keys that cfg sets; the dataclass has the rest."""
    return {key: _f(cfg, key) for key in keys if key in cfg}


def _build_apriori(cfg):
    kw = _set_floats(cfg, ("rho0", "m1", "s0", "d0", "h1"))
    if "x0" in cfg:
        parts = _floats(cfg, "x0")
        if len(parts) != 2:
            raise ConfigError("x0 needs two coordinates")
        kw["x0"] = tuple(parts)
    return AprioriData(**kw)


def _build_domain(cfg):
    spec = cfg.get("domain")
    if spec is None:
        raise ConfigError("missing config key 'domain'")
    apriori = _build_apriori(cfg)
    try:
        tokens = spec.split()
        if tokens[:1] == ["rectangle"]:
            parts = tokens[1:]
            if len(parts) != 4:
                raise ConfigError("domain rectangle needs 4 numbers")
            return Domain.rectangle(*(float(p) for p in parts), apriori)
        polys = read_polygons(spec)
        if len(polys) != 1:
            raise ConfigError("domain file must hold exactly one polygon")
        return Domain(polys[0], apriori)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad domain: {exc}")


def _build_material(cfg):
    return IsotropicMaterial(
        lam=_f(cfg, "lambda"), mu=_f(cfg, "mu"), h=_f(cfg, "h"),
        **_set_floats(cfg, ("alpha0", "gamma0", "alpha1")))


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
            incl = InclusionMaterial(kappa=_f(cfg, "kappa"))
        else:
            if "stilde_table" not in cfg or "ptilde_table" not in cfg:
                raise ConfigError("tensor override needs both stilde_table and ptilde_table")
            incl = inclusion_from_tables(cfg["stilde_table"], cfg["ptilde_table"])
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad inclusion: {exc}")
    return polys, incl


def _outdir(cfg, args):
    out = args.out or cfg.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _emit(outdir, name, build, timestamp):
    kind, header, rows = build
    path = os.path.join(outdir, f"{name}_{kind}.csv")
    tables.write_csv(path, kind, header, rows, timestamp=timestamp)
    print(path)
    return path


def _size_config(cfg, args, name):
    """The SizeExperimentConfig of a config mapping; validates every key."""
    domain = _build_domain(cfg)
    mat = _build_material(cfg)
    target = _f(cfg, "target_size")
    polys, incl = _build_inclusion(cfg)
    return SizeExperimentConfig(
        domain=domain, material=mat, target_size=target,
        load_family=cfg.get("load", "pure_bending a=1"),
        inclusion_polygons=polys, inclusion=incl,
        **_set_floats(cfg, ("c1", "c2")),
        assumed_shear=not args.full_integration,
        dense_oracle=args.dense_oracle,
        element_budget=_i(cfg, "element_budget"),
        name=name)


def _reference_field(cfg, args, name):
    """Energy field of the reference plate, for the probes.

    The probes study the inclusion-free plate and ignore inclusion keys;
    a field without energy, from a zero load, is refused.
    """
    ref = {k: v for k, v in cfg.items() if k not in _INCLUSION_KEYS}
    fw = forward(_size_config(ref, args, name))
    field = strain_energy_density(fw.state0, order=4)
    if not field.total > 0.0:
        raise ConfigError("reference energy must be positive")
    return field


def _positive(key, value):
    if not value > 0.0:
        raise ConfigError(f"{key} must be positive")
    return value


def _radii(cfg):
    """The probe radii of the rho key, a list of at least one."""
    rhos = _floats(cfg, "rho")
    if not rhos:
        raise ConfigError("config key 'rho' holds no radius")
    return rhos


def _cmd_solve(cfg, args, name, outdir, stamp):
    config = _size_config(cfg, args, name)
    fw = forward(config)
    _emit(outdir, name, tables.state_rows(fw.state), stamp)
    res = residual_check(fw.state, config.material, fw.rhs, fw.indicator,
                         config.inclusion)
    _emit(outdir, name, tables.quantity_rows(name, {
        "n_elements": fw.mesh.n_elements,
        "mesh_size": fw.mesh.mesh_size,
        "solve_residual": fw.state.residual,
        "equilibrium_residual": res[1],
        "stability_ratio": stability_ratio(fw.state, fw.load),
    }), stamp)
    return 0


def _cmd_work(cfg, args, name, outdir, stamp):
    fw = forward(_size_config(cfg, args, name))
    rep = work_report(fw.rhs, fw.state, fw.state0)
    _emit(outdir, name, tables.quantity_rows(name, rep), stamp)
    return 0


def _cmd_energy_lemma(cfg, args, name, outdir, stamp):
    config = _size_config(cfg, args, name)
    if config.inclusion is None:
        raise ConfigError("energy-lemma needs an inclusion")
    lemma = run_size_experiment(config).lemma
    _emit(outdir, name, tables.quantity_rows(name, lemma), stamp)
    for msg in lemma.messages:
        print(f"energy lemma: {msg}", file=sys.stderr)
    return 0 if lemma.passed else 3


def _cmd_size(cfg, args, name, outdir, stamp):
    rep = run_size_experiment(_size_config(cfg, args, name))
    _emit(outdir, name, tables.corpus_rows([rep]), stamp)
    _emit(outdir, name, tables.quantity_rows(name, rep), stamp)
    if not rep.passed:
        for msg in rep.messages:
            print(f"size: {msg}", file=sys.stderr)
    return 0 if rep.passed else 3


# the share of centers a three-spheres sweep must fit
FEASIBLE_FRACTION = 0.95


def _cmd_three_spheres(cfg, args, name, outdir, stamp):
    # the probe keys are checked before the solve
    rhos = _radii(cfg)
    if len(rhos) != 1:
        raise ConfigError(f"rho holds {len(rhos)} radii; three-spheres "
                          "takes one")
    rho = _positive("rho", rhos[0])
    theta = _positive("theta", _f(cfg, "theta", 0.3))
    centers = pitch = None
    if "center" in cfg:
        centers = np.array([_floats(cfg, "center")])
        if centers.shape != (1, 2):
            raise ConfigError("center needs two coordinates")
    elif "pitch" in cfg:
        pitch = _positive("pitch", _f(cfg, "pitch"))
    if not rho < _build_apriori(cfg).rho0:
        raise ConfigError("rho must be smaller than rho0")
    field = _reference_field(cfg, args, name)
    if centers is None:
        centers = admissible_centers(field.mesh, rho, theta, pitch)
    reports = three_spheres_sweep(field, centers, rho, theta)
    _emit(outdir, name, tables.three_spheres_rows(reports), stamp)
    frac = sum(r.feasible for r in reports) / len(reports)
    _emit(outdir, name, tables.quantity_rows(name, {
        "rho": rho, "theta": theta, "n_centers": len(reports),
        "feasible_fraction": frac,
    }), stamp)
    if frac < FEASIBLE_FRACTION:
        print(f"three-spheres: feasible fraction {frac:.3f} < "
              f"{FEASIBLE_FRACTION}", file=sys.stderr)
        return 3
    return 0


def _cmd_lps(cfg, args, name, outdir, stamp):
    theta = _positive("theta", _f(cfg, "theta", 0.3))
    rhos = [_positive("rho", rho) for rho in _radii(cfg)]
    # a radius names its CSV and its quantities at 6 significant digits
    tags = [f"{rho:g}" for rho in rhos]
    twin = next((t for i, t in enumerate(tags) if t in tags[:i]), None)
    if twin is not None:
        raise ConfigError(f"rho holds two radii that print as {twin}")
    field = _reference_field(cfg, args, name)
    code = 0
    quantities = {"theta": theta}
    # every radius is checked before the first CSV is written
    reports = [lps_check(field, rho, theta) for rho in rhos]
    for tag, rep in zip(tags, reports):
        _emit(outdir, f"{name}_rho{tag}".replace(".", "p"),
              tables.lps_rows(rep), stamp)
        quantities[f"constant_rho_{tag}"] = rep.constant
        quantities[f"n_centers_rho_{tag}"] = len(rep.centers)
        if not rep.constant > 0.0:
            print(f"lps: no positive smallness constant at rho {tag}",
                  file=sys.stderr)
            code = 3
    _emit(outdir, name, tables.quantity_rows(name, quantities), stamp)
    return code


# convergence targets: the observed order of the finest level and the
# relative work error
MIN_ORDER = 1.9
WORK_RTOL = 0.005


def _cmd_convergence(cfg, args, name, outdir, stamp):
    domain = _build_domain(cfg)
    mat = _build_material(cfg)
    records = convergence_study(
        domain, mat, cfg.get("load", "pure_bending a=1"),
        target0=_f(cfg, "target_size", 0.25),
        levels=_i(cfg, "refinements", 3),
        assumed_shear=not args.full_integration)
    _emit(outdir, name, tables.convergence_rows(records), stamp)
    w_err, last_order = records[-1][3:]
    if last_order is not None and last_order < MIN_ORDER:
        print(f"convergence: observed order {last_order:.3f} < {MIN_ORDER}",
              file=sys.stderr)
        return 3
    if w_err > WORK_RTOL:
        print(f"convergence: work error {w_err:.3e} over tolerance",
              file=sys.stderr)
        return 3
    return 0


def _cmd_calibrate(cfg, args, name, outdir, stamp):
    corpus_dir = cfg.get("corpus")
    if corpus_dir is None:
        raise ConfigError("missing config key 'corpus'")
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
    # the fit needs every entry's verdict; a failed entry ends as in size
    failed = [r.name for r in entries if not r.passed]
    if failed:
        for entry in failed:
            print(f"calibrate: {entry} failed checks", file=sys.stderr)
        _emit(outdir, name, tables.corpus_rows(reports), stamp)
        return 3
    jumps = [JumpBounds(r.eta, r.delta, r.regime) for r in entries]
    fit = calibrate_constants([(r.true_area, r.gap, r.work_reference, jb)
                               for r, jb in zip(entries, jumps)], rho0=rho0)

    code = 0
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
            print(f"calibrate: {r.name} not bracketed", file=sys.stderr)
            code = 3
    _emit(outdir, name, tables.corpus_rows(reports), stamp)
    _emit(outdir, name, ("calibration",
                         ("id", "true_area", "lower", "upper", "bracketed"),
                         rows), stamp)
    _emit(outdir, name, tables.quantity_rows(name, {
        "c1": fit.c1, "c2": fit.c2, "spread": fit.c2 / fit.c1,
        "worst_interval_ratio": worst_spread, "count": fit.count,
        "regime": fit.regime,
    }), stamp)
    return code


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
        stamp = _onoff(cfg, "timestamp", True)
        return _HANDLERS[args.command](cfg, args, name, outdir, stamp)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SolveError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
