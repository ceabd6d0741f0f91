"""Workload inputs and output checks for the platelab benchmark.

Each workload is a list of CLI operations. Every operation runs
`platelab.cli.main` in a fresh Python process, one at a time (a closed loop
with one client). The seed draws the inclusion polygons and the stiff kappa
values; the program only sees the config and polygon files written here.

Noise common to every workload, seen at the seed commit on a 2-core
sandbox (OpenBLAS 0.3.31, scipy 1.17.1):
  * `import platelab` (setup_s) takes 0.35-0.73 s;
  * the first threaded LAPACK call in a fresh process sometimes stalls for
    about 1 s. BLAS threads are deliberately not pinned: users pay it;
  * the host's CPU speed drifts: a fixed pure-Python loop took 0.18-0.29 s
    within two minutes, with no steal time, so one operation varies by
    +-15% from run to run.
"""

import csv
import os
from dataclasses import dataclass, field

import numpy as np

# lambda = mu = h = 1 gives nu = 1/4 and B = 2/9, so pure bending with a = 1
# stores W0 = 2 B (1 + nu) a^2 |Omega| = 5/9 on the unit square.
MATERIAL = "lambda = 1.0\nmu = 1.0\nh = 1.0\n"
SQUARE_WORK_REFERENCE = 5.0 / 9.0

LSHAPE = ((0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 0.5), (0.5, 1.0), (0.0, 1.0))

WORKLOADS = ("size-ladder", "calibrate-corpus", "probe-sweep")


@dataclass
class Op:
    """One CLI operation: `platelab <argv>` plus what its outputs must satisfy."""

    label: str
    kind: str          # size, calibrate, three-spheres or lps
    argv: list
    outdir: str
    meta: dict = field(default_factory=dict)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _polygon_text(vertices):
    return "".join(f"{float(x)!r} {float(y)!r}\n" for x, y in vertices)


def star_polygon(rng, center, radius):
    """Seeded star-shaped polygon: sorted angles, radii within 30% of radius,
    so the polygon is simple and stays inside the disk of 1.3 * radius."""
    k = int(rng.integers(8, 15))
    angles = (np.arange(k) + rng.uniform(-0.3, 0.3, k)) * (2.0 * np.pi / k)
    radii = radius * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, k))
    return np.column_stack([center[0] + radii * np.cos(angles),
                            center[1] + radii * np.sin(angles)])


def _size_config(path, domain, n, poly_path, kappa, name, load="pure_bending a=1"):
    return _write(path, f"domain = {domain}\n{MATERIAL}"
                        f"target_size = {1.0 / n!r}\nload = {load}\n"
                        f"inclusion = {poly_path}\nkappa = {kappa!r}\n"
                        f"name = {name}\ntimestamp = off\n")


def _op(workdir, label, kind, argv, **meta):
    outdir = os.path.join(workdir, "out", label)
    return Op(label, kind, argv + ["--out", outdir], outdir, meta)


def size_ladder(rng, workdir, small=False):
    """`platelab size` on the unit square and the L-shape at 32^2, 64^2, 128^2.

    Why: factorization dominates the top rungs (at 128^2 the two solves take
    about 4.7 s of 8.4 s on the square and 8.5 s of 15.5 s on the L-shape),
    both meshers run (structured and overlay), and the 128^2 rungs set the
    memory ceiling (about 481 MB and 708 MB). About 30 s per pass, so a run
    holds one pass.

    Noise at the seed: `size` on the 128^2 square took 7.5-11.3 s over 6
    processes (the boundary `eigh` took 1.0 s instead of 0.04 s in 1 of 3);
    peak RSS varies by less than 0.5%. The seed does not change the factor
    fill (within 1% at 64^2), so the time spread is the host's.
    """
    sizes = (8,) if small else (32, 64, 128)
    lshape = _write(os.path.join(workdir, "lshape.poly"), _polygon_text(LSHAPE))
    kappa = float(rng.uniform(1.5, 3.0))
    shapes = {
        # the square inclusion stays inside [0.11, 0.89]^2, the L-shape one
        # inside the lower-left block [0.02, 0.48]^2
        "square": ("rectangle 0 0 1 1",
                   star_polygon(rng, 0.5 + rng.uniform(-0.1, 0.1, 2),
                                rng.uniform(0.12, 0.22))),
        "lshape": (lshape,
                   star_polygon(rng, 0.25 + rng.uniform(-0.05, 0.05, 2),
                                rng.uniform(0.08, 0.14))),
    }
    ops = []
    for dom, (spec, poly) in shapes.items():
        poly_path = _write(os.path.join(workdir, f"{dom}_inclusion.poly"),
                           _polygon_text(poly))
        for n in sizes:
            label = f"{dom}-{n}"
            cfg = _size_config(os.path.join(workdir, f"{label}.cfg"), spec, n,
                               poly_path, kappa, label.replace("-", "_"))
            ops.append(_op(workdir, label, "size",
                           ["size", "--config", cfg],
                           domain=dom, name=label.replace("-", "_")))
    return ops


def calibrate_corpus(rng, workdir, small=False):
    """One `platelab calibrate --jobs 2` over 40 configs at 32^2: 10 seeded
    inclusion shapes x {pure_bending, twist} x 2 stiff kappa.

    Why: fixed per-experiment cost dominates and most of it repeats work (80
    mesh generations for one distinct mesh, 80 solves of which the 40
    reference solves cover 2 distinct states), so mesh, caching and
    shared-pipeline changes show here. It is the only threaded workload, so
    contention and cache safety show here too. About 10 s.

    Noise at the seed: `--jobs 2` took 10.5-11.7 s and `--jobs 1` 9.3-11.4 s,
    so threads give no speed-up; peak RSS varies by a few percent with the
    thread interleaving.
    """
    n_shapes, kappas, n = (1, 2, 16) if small else (10, 2, 32)
    corpus = os.path.join(workdir, "corpus")
    os.makedirs(corpus, exist_ok=True)
    names = []
    for s in range(n_shapes):
        poly = star_polygon(rng, 0.5 + rng.uniform(-0.15, 0.15, 2),
                            rng.uniform(0.08, 0.2) if not small else 0.25)
        poly_path = _write(os.path.join(workdir, f"shape{s:02d}.poly"),
                           _polygon_text(poly))
        for k, kappa in enumerate(rng.uniform(1.5, 4.0, kappas)):
            for load in ("pure_bending a=1", "twist a=1"):
                name = f"s{s:02d}_{load.split()[0]}_k{k}"
                _size_config(os.path.join(corpus, f"{name}.cfg"),
                             "rectangle 0 0 1 1", n, poly_path, float(kappa),
                             name, load)
                names.append(name)
    cfg = _write(os.path.join(workdir, "calibrate.cfg"),
                 f"corpus = {corpus}\nname = corpus\ntimestamp = off\n")
    return [_op(workdir, "calibrate-jobs2", "calibrate",
                ["calibrate", "--config", cfg, "--jobs", "2"],
                name="corpus", count=len(names))]


def jobs1_op(workdir, op):
    """The same corpus with `--jobs 1`, for the untraced thread speed-up."""
    argv = op.argv[:op.argv.index("--jobs")] + ["--jobs", "1"]
    return _op(workdir, "calibrate-jobs1", "calibrate", argv, **op.meta)


def probe_sweep(rng, workdir, small=False):
    """`platelab three-spheres` (rho 0.04, theta 0.3, pitch 0.02, rho0 0.1,
    2,916 centers) and `platelab lps` (rho 0.04, 0.03, 0.02; about 36k
    centers) on [0,2]^2 at 96^2.

    Why: one solve costs about 12%; the rest is energy-field work (8,748
    full region_energy scans of 147k quadrature points, distance_to_boundary,
    KD-tree probes) and about 39k CSV rows, so a solver change should show no
    change here. About 11.5 s. The seed does not enter: the probes have no
    inclusion.

    Noise at the seed: one pass took 12.3-13.3 s over five runs.
    """
    n, pitch, lps_rho = (24, 0.1, "0.08") if small else (96, 0.02, "0.04 0.03 0.02")
    base = (f"domain = rectangle 0 0 2 2\n{MATERIAL}target_size = {2.0 / n!r}\n"
            f"load = pure_bending a=1\ntheta = 0.3\ntimestamp = off\n")
    ts = _write(os.path.join(workdir, "three_spheres.cfg"),
                base + f"rho0 = 0.1\nrho = 0.04\npitch = {pitch!r}\n"
                       "name = probe\n")
    lps = _write(os.path.join(workdir, "lps.cfg"),
                 base + f"rho = {lps_rho}\nname = probe\n")
    return [_op(workdir, "three-spheres", "three-spheres",
                ["three-spheres", "--config", ts], name="probe"),
            _op(workdir, "lps", "lps", ["lps", "--config", lps], name="probe",
                rhos=lps_rho.split())]


_BUILDERS = {"size-ladder": size_ladder, "calibrate-corpus": calibrate_corpus,
             "probe-sweep": probe_sweep}


def build(workload, seed, workdir, small=False):
    """Write the workload's inputs under workdir and return its operations."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[workload](np.random.default_rng(seed), workdir, small)


# ---------------------------------------------------------------------------
# output checks


def read_table(path, kind):
    """Rows (as dicts) of a platelab CSV written with `timestamp = off`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != f"# schema=platelab.{kind}.v1":
        raise ValueError(f"{os.path.basename(path)}: bad schema line")
    if any(line.startswith("#") for line in lines[1:]):
        raise ValueError(f"{os.path.basename(path)}: unexpected comment line "
                         "(timestamp should be off)")
    return list(csv.DictReader(lines[1:]))


def _quantities(path):
    return {r["quantity"]: r["value"] for r in read_table(path, "quantities")}


def _check_size(op, problems):
    name = op.meta["name"]
    rows = read_table(os.path.join(op.outdir, f"{name}_corpus.csv"), "corpus")
    q = _quantities(os.path.join(op.outdir, f"{name}_quantities.csv"))
    if len(rows) != 1:
        problems.append(f"expected 1 corpus row, got {len(rows)}")
        return
    row = rows[0]
    if not float(row["gap"]) >= 0.0:
        problems.append(f"sign law: stiff gap {row['gap']} < 0")
    if row["lemma_pass"] != "1":
        problems.append("energy lemma failed")
    if q.get("sign_ok") != "1" or q.get("regime") != "stiff":
        problems.append("quantities disagree with the stiff sign law")
    if not float(row["true_area"]) > 0.0:
        problems.append("inclusion flagged no elements")
    if op.meta["domain"] == "square":
        w0 = float(row["work_reference"])
        if abs(w0 - SQUARE_WORK_REFERENCE) > 1e-9 * SQUARE_WORK_REFERENCE:
            problems.append(f"work_reference {w0!r} != 5/9")


def _check_calibrate(op, problems):
    name = op.meta["name"]
    rows = read_table(os.path.join(op.outdir, f"{name}_corpus.csv"), "corpus")
    cal = read_table(os.path.join(op.outdir, f"{name}_calibration.csv"),
                     "calibration")
    q = _quantities(os.path.join(op.outdir, f"{name}_quantities.csv"))
    want = op.meta["count"]
    if len(rows) != want or len(cal) != want or q.get("count") != str(want):
        problems.append(f"expected {want} corpus entries, got {len(rows)} "
                        f"rows, {len(cal)} intervals, count {q.get('count')}")
    for r in rows:
        if not float(r["gap"]) >= 0.0:
            problems.append(f"{r['id']}: sign law: stiff gap {r['gap']} < 0")
        if r["lemma_pass"] != "1":
            problems.append(f"{r['id']}: energy lemma failed")
    for r in cal:
        lo, hi, area = float(r["lower"]), float(r["upper"]), float(r["true_area"])
        if r["bracketed"] != "1" or not lo <= area * (1 + 1e-12) \
                or not area <= hi * (1 + 1e-12):
            problems.append(f"{r['id']}: area {area} not in [{lo}, {hi}]")


def _check_three_spheres(op, problems):
    name = op.meta["name"]
    rows = read_table(os.path.join(op.outdir, f"{name}_three_spheres.csv"),
                      "three_spheres")
    q = _quantities(os.path.join(op.outdir, f"{name}_quantities.csv"))
    if not rows or q.get("n_centers") != str(len(rows)):
        problems.append(f"{len(rows)} rows for n_centers {q.get('n_centers')}")
    if not float(q.get("feasible_fraction", "nan")) >= 0.95:
        problems.append(f"feasible fraction {q.get('feasible_fraction')} < 0.95")


def _check_lps(op, problems):
    name = op.meta["name"]
    q = _quantities(os.path.join(op.outdir, f"{name}_quantities.csv"))
    for rho in op.meta["rhos"]:
        tag = f"{name}_rho{float(rho):g}".replace(".", "p")
        rows = read_table(os.path.join(op.outdir, f"{tag}_lps.csv"), "lps")
        key = f"{float(rho):g}"
        if not rows or q.get(f"n_centers_rho_{key}") != str(len(rows)):
            problems.append(f"rho {key}: {len(rows)} rows for n_centers "
                            f"{q.get(f'n_centers_rho_{key}')}")
        if not float(q.get(f"constant_rho_{key}", "nan")) > 0.0:
            problems.append(f"rho {key}: lps constant "
                            f"{q.get(f'constant_rho_{key}')} is not > 0")


_CHECKS = {"size": _check_size, "calibrate": _check_calibrate,
           "three-spheres": _check_three_spheres, "lps": _check_lps}


def check(op, returncode):
    """Problems with one finished operation; empty when it is correct."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    try:
        _CHECKS[op.kind](op, problems)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


# ---------------------------------------------------------------------------
# deliberate corruption, to show the checks catch a wrong output


def _rewrite(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    header = lines[1].split(",")
    edit(rows)
    body = [",".join(r[h] for h in header) for r in rows]
    _write(path, "\n".join([lines[0], lines[1]] + body) + "\n")


def _set_quantity(key, value):
    def edit(rows):
        for r in rows:
            if r["quantity"] == key:
                r["value"] = value
    return edit


def corrupt(op):
    """Break the headline invariant in one of the operation's CSVs."""
    name = op.meta["name"]
    out = op.outdir
    if op.kind == "size":
        def flip(rows):
            rows[0]["gap"] = repr(-abs(float(rows[0]["gap"])) - 1e-3)
        _rewrite(os.path.join(out, f"{name}_corpus.csv"), flip)
    elif op.kind == "calibrate":
        def unbracket(rows):
            rows[0]["bracketed"] = "0"
        _rewrite(os.path.join(out, f"{name}_calibration.csv"), unbracket)
    elif op.kind == "three-spheres":
        _rewrite(os.path.join(out, f"{name}_quantities.csv"),
                 _set_quantity("feasible_fraction", "0.5"))
    else:
        key = f"constant_rho_{float(op.meta['rhos'][0]):g}"
        _rewrite(os.path.join(out, f"{name}_quantities.csv"),
                 _set_quantity(key, "-1.0"))
