"""Compare the CSV outputs of platelab at two git revisions.

    python3 tools/golden_diff.py OLD NEW [--workdir DIR] [--seed N]

OLD and NEW are git revisions. To compare uncommitted changes, stage them and
pass `$(git stash create)` as NEW. Each revision is checked out in its own
temporary `git worktree` and runs the same fixed set of `timestamp = off`
configs: the small variants of the benchmark workloads (perfbench/, drawn with
--seed) and one run of every command, with and without an inclusion, under
--dense-oracle and with calibrate at --jobs 1, 2 and 3, plus solve and size on
an L-shape (edge_moment) and a skewed quad (twist), whose normals leave the
axes, and size at the contrasts 64, 1e-3, 1e105 and 1e300 (where conjugate
gradients overflow, exit 2) and, under --dense-oracle, 1e3. size runs at 1 -
2^-52 and 1 + 2^-52, with and without --dense-oracle, and energy-lemma at 1 +
2^-52 under it: contrasts one rounding step from 1, whose work gap is rounding
alone. size-family-typo runs size with `edge_moment a=2`, a parameter its
family does not read (exit 1). three-spheres and lps (three radii) run on the
L-shape and the skewed quad at target size 0.05 too, whose overlay meshes give
point orders that do not follow the probe lattice. three-spheres-degenerate
runs three-spheres at rho 0.003, where most reports are degenerate and some of
those infeasible (exit 3), and three-spheres-deep and lps-deep run both probes
at rho 0.2, deeper than any center of the unit square (exit 1);
three-spheres-zero-load and lps-zero-load run both probes on the zero load,
whose field holds no energy. three-spheres-rho-ge-rho0 runs three-spheres at
rho 0.04 over rho0 0.03 (exit 1), and three-spheres-grid-budget at pitch
0.0009, a grid of 1.23M candidate centers (exit 1). solve and size (kappa
2.5) run on thin plates, h = 0.1 and 0.01, with and without
--full-integration; solve-dense-thin-h0.001 solves the plain square at h =
0.001 under --dense-oracle, and solve-dense-tall-u-h0.01 a 0.6 x 2.4 U with
0.1-wide arms at h = 0.01: thin plates whose deflated stiffnesses have
condition numbers near 1e8; size-h0.1-32 runs size at
h = 0.1 and target size 1/32 too, where the factor's fill depends on the pivot
choice. size-square-32 and size-lshape-32 run size on the unit square and the
L-shape at target size 1/32, four times finer than the ladder variants, so
their factors take deeper nested dissections; each plate holds an inclusion
(on the L-shape, the unit square's halved). size-inclusion-nan and size-domain-inf
run size with a polygon file that holds a vertex that is not finite, nan
in the inclusion and inf in the domain (exit 1), and size-inclusion-1e300
with an inclusion vertex past the coordinate bound 1e150 (exit 1; before
that bound it exited 0 after numpy overflow warnings). size also runs with tensor
tables in place of kappa, with tables that hold a nan cell (in an unflagged
element) or an inf cell (in a flagged one) or that name different elements
(each exit 1), without the lambda key (exit 1), with the zero load
`pure_bending a=0` (exit 1) and on a dumbbell, two unit squares joined by a
0.02-wide neck, at target size 0.25, whose overlay splits into two plates
(exit 1). energy-lemma-zero-load runs
energy-lemma on that zero load (exit 1), and size-c1-0 and energy-lemma-c1-0
run both commands with `c1 = 0` (exit 1). size-mu-floor (mu = 0.5),
size-gamma-floor (lambda = 0), size-mu-cap (mu = 3) and size-lambda-cap
(lambda = 2.5) run size on a background that each of the material's
floors and caps refuses (exit 1). Five more calibrate corpora run
at --jobs 1 and 2: one spans two meshes and holds a reference-only entry, in
another the second entry has an unknown load, the third holds two zero-load
entries (exit 1), in the fourth, calibrate-window, two inclusion entries
at lambda = mu = 1.5 fail the material window (exit 1), and the fifth,
calibrate-mixed-zero-load, holds a pure_bending, a zero-load and a twist
entry on one mesh (exit 1). calibrate-rounding-dense runs a corpus of kappa
0.5 and 1 - 2^-52 under --dense-oracle at --jobs 1 and 2, and
calibrate-loads-dense the two-load calibrate corpus under --dense-oracle,
a plate without a factor, at --jobs 1 and 2. convergence reads the plate
keys and flags as size does: it runs with element_budget = 10 (exit 1), without
target_size (exit 1) and under --dense-oracle at two levels (243 dof at
most). Runs that end by the config parse or the
derived tensors: size with c1 = inf, three-spheres with theta = inf, solve
with target_size = inf, solve and convergence with h = 1e300, convergence
with pure_bending a=1e300 and with the zero load, solve with pure_bending
a=inf, twist a=1e300 (a residual that is not finite, exit 2), an --out that
names a file and name = a/b, lps with pitch = x (a key it does not read)
and size at h = 1000 and kappa 1e300. Steps too fine to count in full:
solve at target sizes 1e-300, 1e-310 and 5e-324, three-spheres at pitch
1e-300 and 5e-324 and lps at rho 1e-310 (all exit 1). solve-corner and
size-corner mesh a pentagon whose 1/8 overlay snaps two boundary nodes onto
one corner (exit 1); three-spheres-far-center names the center (0.5, 1e300)
(exit 1); lps-dotted-name runs lps with name = run.v2, and
solve-long-name solve with a 300-character name, too long for a file
name (exit 1). The callers that pair the solve's load
vector run on more inputs: energy-lemma on the soft and tensor-table
inclusions, at h = 0.01 and, under --dense-oracle, at kappa 1e3; work on the
stiff inclusion under --dense-oracle; and solve on the soft inclusion without
it. Every run is a fresh process.

For each CSV the report prints "identical" or, for each column that
changed, the largest relative change |new - old| / max(|new|, |old|); a
quantities CSV reports each quantity as a column. Exit codes and stderr
are compared too. The exit status is 1 when an exit code, a stderr text or
the set of CSV files differs, else 0.
"""

import argparse
import csv
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

RUNNER = "import sys; from platelab.cli import main; sys.exit(main(sys.argv[1:]))"

BASE = (f"domain = rectangle 0 0 1 1\n{workloads.MATERIAL}"
        "target_size = 0.125\nload = pure_bending a=1\ntimestamp = off\n")
INCLUSION = [(0.3, 0.3), (0.7, 0.3), (0.7, 0.6), (0.3, 0.7)]
SKEWED = [(0.0, 0.0), (1.0, 0.2), (1.3, 1.1), (0.2, 0.9)]
CORNER = [(0.8, 0.1), (1.0, 0.9), (0.2, 0.9), (0.6, 0.0), (0.7, 0.6)]
# a U whose 0.1-wide arms hold more nodes than its floor
TALL_U = [(0.0, 0.0), (0.6, 0.0), (0.6, 2.4), (0.5, 2.4), (0.5, 0.6),
          (0.1, 0.6), (0.1, 2.4), (0.0, 2.4)]
DUMBBELL = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.49), (2.0, 0.49), (2.0, 0.0),
            (3.0, 0.0), (3.0, 1.0), (2.0, 1.0), (2.0, 0.51), (1.0, 0.51),
            (1.0, 1.0), (0.0, 1.0)]


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _tensor_tables(inputs, key="", s12=None, bending_ids=range(64)):
    """Config lines for an anisotropic stiff override of the background
    material lambda = mu = h = 1 on elements 0 .. 63, in the files
    <key>stilde.csv and <key>ptilde.csv: s12 = (element, text) writes text
    as that element's s12 cell, and the bending table names bending_ids."""
    b, nu = 2.0 / 9.0, 0.25  # bending rigidity and Poisson ratio
    bend = ",".join(repr(v) for v in (2.0 * b, 2.0 * b * nu, 0.02, 2.0 * b,
                                      0.0, b * (1.0 - nu)))
    cell = dict([s12]) if s12 else {}
    spath = _write(os.path.join(inputs, f"{key}stilde.csv"), "".join(
        f"{e},3.0,{cell.get(e, '0.5')},2.0\n" for e in range(64)))
    ppath = _write(os.path.join(inputs, f"{key}ptilde.csv"), "".join(
        f"{e},{bend}\n" for e in bending_ids))
    return f"stilde_table = {spath}\nptilde_table = {ppath}\n"


def command_runs(inputs):
    """(label, argv) of one run of every command, written under inputs."""
    poly = _write(os.path.join(inputs, "inclusion.poly"),
                  workloads._polygon_text(INCLUSION))
    incl = BASE + f"inclusion = {poly}\nkappa = 2.5\n"
    zero = incl.replace("pure_bending a=1", "pure_bending a=0")
    # inside the constructor's window, outside the bending cap
    window = incl.replace("lambda = 1.0\nmu = 1.0", "lambda = 1.5\nmu = 1.5")
    soft = BASE + f"inclusion = {poly}\nkappa = 0.4\n"
    cfgs = {
        "plain": BASE,
        "stiff": incl,
        "soft": soft,
        # high and low contrast: conjugate gradients need more back-solves
        "kappa64": incl.replace("kappa = 2.5", "kappa = 64"),
        "kappa1e-3": incl.replace("kappa = 2.5", "kappa = 1e-3"),
        "kappa1e3": incl.replace("kappa = 2.5", "kappa = 1e3"),
        "kappa1e105": incl.replace("kappa = 2.5", "kappa = 1e105"),
        "kappa1e300": incl.replace("kappa = 2.5", "kappa = 1e300"),
        # one rounding step from 1: a gap of rounding alone
        "kappa1-2^-52": incl.replace("kappa = 2.5",
                                     f"kappa = {1.0 - 2.0 ** -52!r}"),
        "kappa1+2^-52": incl.replace("kappa = 2.5",
                                     f"kappa = {1.0 + 2.0 ** -52!r}"),
        # edge_moment reads c alone
        "family_typo": BASE.replace("pure_bending a=1", "edge_moment a=2"),
        "tables": incl.replace("kappa = 2.5\n", _tensor_tables(inputs)),
        # a cell that is not finite, in an unflagged and a flagged element,
        # and a bending table that lacks the last element
        "tables_nan": incl.replace("kappa = 2.5\n", _tensor_tables(
            inputs, "nan_", s12=(0, "nan"))),
        "tables_inf": incl.replace("kappa = 2.5\n", _tensor_tables(
            inputs, "inf_", s12=(27, "inf"))),
        "tables_ids": incl.replace("kappa = 2.5\n", _tensor_tables(
            inputs, "ids_", bending_ids=range(63))),
        "no_lambda": incl.replace("lambda = 1.0\n", ""),
        # the zero load has no frequency report; the size bounds fail first
        "zero_load": zero,
        "c1_0": incl + "c1 = 0\n",
        # a background outside the floors mu >= alpha0 and 2 mu + 3 lambda
        # >= gamma0, or over the cap alpha1 on mu or |lambda|
        **{f"material_{key}": incl.replace("lambda = 1.0\nmu = 1.0", moduli)
           for key, moduli in (("mu_floor", "lambda = 1.0\nmu = 0.5"),
                               ("gamma_floor", "lambda = 0.0\nmu = 1.0"),
                               ("mu_cap", "lambda = 1.0\nmu = 3.0"),
                               ("lambda_cap", "lambda = 2.5\nmu = 1.0"))},
        # values the config parse or the derived tensors refuse
        "c1_inf": incl + "c1 = inf\n",
        "target_inf": BASE.replace("target_size = 0.125", "target_size = inf"),
        "h1e300": BASE.replace("h = 1.0", "h = 1e300"),
        "a_inf": BASE.replace("pure_bending a=1", "pure_bending a=inf"),
        "a1e300": BASE.replace("pure_bending a=1", "pure_bending a=1e300"),
        "twist1e300": BASE.replace("pure_bending a=1", "twist a=1e300"),
        "name_slash": BASE + "name = a/b\n",
        "kappa_overflow": incl.replace("h = 1.0", "h = 1000.0").replace(
            "kappa = 2.5", "kappa = 1e300"),
        "three_spheres": BASE.replace("target_size = 0.125",
                                      "target_size = 0.0625")
        + "rho0 = 0.1\nrho = 0.04\npitch = 0.05\n",
        "lps": BASE.replace("target_size = 0.125", "target_size = 0.05")
        + "rho = 0.04 0.03\n",
        # the probes on the zero load's field, which holds no energy
        "probe_zero_load": BASE.replace("target_size = 0.125",
                                        "target_size = 0.0625")
        .replace("pure_bending a=1", "pure_bending a=0")
        + "rho0 = 0.1\nrho = 0.04\npitch = 0.05\n",
        # most inner disks hold no quadrature point, and a quarter of those
        # degenerate reports are infeasible
        "three_spheres_degenerate": BASE
        + "rho0 = 0.1\nrho = 0.003\npitch = 0.02\n",
        # a probe depth of 2.333, past the inradius: no admissible center
        "deep": BASE + "rho = 0.2\n",
        "rho_ge_rho0": BASE + "rho0 = 0.03\nrho = 0.04\npitch = 0.05\n",
        # 1111^2 candidates, none of them 1.05 deep
        "grid_budget": BASE + "rho = 0.09\npitch = 0.0009\n",
        "convergence": BASE.replace("target_size = 0.125",
                                    "target_size = 0.25")
        + "refinements = 3\n",
        # the plate keys convergence reads as size does
        "convergence_budget": BASE.replace("target_size = 0.125",
                                           "target_size = 0.25")
        + "element_budget = 10\n",
        "convergence_2": BASE.replace("target_size = 0.125",
                                      "target_size = 0.25")
        + "refinements = 2\n",
        "no_target": BASE.replace("target_size = 0.125\n", ""),
        "theta_inf": BASE + "rho0 = 0.1\nrho = 0.04\ntheta = inf\n",
        "lps_pitch_x": BASE + "rho = 0.04\npitch = x\n",
        # steps too fine for any grid count to be printed in full
        **{f"target{t}": BASE.replace("target_size = 0.125",
                                      f"target_size = {t}")
           for t in ("1e-300", "1e-310", "5e-324")},
        **{f"pitch{p}": BASE + f"rho0 = 0.1\nrho = 0.04\npitch = {p}\n"
           for p in ("1e-300", "5e-324")},
        "rho1e-310": BASE + "rho = 1e-310\n",
        "far_center": BASE + "rho0 = 0.1\nrho = 0.04\ncenter = 0.5 1e300\n",
        "dotted_name": BASE.replace("target_size = 0.125",
                                    "target_size = 0.1")
        + "rho = 0.04\nname = run.v2\n",
        "long_name": BASE + f"name = {'n' * 300}\n",
    }
    for key, verts, load in (("lshape", workloads.LSHAPE, "edge_moment c=1"),
                             ("skewed", SKEWED, "twist a=1")):
        domain = _write(os.path.join(inputs, f"{key}.poly"),
                        workloads._polygon_text(verts))
        cfgs[key] = BASE.replace("rectangle 0 0 1 1", domain).replace(
            "pure_bending a=1", load)
    dumbbell = _write(os.path.join(inputs, "dumbbell.poly"),
                      workloads._polygon_text(DUMBBELL))
    cfgs["dumbbell"] = BASE.replace("rectangle 0 0 1 1", dumbbell).replace(
        "target_size = 0.125", "target_size = 0.25")
    # the 1/8 overlay snaps two boundary nodes onto the corner (0.8, 0.1)
    corner = _write(os.path.join(inputs, "corner.poly"),
                    workloads._polygon_text(CORNER))
    cfgs["corner"] = BASE.replace("rectangle 0 0 1 1", corner)
    # the probes on overlay meshes, whose point rows do not follow the
    # probe lattice; rho0 = 2.5 rho keeps the three-spheres fits feasible
    for key, rho, rho0, radii in (("lshape", "0.02", "0.05", "0.02 0.015 0.01"),
                                  ("skewed", "0.03", "0.075", "0.03 0.02 0.01")):
        probe = cfgs[key].replace("target_size = 0.125", "target_size = 0.05")
        cfgs[f"three_spheres_{key}"] = probe + (f"rho0 = {rho0}\nrho = {rho}\n"
                                                "pitch = 0.03\n")
        cfgs[f"lps_{key}"] = probe + f"rho = {radii}\n"
    # thin plates, where the shear terms dominate the stiffness
    for h in ("0.1", "0.01"):
        cfgs[f"plain_h{h}"] = BASE.replace("h = 1.0", f"h = {h}")
        cfgs[f"stiff_h{h}"] = incl.replace("h = 1.0", f"h = {h}")
    cfgs["plain_h0.001"] = BASE.replace("h = 1.0", "h = 0.001")
    tall_u = _write(os.path.join(inputs, "tall_u.poly"),
                    workloads._polygon_text(TALL_U))
    cfgs["tall_u_h0.01"] = BASE.replace("rectangle 0 0 1 1", tall_u).replace(
        "h = 1.0", "h = 0.01") + "x0 = 0.3 0.3\n"
    cfgs["stiff_h0.1_32"] = cfgs["stiff_h0.1"].replace(
        "target_size = 0.125", "target_size = 0.03125")
    # the ladder's domains at 1/32, whose factors take deeper dissections;
    # the L-shape's inclusion is the unit square's, halved into its
    # lower-left block
    half = _write(os.path.join(inputs, "half_inclusion.poly"),
                  workloads._polygon_text([(0.5 * x, 0.5 * y)
                                           for x, y in INCLUSION]))
    cfgs["square_32"] = incl.replace("target_size = 0.125",
                                     "target_size = 0.03125")
    cfgs["lshape_32"] = cfgs["lshape"].replace(
        "target_size = 0.125", "target_size = 0.03125") + (
        f"inclusion = {half}\nkappa = 2.5\n")
    # a vertex that is not finite: nan in the inclusion, inf in the domain;
    # and one past the coordinate bound 1e150 in the inclusion
    inf_domain = list(workloads.LSHAPE)
    inf_domain[1] = (float("inf"), inf_domain[1][1])
    for tag, x in (("nan", float("nan")), ("1e300", 1e300)):
        vertices = list(INCLUSION)
        vertices[1] = (x, vertices[1][1])
        cfgs[f"inclusion_{tag}"] = BASE + "inclusion = {}\nkappa = 2.5\n" \
            .format(_write(os.path.join(inputs, f"inclusion_{tag}.poly"),
                           workloads._polygon_text(vertices)))
    cfgs["domain_inf"] = BASE.replace("rectangle 0 0 1 1", _write(
        os.path.join(inputs, "domain_inf.poly"),
        workloads._polygon_text(inf_domain)))
    coarse = BASE.replace("target_size = 0.125", "target_size = 0.25")
    corpora = {
        "calibrate": [BASE.replace("pure_bending", load)
                      + f"inclusion = {poly}\nkappa = {kappa}\n"
                      for load, kappa in (("pure_bending", 2.0),
                                          ("twist", 3.0),
                                          ("pure_bending", 1.5))],
        # two meshes, a reference-only entry, two entries that share a
        # reference and a second load on the coarse mesh
        "calibrate_meshes": [
            incl, coarse + f"inclusion = {poly}\nkappa = 3.0\n", BASE,
            incl.replace("kappa = 2.5", "kappa = 1.5"),
            coarse.replace("pure_bending", "twist")
            + f"inclusion = {poly}\nkappa = 2.0\n"],
        "calibrate_bad_load": [incl, incl.replace("pure_bending", "bogus"),
                               incl.replace("kappa = 2.5", "kappa = 3.0")],
        "calibrate_zero_load": [zero, zero.replace("kappa = 2.5",
                                                   "kappa = 3.0")],
        "calibrate_window": [window, window.replace("kappa = 2.5",
                                                    "kappa = 3.0")],
        # three loads on one mesh, the second of them zero
        "calibrate_mixed_zero_load": [
            incl, zero.replace("kappa = 2.5", "kappa = 3.0"),
            incl.replace("pure_bending", "twist")],
        # the second entry's gap is rounding alone
        "calibrate_rounding": [
            incl.replace("kappa = 2.5", "kappa = 0.5"),
            incl.replace("kappa = 2.5", f"kappa = {1.0 - 2.0 ** -52!r}")]}
    path = {k: _write(os.path.join(inputs, f"{k}.cfg"), v)
            for k, v in cfgs.items()}
    for key, entries in corpora.items():
        corpus = os.path.join(inputs, key)
        os.makedirs(corpus, exist_ok=True)
        for i, text in enumerate(entries):
            _write(os.path.join(corpus, f"case{i}.cfg"),
                   text + f"name = case{i}\n")
        path[key] = _write(os.path.join(inputs, f"{key}.cfg"),
                           f"corpus = {corpus}\ntimestamp = off\n")
    runs = [("solve-plain", ["solve", "--config", path["plain"]]),
            ("solve-stiff", ["solve", "--config", path["stiff"]]),
            ("solve-dense", ["solve", "--config", path["soft"],
                             "--dense-oracle"]),
            ("solve-dense-thin-h0.001", ["solve", "--config",
                                         path["plain_h0.001"],
                                         "--dense-oracle"]),
            ("solve-dense-tall-u-h0.01", ["solve", "--config",
                                          path["tall_u_h0.01"],
                                          "--dense-oracle"]),
            ("work-plain", ["work", "--config", path["plain"]]),
            ("work-soft", ["work", "--config", path["soft"]]),
            ("energy-lemma", ["energy-lemma", "--config", path["stiff"]]),
            ("energy-lemma-soft", ["energy-lemma", "--config", path["soft"]]),
            ("energy-lemma-tables", ["energy-lemma", "--config",
                                     path["tables"]]),
            ("energy-lemma-h0.01", ["energy-lemma", "--config",
                                    path["stiff_h0.01"]]),
            ("energy-lemma-dense-kappa1e3", ["energy-lemma", "--config",
                                             path["kappa1e3"],
                                             "--dense-oracle"]),
            ("work-dense", ["work", "--config", path["stiff"],
                            "--dense-oracle"]),
            ("solve-soft", ["solve", "--config", path["soft"]]),
            ("size-plain", ["size", "--config", path["plain"]]),
            ("size-soft", ["size", "--config", path["soft"]]),
            ("size-kappa64", ["size", "--config", path["kappa64"]]),
            ("size-kappa1e-3", ["size", "--config", path["kappa1e-3"]]),
            ("size-dense-kappa1e3", ["size", "--config", path["kappa1e3"],
                                     "--dense-oracle"]),
            ("size-kappa1e105", ["size", "--config", path["kappa1e105"]]),
            ("size-kappa1e300", ["size", "--config", path["kappa1e300"]]),
            ("energy-lemma-dense-kappa1+2^-52",
             ["energy-lemma", "--config", path["kappa1+2^-52"],
              "--dense-oracle"]),
            ("size-family-typo", ["size", "--config", path["family_typo"]]),
            ("size-tables", ["size", "--config", path["tables"]]),
            *((f"size-{key.replace('_', '-')}", ["size", "--config",
                                                   path[key]])
              for key in ("tables_nan", "tables_inf", "tables_ids")),
            *((f"size-inclusion-{tag}", ["size", "--config",
                                         path[f"inclusion_{tag}"]])
              for tag in ("nan", "1e300")),
            ("size-domain-inf", ["size", "--config", path["domain_inf"]]),
            ("size-no-lambda", ["size", "--config", path["no_lambda"]]),
            ("size-zero-load", ["size", "--config", path["zero_load"]]),
            ("energy-lemma-zero-load", ["energy-lemma", "--config",
                                        path["zero_load"]]),
            ("size-c1-0", ["size", "--config", path["c1_0"]]),
            ("energy-lemma-c1-0", ["energy-lemma", "--config", path["c1_0"]]),
            *((f"size-{key.replace('_', '-')}",
               ["size", "--config", path[f"material_{key}"]])
              for key in ("mu_floor", "gamma_floor", "mu_cap", "lambda_cap")),
            ("size-dumbbell", ["size", "--config", path["dumbbell"]]),
            ("three-spheres", ["three-spheres", "--config",
                               path["three_spheres"]]),
            ("three-spheres-degenerate", ["three-spheres", "--config",
                                          path["three_spheres_degenerate"]]),
            ("three-spheres-deep", ["three-spheres", "--config",
                                    path["deep"]]),
            ("lps", ["lps", "--config", path["lps"]]),
            ("lps-deep", ["lps", "--config", path["deep"]]),
            ("three-spheres-zero-load", ["three-spheres", "--config",
                                         path["probe_zero_load"]]),
            ("lps-zero-load", ["lps", "--config", path["probe_zero_load"]]),
            ("three-spheres-rho-ge-rho0", ["three-spheres", "--config",
                                           path["rho_ge_rho0"]]),
            ("three-spheres-grid-budget", ["three-spheres", "--config",
                                           path["grid_budget"]]),
            ("convergence", ["convergence", "--config", path["convergence"]]),
            ("convergence-budget", ["convergence", "--config",
                                    path["convergence_budget"]]),
            ("convergence-dense", ["convergence", "--config",
                                   path["convergence_2"], "--dense-oracle"]),
            ("convergence-no-target", ["convergence", "--config",
                                       path["no_target"]]),
            ("size-c1-inf", ["size", "--config", path["c1_inf"]]),
            ("three-spheres-theta-inf", ["three-spheres", "--config",
                                         path["theta_inf"]]),
            ("solve-target-inf", ["solve", "--config", path["target_inf"]]),
            ("solve-h1e300", ["solve", "--config", path["h1e300"]]),
            ("convergence-h1e300", ["convergence", "--config",
                                    path["h1e300"]]),
            ("convergence-a1e300", ["convergence", "--config",
                                    path["a1e300"]]),
            ("convergence-zero-load", ["convergence", "--config",
                                       path["zero_load"]]),
            ("solve-a-inf", ["solve", "--config", path["a_inf"]]),
            ("solve-twist1e300", ["solve", "--config", path["twist1e300"]]),
            ("solve-out-is-a-file", ["solve", "--config", path["plain"],
                                     "--out", _write(os.path.join(
                                         inputs, "taken"), "")]),
            ("solve-name-slash", ["solve", "--config", path["name_slash"]]),
            ("lps-pitch-x", ["lps", "--config", path["lps_pitch_x"]]),
            ("size-kappa-overflow", ["size", "--config",
                                     path["kappa_overflow"]]),
            *((f"solve-target-{t}", ["solve", "--config", path[f"target{t}"]])
              for t in ("1e-300", "1e-310", "5e-324")),
            *((f"three-spheres-pitch-{p}", ["three-spheres", "--config",
                                            path[f"pitch{p}"]])
              for p in ("1e-300", "5e-324")),
            ("lps-rho-1e-310", ["lps", "--config", path["rho1e-310"]]),
            ("solve-corner", ["solve", "--config", path["corner"]]),
            ("size-corner", ["size", "--config", path["corner"]]),
            ("three-spheres-far-center", ["three-spheres", "--config",
                                          path["far_center"]]),
            ("lps-dotted-name", ["lps", "--config", path["dotted_name"]]),
            ("solve-long-name", ["solve", "--config", path["long_name"]])]
    runs += [(f"{command}-{key}", [command, "--config", path[key]])
             for key in ("lshape", "skewed") for command in ("solve", "size")]
    runs += [(f"{command}-{key}",
              [command, "--config",
               path[f"{command.replace('-', '_')}_{key}"]])
             for key in ("lshape", "skewed")
             for command in ("three-spheres", "lps")]
    runs += [(f"{command}-h{h}" + ("-full" if full else ""),
              [command, "--config", path[f"{cfg}_h{h}"]] + full)
             for h in ("0.1", "0.01")
             for command, cfg in (("solve", "plain"), ("size", "stiff"))
             for full in ([], ["--full-integration"])]
    runs += [(f"size-{label}-32", ["size", "--config", path[key]])
             for label, key in (("h0.1", "stiff_h0.1_32"),
                                ("square", "square_32"),
                                ("lshape", "lshape_32"))]
    runs += [(f"size-{dense}kappa1{side}2^-52",
              ["size", "--config", path[f"kappa1{side}2^-52"]] + flag)
             for side in "-+"
             for dense, flag in (("", []), ("dense-", ["--dense-oracle"]))]
    runs += [(f"calibrate-jobs{j}", ["calibrate", "--config", path["calibrate"],
                                     "--jobs", str(j)]) for j in (1, 2, 3)]
    runs += [(f"{key.replace('_', '-')}-jobs{j}",
              ["calibrate", "--config", path[key], "--jobs", str(j)])
             for key in ("calibrate_meshes", "calibrate_bad_load",
                         "calibrate_zero_load", "calibrate_window",
                         "calibrate_mixed_zero_load")
             for j in (1, 2)]
    runs += [(f"calibrate-{label}-dense-jobs{j}",
              ["calibrate", "--config", path[key], "--jobs", str(j),
               "--dense-oracle"])
             for label, key in (("rounding", "calibrate_rounding"),
                                ("loads", "calibrate"))
             for j in (1, 2)]
    return runs


def workload_runs(inputs, seed):
    """(label, argv) of the small benchmark workloads."""
    runs = []
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, seed, os.path.join(inputs, name),
                                  small=True):
            argv = op.argv[:op.argv.index("--out")]
            runs.append((f"{name}-{op.label}", argv))
    return runs


def run_all(checkout, runs, outroot):
    """{label: (exit code, stderr)} of every run against checkout's src/;
    outroot reads <out> in the stderr, so that both sides compare."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    results = {}
    for label, argv in runs:
        out = os.path.join(outroot, label)
        os.makedirs(out)
        # a run that names its own --out writes nowhere else
        if "--out" not in argv:
            argv = argv + ["--out", out]
        proc = subprocess.run([sys.executable, "-c", RUNNER] + argv, env=env,
                              cwd=out,
                              capture_output=True, text=True, timeout=600)
        results[label] = (proc.returncode,
                          proc.stderr.replace(outroot, "<out>"))
    return results


def _table(path):
    """{column: [cells]} of a platelab CSV; quantities by quantity name."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    if header == ["id", "quantity", "value"]:
        cols = {}
        for r in body:
            cols.setdefault(r[1], []).append(r[2])
        return cols
    return {h: [r[i] for r in body] for i, h in enumerate(header)}


def _change(old, new):
    """Largest relative change between two cell lists, or a text note."""
    if len(old) != len(new):
        return f"{len(old)} -> {len(new)} rows"
    worst = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        try:
            x, y = float(a), float(b)
        except ValueError:
            return "text differs"
        scale = max(abs(x), abs(y))
        worst = max(worst, abs(y - x) / scale if scale else 0.0)
    return worst


def compare_csv(old_path, new_path):
    """"identical", or "column change, ..." for the columns that changed."""
    with open(old_path, "rb") as fa, open(new_path, "rb") as fb:
        if fa.read() == fb.read():
            return "identical"
    old, new = _table(old_path), _table(new_path)
    notes = []
    for col in list(old) + [c for c in new if c not in old]:
        if col not in old or col not in new:
            notes.append(f"{col} only in {'new' if col in new else 'old'}")
            continue
        change = _change(old[col], new[col])
        if change:
            notes.append(f"{col} {change:.1e}" if isinstance(change, float)
                         else f"{col} {change}")
    return ", ".join(notes) or "identical values, bytes differ"


def _csvs(outroot, label):
    base = os.path.join(outroot, label)
    return sorted(f for f in os.listdir(base) if f.endswith(".csv"))


def report(runs, outs, results):
    """Print the comparison; True when behaviour (codes, stderr, file sets)
    is unchanged."""
    same = True
    for label, _ in runs:
        (code_a, err_a), (code_b, err_b) = (r[label] for r in results)
        files_a, files_b = (_csvs(o, label) for o in outs)
        print(f"{label} (exit {code_a}" + ("" if code_a == code_b else
                                          f" -> {code_b}") + ")")
        if code_a != code_b or err_a != err_b:
            same = False
            for side, err in (("old", err_a), ("new", err_b)):
                for line in err.splitlines():
                    print(f"  {side} stderr: {line}")
        if files_a != files_b:
            same = False
            print(f"  CSV files {files_a} -> {files_b}")
        for name in sorted(set(files_a) & set(files_b)):
            verdict = compare_csv(os.path.join(outs[0], label, name),
                                  os.path.join(outs[1], label, name))
            print(f"  {name}: {verdict}")
    return same


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--workdir", default=None,
                   help="the directory, made if missing, that holds the "
                        "temporary directory of the worktrees and outputs; "
                        "that directory is removed afterwards (default: the "
                        "system's temporary directory)")
    p.add_argument("--seed", type=int, default=11)
    args = p.parse_args(argv)

    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="golden_diff-", dir=args.workdir)
    trees = []
    try:
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs)
        runs = command_runs(inputs) + workload_runs(inputs, args.seed)
        outs, results = [], []
        for side, rev in (("old", args.old), ("new", args.new)):
            tree = os.path.join(work, f"tree-{side}")
            subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                            "--quiet", tree, rev], check=True)
            trees.append(tree)
            outs.append(os.path.join(work, f"out-{side}"))
            results.append(run_all(tree, runs, outs[-1]))
        print(f"old {args.old}, new {args.new}, seed {args.seed}")
        same = report(runs, outs, results)
    finally:
        for tree in trees:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            tree], check=False)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], check=False)
        shutil.rmtree(work, ignore_errors=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
