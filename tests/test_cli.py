import contextlib
import inspect
import io
import multiprocessing
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platelab
from platelab import cli, estimates, functionals, tables
from platelab.cli import ConfigError, main, parse_config
from platelab.estimates import admissible_centers, three_spheres_sweep
from platelab.material import (IsotropicMaterial, JumpBounds, bending_voigt,
                               derive_plate_tensors, shear_matrix)
from platelab.solver import load_from_family
from platelab.tables import csv_text

from helpers import (append_line, dumbbell, rows, write_bending_table,
                     write_polygons, write_shear_table)

BASE = """\
domain = rectangle 0 0 1 1
lambda = 1.0
mu = 1.0
h = 1.0
target_size = 0.25
load = pure_bending a=1
timestamp = off
"""


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _sq_poly(tmp_path, name="incl.poly", lo=0.25, hi=0.75):
    path = tmp_path / name
    write_polygons(str(path), [np.array(
        [[lo, lo], [hi, lo], [hi, hi], [lo, hi]], dtype=float)])
    return str(path)


def _tables(tmp_path, ids, factor=2.0, bending_ids=None):
    """Config lines for a factor * background override at the given ids,
    or at bending_ids in the bending table."""
    tens = derive_plate_tensors(IsotropicMaterial(lam=1.0, mu=1.0, h=1.0))
    spath, bpath = tmp_path / "s.csv", tmp_path / "p.csv"
    bids = ids if bending_ids is None else bending_ids
    write_shear_table(spath, ids, factor * rows(shear_matrix(tens), len(ids)))
    write_bending_table(bpath, bids,
                        factor * rows(bending_voigt(tens), len(bids)))
    return f"stilde_table = {spath}\nptilde_table = {bpath}\n"


def _quantities(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    return {q: v for _, q, v in rows}


# config grammar


def test_parse_config_grammar(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# comment\n\nname = value\nrefinements=3   # trailing\n")
    cfg = parse_config(str(path))
    assert cfg == {"name": "value", "refinements": 3}


def test_parse_config_duplicate_key(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("k = 1\nk = 2\n")
    with pytest.raises(ConfigError):
        parse_config(str(path))


def test_parse_config_bad_line(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config(str(path))


# m0 and five keys that became constants, and a typo of timestamp
@pytest.mark.parametrize("key,command", [
    ("m0", "size"), ("quad_order", "lps"), ("dense_cap", "size"),
    ("feasible_fraction", "three-spheres"), ("min_order", "convergence"),
    ("work_rtol", "convergence"), ("timestmp", "solve")])
def test_unknown_key_is_config_error(tmp_path, capsys, key, command):
    cfg = _cfg(tmp_path, BASE + f"{key} = 1\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        f"config error: {cfg}:8: unknown key '{key}'\n"
    assert not list(tmp_path.glob("*.csv"))


def test_unknown_key_in_a_corpus_entry_is_config_error(tmp_path, capsys):
    good = BASE + f"inclusion = {_sq_poly(tmp_path)}\nkappa = 2.0\n"
    cfg = _corpus(tmp_path, [("a", good), ("b", good + "dense_cap = 10\n")])
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 1
    entry = tmp_path / "corpus" / "b.cfg"
    assert capsys.readouterr().err == \
        f"config error: {entry}:10: unknown key 'dense_cap'\n"
    assert not list(tmp_path.glob("*.csv"))


def test_readme_lists_the_config_keys():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    table = text.split("Common keys:", 1)[1].split("\n\n", 2)[1]
    first = [row.split("|")[1] for row in table.splitlines()[2:]]
    keys = {key for cell in first for key in cell.split("`")[1::2]}
    assert keys == set(cli._KEYS)


def test_material_from_config():
    assert cli._build_material(
        cli._Config({"lambda": 1.0, "mu": 1.0, "h": 0.5})) \
        == IsotropicMaterial(lam=1.0, mu=1.0, h=0.5)
    with pytest.raises(ConfigError):
        cli._build_material(cli._Config({"mu": 1.0, "h": 1.0}))


def test_csv_text_schema_and_no_timestamp():
    text = csv_text("demo", ["a", "b"], [(1.0, 2.0)], timestamp=False)
    lines = text.splitlines()
    assert lines[0] == "# schema=platelab.demo.v1"
    assert lines[1] == "a,b"
    assert "written=" not in text


def test_csv_text_columns_match_cell_by_cell_text():
    # one column of each plain type, mixed columns, and every special value
    specials = [True, False, np.bool_(True), np.int64(-3), np.int32(7), None,
                "text", float("nan"), float("inf"), -float("inf"), -0.0,
                np.float64(-0.0), np.float64(0.1), np.float32(0.1), 1e300,
                5e-324, 2, 0, -1.5]
    n = len(specials)
    columns = [
        [0.1 * i - 0.7 for i in range(n)],                  # floats
        list(range(-5, n - 5)),                             # ints
        specials,                                           # mixed
        specials[::-1],
        [float("nan"), -0.0, float("inf")] + [1.25] * (n - 3),
        [np.float64(i) / 3.0 for i in range(n)],            # numpy floats
        [True] * n,                                         # bools
        ["a"] * n,                                          # strings
        [None] * n,
    ]
    rows = list(zip(*columns))
    header = [f"c{j}" for j in range(len(columns))]
    text = csv_text("demo", header, rows, timestamp=False)
    cells = "\n".join(",".join(tables._fmt(v) for v in row) for row in rows)
    assert text == f"# schema=platelab.demo.v1\n{','.join(header)}\n{cells}\n"
    assert text.splitlines()[2].split(",")[2:4] == ["1", "-1.5"]
    assert csv_text("demo", header, [], timestamp=False) == \
        f"# schema=platelab.demo.v1\n{','.join(header)}\n"


# happy paths per subcommand


def test_solve_writes_outputs(tmp_path, capsys):
    cfg = _cfg(tmp_path, BASE)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    state = (tmp_path / "solve_state.csv").read_text()
    assert state.startswith("# schema=platelab.state.v1")
    quants = (tmp_path / "solve_quantities.csv").read_text()
    assert "stability_ratio" in quants and "equilibrium_residual" in quants


def test_work_command(tmp_path):
    cfg = _cfg(tmp_path, BASE)
    assert main(["work", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "work_quantities.csv").exists()


def test_energy_lemma_command(tmp_path):
    poly = _sq_poly(tmp_path)
    cfg = _cfg(tmp_path, BASE + f"inclusion = {poly}\nkappa = 2.0\n")
    assert main(["energy-lemma", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "energy_lemma_quantities.csv").read_text()
    assert "lhs" in text and "passed" in text


def test_size_command_soft(tmp_path):
    poly = _sq_poly(tmp_path)
    cfg = _cfg(tmp_path, BASE + f"inclusion = {poly}\nkappa = 0.5\n")
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "size_quantities.csv").read_text()
    assert "lower" in text and "upper" in text


def test_size_builds_one_mesh(tmp_path, monkeypatch):
    import platelab.estimates
    from platelab.geometry import generate_mesh

    calls = []

    def counting(*a, **kw):
        calls.append(a)
        return generate_mesh(*a, **kw)

    monkeypatch.setattr(platelab.estimates, "generate_mesh", counting)
    poly = _sq_poly(tmp_path)
    cfg = _cfg(tmp_path, BASE + f"inclusion = {poly}\nkappa = 2.0\n")
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_size_command_tensor_tables(tmp_path):
    # a kappa = 2 override written out as tables over all 16 elements
    poly = _sq_poly(tmp_path)
    tab = _cfg(tmp_path, BASE + f"inclusion = {poly}\n"
               + _tables(tmp_path, np.arange(16)) + "name = tab\n", "tab.cfg")
    kap = _cfg(tmp_path, BASE + f"inclusion = {poly}\nkappa = 2.0\n"
               "name = kap\n", "kap.cfg")
    for cfg in (tab, kap):
        assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "tab_quantities.csv").read_text().replace("tab", "kap") \
        == (tmp_path / "kap_quantities.csv").read_text()


@pytest.mark.parametrize("override", ["kappa", "tables"])
@pytest.mark.parametrize("command", ["solve", "work", "energy-lemma", "size"])
def test_every_command_meshes_once(tmp_path, monkeypatch, command, override):
    import platelab.estimates
    import platelab.geometry

    calls, built = [], []

    def counting(*a, **kw):
        calls.append(a)
        return generate_mesh(*a, **kw)

    def finishing(*a, **kw):
        built.append(a)
        return finish_mesh(*a, **kw)

    generate_mesh = platelab.geometry.generate_mesh
    finish_mesh = platelab.geometry._finish_mesh
    monkeypatch.setattr(platelab.estimates, "generate_mesh", counting)
    # every mesh, whichever module asks for it, ends in _finish_mesh
    monkeypatch.setattr(platelab.geometry, "_finish_mesh", finishing)
    extra = "kappa = 2.0\n" if override == "kappa" else \
        _tables(tmp_path, np.arange(16))
    cfg = _cfg(tmp_path, BASE + f"inclusion = {_sq_poly(tmp_path)}\n" + extra)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1 and len(built) == 1


def test_work_strings_agree_across_commands(tmp_path):
    cfg = _cfg(tmp_path, BASE + f"inclusion = {_sq_poly(tmp_path)}\nkappa = 0.5\n")
    found = []
    for command in ("work", "energy-lemma", "size"):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        q = _quantities(tmp_path / f"{command.replace('-', '_')}_quantities.csv")
        found.append((q["work_reference"], q["work"]))
    assert found[0] == found[1] == found[2]
    assert found[0][0] != found[0][1]


def test_solve_stability_ratio_matches_library(tmp_path):
    from platelab.estimates import SizeExperimentConfig, forward
    from platelab.functionals import stability_ratio
    from platelab.geometry import Domain, read_polygons
    from platelab.material import InclusionMaterial

    poly = _sq_poly(tmp_path)
    cfg = _cfg(tmp_path, BASE + f"inclusion = {poly}\nkappa = 2.0\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    fw = forward(SizeExperimentConfig(
        domain=Domain.rectangle(0, 0, 1, 1),
        material=IsotropicMaterial(lam=1.0, mu=1.0, h=1.0), target_size=0.25,
        load_family="pure_bending a=1",
        inclusion_polygons=tuple(read_polygons(poly)),
        inclusion=InclusionMaterial(kappa=2.0)))
    ratio = stability_ratio(fw.state, fw.load)
    assert ratio > 0.0
    assert _quantities(tmp_path / "solve_quantities.csv")["stability_ratio"] \
        == repr(float(ratio))


@pytest.mark.parametrize("command", ["solve", "size"])
def test_table_id_past_mesh_is_config_error(tmp_path, capsys, command):
    cfg = _cfg(tmp_path, BASE + f"inclusion = {_sq_poly(tmp_path)}\n"
               + _tables(tmp_path, np.arange(17)))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "element 16" in err


def test_table_negative_id_rejected(tmp_path, capsys):
    ids = np.arange(16)
    ids[-1] = -1
    cfg = _cfg(tmp_path, BASE + f"inclusion = {_sq_poly(tmp_path)}\n"
               + _tables(tmp_path, ids))
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "element id -1" in err


def test_table_duplicate_id_rejected(tmp_path, capsys):
    ids = np.append(np.arange(16), 3)
    cfg = _cfg(tmp_path, BASE + f"inclusion = {_sq_poly(tmp_path)}\n"
               + _tables(tmp_path, ids))
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "duplicate element id 3" in err


@pytest.mark.parametrize("row,message", [
    ("x,2.0,0.0,2.0", "expected an integer element id and 3 numbers"),
    ("1,2.0,0.0", "expected 4 values, got 3")], ids=["id", "count"])
def test_table_bad_row_names_file_and_line(tmp_path, capsys, row, message):
    tables_text = _tables(tmp_path, np.arange(16))
    shear = tmp_path / "s.csv"
    lines = shear.read_text().splitlines()
    lines[2] = row
    shear.write_text("\n".join(lines) + "\n")
    cfg = _cfg(tmp_path, BASE + f"inclusion = {_sq_poly(tmp_path)}\n"
               + tables_text)
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        f"config error: bad inclusion: {shear}:3: {message}\n"


@pytest.mark.parametrize("element", [0, 5], ids=["unflagged", "flagged"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("table", ["s", "p"], ids=["shear", "bending"])
def test_table_cell_not_finite_names_file_and_line(tmp_path, monkeypatch,
                                                   table, value, element):
    # refused when the table is read, in a flagged element's row or not
    _no_mesh(monkeypatch)
    tables_text = _tables(tmp_path, np.arange(16))
    path = tmp_path / f"{table}.csv"
    lines = path.read_text().splitlines()
    cells = lines[element + 1].split(",")
    cells[2] = value
    lines[element + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    cfg = _cfg(tmp_path, BASE + f"inclusion = {_sq_poly(tmp_path)}\n"
               + tables_text)
    code, err = _run_clean("size", cfg, tmp_path / "out")
    assert (code, err) == (1, [f"config error: bad inclusion: {path}:"
                               f"{element + 2}: values must be finite"])
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("key", ["inclusion", "domain"])
def test_polygon_vertex_not_finite_names_file_and_line(tmp_path, monkeypatch,
                                                       key, value):
    # refused when the polygon file is read, before any mesh
    _no_mesh(monkeypatch)
    path = tmp_path / "polygon.poly"
    lo, hi = (0.25, 0.75) if key == "inclusion" else (0.0, 1.0)
    path.write_text(f"{lo} {lo}\n{value} {lo}\n{hi} {hi}\n{lo} {hi}\n")
    text = BASE + f"inclusion = {path}\nkappa = 2.0\n" if key == "inclusion" \
        else BASE.replace("rectangle 0 0 1 1", str(path))
    code, err = _run_clean("size", _cfg(tmp_path, text), tmp_path / "out")
    assert (code, err) == (1, [f"config error: bad {key}: {path}:2: values "
                               "must be finite"])
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("value", ["1e300", "-1e300", "1e160"])
@pytest.mark.parametrize("key", ["inclusion", "domain"])
def test_polygon_vertex_too_large_names_file_and_line(tmp_path, monkeypatch,
                                                      key, value):
    # squared distances of such vertices overflow: refused when the file
    # is read, before any mesh and without a numpy warning
    _no_mesh(monkeypatch)
    path = tmp_path / "polygon.poly"
    lo, hi = (0.25, 0.75) if key == "inclusion" else (0.0, 1.0)
    path.write_text(f"{lo} {lo}\n{value} {lo}\n{hi} {hi}\n{lo} {hi}\n")
    text = BASE + f"inclusion = {path}\nkappa = 2.0\n" if key == "inclusion" \
        else BASE.replace("rectangle 0 0 1 1", str(path))
    code, err = _run_clean("size", _cfg(tmp_path, text), tmp_path / "out")
    assert (code, err) == (1, [f"config error: bad {key}: {path}:2: values "
                               "must be at most 1e150 in magnitude"])
    assert not list((tmp_path / "out").glob("*.csv"))


def test_polygon_vertex_at_the_bound_runs(tmp_path):
    # an inclusion vertex at 1e150 is read; its clearance stays a number
    path = tmp_path / "polygon.poly"
    path.write_text("0.25 0.25\n1e150 0.25\n0.75 0.75\n0.25 0.75\n")
    text = BASE + f"inclusion = {path}\nkappa = 2.0\n"
    code, err = _run_clean("size", _cfg(tmp_path, text), tmp_path / "out")
    assert code == 0 and not any("Warning" in line for line in err)
    assert len(list((tmp_path / "out").glob("*.csv"))) == 2


@pytest.mark.parametrize("shear_ids,bending_ids,has,lacks,element", [
    (np.arange(16), np.delete(np.arange(16), 3), "s", "p", 3),
    (np.arange(15), np.arange(16), "p", "s", 15)], ids=["shear", "bending"])
def test_tables_naming_different_elements_are_refused(
        tmp_path, monkeypatch, shear_ids, bending_ids, has, lacks, element):
    _no_mesh(monkeypatch)
    cfg = _cfg(tmp_path, BASE + f"inclusion = {_sq_poly(tmp_path)}\n"
               + _tables(tmp_path, shear_ids, bending_ids=bending_ids))
    code, err = _run_clean("size", cfg, tmp_path / "out")
    assert (code, err) == (1, [
        f"config error: bad inclusion: {tmp_path / has}.csv names element "
        f"{element}, {tmp_path / lacks}.csv does not"])
    assert not list((tmp_path / "out").glob("*.csv"))


def test_domain_path_starting_with_rectangle(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_polygons("rectangle.poly", [np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)])
    for name, domain in (("file", "rectangle.poly"),
                         ("spec", "rectangle 0 0 1 1")):
        cfg = _cfg(tmp_path, BASE.replace("rectangle 0 0 1 1", domain)
                   + f"name = {name}\n", f"{name}.cfg")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "file_state.csv").read_text() == \
        (tmp_path / "spec_state.csv").read_text()


def test_three_spheres_command(tmp_path):
    cfg = _cfg(tmp_path, BASE.replace("target_size = 0.25",
                                      "target_size = 0.0625")
               + "rho0 = 0.1\nrho = 0.04\npitch = 0.02\n")
    assert main(["three-spheres", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "three_spheres_three_spheres.csv").exists()


def test_three_spheres_scans_no_disk_per_center(tmp_path, monkeypatch):
    poly = tmp_path / "lshape.poly"
    write_polygons(str(poly), [np.array([[0, 0], [1, 0], [1, 0.5], [0.5, 0.5],
                                         [0.5, 1], [0, 1]], dtype=float)])
    cfg = _cfg(tmp_path, BASE.replace("rectangle 0 0 1 1", str(poly))
               .replace("target_size = 0.25", "target_size = 0.05")
               + "rho0 = 0.1\nrho = 0.015\npitch = 0.03\n")
    args = cli._parser().parse_args(["three-spheres", "--config", cfg])
    field = cli._reference_field(parse_config(cfg), args, "ref")
    centers = admissible_centers(field.mesh, 0.015, 0.3, 0.03)
    expected = tables.csv_text(*tables.three_spheres_rows(
        [three_spheres_sweep(field, [c], 0.015, 0.3)[0] for c in centers]),
        timestamp=False)

    calls = []
    inner = estimates.disk_energies

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(estimates, "disk_energies", counted)
    assert main(["three-spheres", "--config", cfg, "--out", str(tmp_path)]) \
        in (0, 3)
    got = (tmp_path / "three_spheres_three_spheres.csv").read_text()
    assert len(centers) > 10 and got == expected
    # one disk sum over all centers at once, not one per center
    assert len(calls) == 1


def test_three_spheres_inadmissible_center_message(tmp_path, capsys):
    cfg = _cfg(tmp_path, BASE.replace("target_size = 0.25",
                                      "target_size = 0.0625")
               + "rho0 = 0.1\nrho = 0.04\ncenter = 0.1 0.5\n")
    assert main(["three-spheres", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "config error: center (0.1, 0.5) inadmissible: needs distance >= "
        "0.4667 from the boundary, has 0.1\n")


def test_three_spheres_fraction_counts_infeasible_degenerate_centers(
        tmp_path, capsys):
    # at rho 0.003 most inner disks hold no quadrature point: 2,080 of the
    # 2,116 reports are degenerate, and 520 of those infeasible, since
    # their middle disk is not empty
    cfg = _cfg(tmp_path, BASE.replace("target_size = 0.25",
                                      "target_size = 0.125")
               + "rho0 = 0.1\nrho = 0.003\npitch = 0.02\n")
    assert main(["three-spheres", "--config", cfg, "--out", str(tmp_path)]) == 3
    q = _quantities(tmp_path / "three_spheres_quantities.csv")
    assert q["n_centers"] == "2116"
    assert q["feasible_fraction"] == repr(1560 / 2116) == "0.7372400756143668"
    # exit 3 writes every table and prints its path
    captured = capsys.readouterr()
    assert captured.err == "three-spheres: feasible fraction 0.737 < 0.95\n"
    assert captured.out.splitlines() == [
        str(tmp_path / f"three_spheres_{kind}.csv")
        for kind in ("three_spheres", "quantities")]


@pytest.mark.parametrize("command", ["three-spheres", "lps"])
def test_probes_share_one_refusal_without_centers(tmp_path, capsys, command):
    # the margin 7/0.6 * 0.2 = 2.333 is deeper than the unit square's
    # inradius
    cfg = _cfg(tmp_path, BASE + "rho = 0.2\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ("config error: no admissible centers "
                                       "at depth 2.333; shrink rho or theta\n")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("pitch", ["0", "-0.1"])
def test_three_spheres_nonpositive_pitch_is_config_error(tmp_path, capsys,
                                                         pitch):
    cfg = _cfg(tmp_path, BASE + f"rho0 = 0.1\nrho = 0.04\npitch = {pitch}\n")
    assert main(["three-spheres", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "config error: pitch must be positive\n"


def test_three_spheres_default_pitch_is_the_grids(tmp_path):
    # without pitch, three-spheres sweeps the grid of admissible_centers'
    # default pitch, the grid of lps: 0.0153 here, not rho/2
    cfg = _cfg(tmp_path, BASE.replace("target_size = 0.25",
                                      "target_size = 0.0625")
               + "rho = 0.04\n")
    assert main(["three-spheres", "--config", cfg, "--out", str(tmp_path)]) \
        in (0, 3)
    args = cli._parser().parse_args(["three-spheres", "--config", cfg])
    field = cli._reference_field(parse_config(cfg), args, "ref")
    expected = admissible_centers(field.mesh, 0.04, 0.3)
    rows = (tmp_path / "three_spheres_three_spheres.csv").read_text() \
        .splitlines()[2:]
    got = np.array([[float(v) for v in r.split(",")[:2]] for r in rows])
    assert got.shape == expected.shape and (got == expected).all()


@pytest.mark.parametrize("rho", ["0", "-0.04"])
@pytest.mark.parametrize("command,extra", [
    ("lps", ""), ("three-spheres", "center = 0.5 0.5\n")])
def test_probe_nonpositive_rho_is_config_error(tmp_path, capsys, command,
                                               extra, rho):
    cfg = _cfg(tmp_path, BASE + f"rho = {rho}\n" + extra)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "config error: rho must be positive\n"


@pytest.mark.parametrize("command,lines,message", [
    ("three-spheres", "", "missing config key 'rho'"),
    ("three-spheres", "rho =\n", "config key 'rho' holds no radius"),
    ("three-spheres", "rho = -0.04\n", "rho must be positive"),
    ("three-spheres", "rho = 0.04\ntheta = 0\n", "theta must be positive"),
    ("three-spheres", "rho = 0.04\ntheta = x\n",
     "config key 'theta' is not a number: 'x'"),
    ("three-spheres", "rho = 0.04\ncenter = 0.5\n",
     "center needs two coordinates"),
    ("three-spheres", "rho = 0.04\npitch = -0.1\n", "pitch must be positive"),
    ("three-spheres", "rho = 0.03 0.02\n",
     "rho holds 2 radii; three-spheres takes one"),
    ("three-spheres", "rho0 = 0.03\nrho = 0.03\n",
     "rho must be smaller than rho0"),
    ("three-spheres", "rho0 = 0.03\nrho = 0.04\npitch = 0.05\n",
     "rho must be smaller than rho0"),
    ("lps", "rho =\n", "config key 'rho' holds no radius"),
    ("lps", "rho = 0.04 nan\n", "rho must be finite"),
    ("lps", "rho = 0.04\ntheta = -0.3\n", "theta must be positive"),
    ("lps", "rho = 0.04 0.04000001\n",
     "rho holds two radii that print as 0.04"),
    ("lps", "rho = 0.03 0.02 0.03\n", "rho holds two radii that print as 0.03"),
])
def test_probe_keys_checked_before_the_solve(tmp_path, capsys, monkeypatch,
                                             command, lines, message):
    # the reference plate makes the probes' one mesh
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the probe keys were checked")

    monkeypatch.setattr(estimates, "_reference_plate", no_solve)
    cfg = _cfg(tmp_path, BASE + lines)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command,lines,count", [
    # 1111^2 candidates at pitch 0.0009
    ("three-spheres", "rho = 0.09\npitch = 0.0009\n", 1111 ** 2),
    # the default pitch 4 theta h1 rho0 / (2 sqrt(2) theta + 7) = 7.6e-4
    ("lps", "h1 = 0.005\nrho = 0.04\n", 1308 ** 2),
], ids=["three-spheres", "lps"])
def test_probes_refuse_a_grid_over_the_budget(tmp_path, capsys, monkeypatch,
                                               command, lines, count):
    calls = []

    def no_test(*args, **kwargs):
        calls.append(args)
        raise AssertionError("tested centers of a grid over the budget")

    monkeypatch.setattr(estimates, "points_in_polygon", no_test)
    cfg = _cfg(tmp_path, BASE + lines)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"config error: center grid of {count} candidates exceeds the "
        f"budget of {estimates.MAX_CENTERS}\n")
    assert not list(tmp_path.glob("*.csv"))
    assert calls == []


@pytest.mark.parametrize("command", ["size", "energy-lemma"])
def test_material_window_checked_before_any_solve(tmp_path, capsys,
                                                  monkeypatch, command):
    # lam = mu = 1.5 passes the constructor, but its spherical bending
    # eigenvalue 5 exceeds 2 alpha1 = 4
    def no_work(*args, **kwargs):
        raise AssertionError("meshed or factored before the window check")

    for name in ("generate_mesh", "factorize"):
        monkeypatch.setattr(estimates, name, no_work)
    poly = _sq_poly(tmp_path)
    cfg = _cfg(tmp_path, BASE.replace("lambda = 1.0\nmu = 1.0",
                                      "lambda = 1.5\nmu = 1.5")
               + f"inclusion = {poly}\nkappa = 2.0\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: bending sandwich fails from above\n")
    assert not list(out.glob("*.csv"))


def test_split_mesh_is_config_error(tmp_path, capsys):
    # the 1/4 overlay of two unit squares joined by a 0.02-wide neck holds
    # two separate plates
    poly = tmp_path / "dumbbell.poly"
    write_polygons(str(poly), [dumbbell(0.02)])
    cfg = _cfg(tmp_path, BASE.replace("rectangle 0 0 1 1", str(poly)))
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "config error: mesh boundary splits into several loops; use a "
        "smaller target_size\n")
    assert not list(tmp_path.glob("*.csv"))


def test_lps_checks_every_radius_before_writing(tmp_path, capsys):
    cfg = _cfg(tmp_path, BASE.replace("target_size = 0.25",
                                      "target_size = 0.1")
               + "rho = 0.02 -0.02\n")
    assert main(["lps", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "config error: rho must be positive\n"
    assert not list(tmp_path.glob("*.csv"))


def test_cli_import_leaves_out_scipy_spatial():
    src = os.path.dirname(os.path.dirname(platelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, platelab.cli; sys.exit('scipy.spatial' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


def test_lps_command(tmp_path):
    cfg = _cfg(tmp_path, BASE.replace("target_size = 0.25",
                                      "target_size = 0.04")
               + "rho = 0.04\n")
    assert main(["lps", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "lps_rho0p04_lps.csv").exists()


def test_convergence_command(tmp_path):
    cfg = _cfg(tmp_path, BASE + "refinements = 3\n")
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "convergence_convergence.csv").read_text()
    assert "order" in text


def test_convergence_csv_matches_library(tmp_path):
    from platelab.estimates import SizeExperimentConfig, convergence_study
    from platelab.geometry import Domain
    from platelab.tables import convergence_rows

    cfg = _cfg(tmp_path, BASE + "refinements = 3\n")
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
    square = Domain(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    records = convergence_study(SizeExperimentConfig(
        domain=square, material=IsotropicMaterial(lam=1.0, mu=1.0, h=1.0),
        target_size=0.25, load_family="pure_bending a=1"), levels=3)
    assert (tmp_path / "convergence_convergence.csv").read_text() == \
        csv_text(*convergence_rows(records), timestamp=False)


@pytest.mark.parametrize("text,flags,code,line", [
    (BASE + "element_budget = 10\n", [], 1,
     "config error: mesh would need 16 elements, budget is 10"),
    # 17 x 17 nodes at the third level, 3 dof each
    (BASE, ["--dense-oracle"], 2,
     "numerical failure: dense oracle capped at 600 dof, system has 867"),
    (BASE.replace("target_size = 0.25\n", ""), [], 1,
     "config error: missing config key 'target_size'")],
    ids=["budget", "dense-oracle", "no-target"])
def test_convergence_reads_the_plate_as_size_does(tmp_path, text, flags, code,
                                                  line):
    out = tmp_path / "out"
    assert _run_clean("convergence", _cfg(tmp_path, text), out, *flags) == \
        (code, [line])
    assert not list(out.glob("*.csv"))


def test_calibrate_command_parallel(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, hi in enumerate((0.55, 0.65, 0.75)):
        poly = _sq_poly(tmp_path, f"incl{i}.poly", 0.25, hi)
        (corpus / f"case{i}.cfg").write_text(
            BASE + f"inclusion = {poly}\nkappa = 2.0\nname = case{i}\n")
    cfg = _cfg(tmp_path, f"corpus = {corpus}\ntimestamp = off\n")
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path),
                 "--jobs", "2"]) == 0
    text = (tmp_path / "calibrate_corpus.csv").read_text()
    assert text.count("\n") >= 4  # header, schema, 3 cases
    assert (tmp_path / "calibrate_calibration.csv").exists()


def test_calibrate_rejects_mixed_rho0(tmp_path, capsys):
    # the size bounds scale with rho0^2, so one fit cannot serve two rho0
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    poly = _sq_poly(tmp_path)
    for i, rho0 in enumerate(("1.0", "0.5")):
        (corpus / f"case{i}.cfg").write_text(
            BASE + f"inclusion = {poly}\nkappa = 2.0\nrho0 = {rho0}\n")
    cfg = _cfg(tmp_path, f"corpus = {corpus}\ntimestamp = off\n")
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "rho0 = 1.0" in err and "rho0 = 0.5" in err and "case1.cfg" in err
    assert not (tmp_path / "calibrate_calibration.csv").exists()


def _corpus(tmp_path, entries):
    """Config of a calibrate run over entries, a list of (name, text)."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in entries:
        (corpus / f"{name}.cfg").write_text(text + f"name = {name}\n")
    return _cfg(tmp_path, f"corpus = {corpus}\ntimestamp = off\n")


def test_calibrate_shares_one_mesh_and_one_reference(tmp_path, monkeypatch):
    entries = []
    for i, (hi, kappa) in enumerate(((0.55, 2.0), (0.65, 3.0), (0.75, 2.0))):
        poly = _sq_poly(tmp_path, f"incl{i}.poly", 0.25, hi)
        entries.append((f"case{i}", BASE + f"inclusion = {poly}\n"
                                           f"kappa = {kappa}\n"))
    cfg = _corpus(tmp_path, entries)
    # a line per call, from the worker processes too
    log = tmp_path / "calls.log"

    def counted(name):
        fn = getattr(estimates, name)

        def wrapper(*args, **kwargs):
            append_line(log, name)
            return fn(*args, **kwargs)
        return wrapper

    names = ("generate_mesh", "solve")
    for name in names:
        monkeypatch.setattr(estimates, name, counted(name))
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path),
                 "--jobs", "2"]) == 0
    lines = log.read_text().splitlines()
    calls = {name: lines.count(name) for name in names}
    assert calls == {"generate_mesh": 1, "solve": 4}


@pytest.mark.parametrize("kappa,code,err", [
    ("3.0", 0, ""),
    ("1e200", 2, "numerical failure: conjugate gradients overflowed: the "
     "residual or an inner product is not a finite double\n")],
    ids=["exit0", "exit2"])
def test_calibrate_workers_end_with_the_call(tmp_path, capsys, monkeypatch,
                                             kappa, code, err):
    # the reference is built here; a, b and c run on forked workers, which
    # have all ended when main returns, whatever its exit code
    good = BASE + f"inclusion = {_sq_poly(tmp_path)}\nkappa = 2.0\n"
    cfg = _corpus(tmp_path, [
        ("a", good), ("b", good.replace("kappa = 2.0", f"kappa = {kappa}")),
        ("c", good.replace("kappa = 2.0", "kappa = 4.0"))])
    log = tmp_path / "pids.log"
    reference, entry = estimates._reference_plate, estimates._size_experiment

    def built(config, *args):
        append_line(log, f"reference {os.getpid()}")
        return reference(config, *args)

    def ran(config, *args):
        append_line(log, f"{config.name} {os.getpid()}")
        return entry(config, *args)

    monkeypatch.setattr(estimates, "_reference_plate", built)
    monkeypatch.setattr(estimates, "_size_experiment", ran)
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path),
                 "--jobs", "2"]) == code
    assert capsys.readouterr().err == err
    assert multiprocessing.active_children() == []
    lines = log.read_text().splitlines()
    pids = dict(line.split() for line in lines)
    assert len(lines) == 4 and sorted(pids) == ["a", "b", "c", "reference"]
    assert pids["reference"] == str(os.getpid())
    assert pids["reference"] not in (pids["a"], pids["b"], pids["c"])


def test_calibrate_computes_one_frequency_per_reference(tmp_path,
                                                       monkeypatch):
    # in the second corpus the twist group's first entry overflows
    # conjugate gradients before its report; the report is still computed
    # once, after the group's entries have run
    poly = _sq_poly(tmp_path)
    mat = IsotropicMaterial(lam=1.0, mu=1.0, h=1.0)

    def counted(load, *args, **kwargs):
        family, = [f for f in ("pure_bending a=1", "twist a=1")
                   if np.array_equal(load.m,
                                     load_from_family(load.mesh, f, mat).m)]
        append_line(log, family)
        return functionals.frequency(load, *args, **kwargs)

    monkeypatch.setattr(estimates, "frequency", counted)
    for head, code in (((), 0), ((("twist", "1e200"),), 2)):
        run = tmp_path / f"exit{code}"
        run.mkdir()
        cfg = _corpus(run, [
            (f"case{i}", BASE.replace("pure_bending", load)
             + f"inclusion = {poly}\nkappa = {kappa}\n")
            for i, (load, kappa) in enumerate((
                ("pure_bending", 2.0), ("pure_bending", 3.0)) + head + (
                ("twist", 2.0), ("twist", 2.5), ("pure_bending", 4.0)))])
        # a line per report, from the worker processes too
        log = run / "frequency.log"
        assert main(["calibrate", "--config", cfg, "--out", str(run),
                     "--jobs", "2"]) == code
        families = log.read_text().splitlines()
        assert sorted(families) == ["pure_bending a=1", "twist a=1"]


def test_calibrate_csvs_do_not_depend_on_jobs(tmp_path):
    lshape = tmp_path / "lshape.poly"
    write_polygons(str(lshape), [np.array(
        [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]], dtype=float)])
    small = _sq_poly(tmp_path, "small.poly", 0.2, 0.45)
    big = _sq_poly(tmp_path, "big.poly", 0.25, 0.75)
    fine = BASE.replace("target_size = 0.25", "target_size = 0.125")
    # two meshes; on the square, two loads, a second material and a
    # reference-only entry
    cfg = _corpus(tmp_path, [
        ("a", fine + f"inclusion = {big}\nkappa = 2.0\n"),
        ("b", fine.replace("rectangle 0 0 1 1", str(lshape))
         + f"inclusion = {small}\nkappa = 3.0\n"),
        ("c", fine.replace("pure_bending", "twist")
         + f"inclusion = {small}\nkappa = 2.5\n"),
        ("d", fine + f"inclusion = {small}\nkappa = 4.0\n"),
        ("e", fine.replace("mu = 1.0", "mu = 1.2")
         + f"inclusion = {big}\nkappa = 2.0\n"),
        ("f", fine),
        ("g", fine.replace("rectangle 0 0 1 1", str(lshape))
         + f"inclusion = {small}\nkappa = 2.0\n")])
    alone = []
    for path in sorted((tmp_path / "corpus").glob("*.cfg")):
        assert main(["size", "--config", str(path), "--out",
                     str(tmp_path / "alone")]) == 0
        alone += (tmp_path / "alone" / f"{path.stem}_corpus.csv") \
            .read_text().splitlines()[2:]
    texts = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"out{jobs}"
        assert main(["calibrate", "--config", cfg, "--out", str(out),
                     "--jobs", jobs]) == 0
        texts.append([(out / f"calibrate_{kind}.csv").read_text()
                      for kind in ("corpus", "calibration", "quantities")])
    assert texts[0] == texts[1] == texts[2]
    assert texts[0][0].splitlines()[2:] == alone


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("bad,flags,code,line", [
    ("load", [], 1, "config error: unknown load family 'bogus'"),
    ("budget", [], 1,
     "config error: mesh would need 16 elements, budget is 3"),
    ("dense_cap", ["--dense-oracle"], 2,
     "numerical failure: dense oracle capped at 600 dof, system has 867"),
    ("tables", [], 1, "config error: override tables miss flagged element 5"),
    # alone, the contrast check comes before the reference plate
    ("contrast_and_load", [], 1, "config error: indefinite contrast: spectrum "
     "straddles 1 (min at element 0, max at element 0)"),
])
def test_calibrate_bad_entry_keeps_its_error(tmp_path, capsys, jobs, bad,
                                             flags, code, line):
    good = BASE + f"inclusion = {_sq_poly(tmp_path)}\nkappa = 2.0\n"
    if bad == "tables":
        bad = good.replace("kappa = 2.0\n", _tables(tmp_path, [0, 1]))
    elif bad == "contrast_and_load":
        bad = good.replace("pure_bending", "bogus").replace(
            "kappa = 2.0\n", _tables(tmp_path, [0, 1], factor=1.0))
    else:
        bad = {"load": good.replace("pure_bending", "bogus"),
               "budget": good + "element_budget = 3\n",
               # 17 x 17 nodes, 3 dof each
               "dense_cap": good.replace("target_size = 0.25",
                                         "target_size = 0.0625")}[bad]
    third = good.replace("kappa = 2.0", "kappa = 3.0")
    cfg = _corpus(tmp_path, [("a", good), ("b", bad), ("c", third)])
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path),
                 "--jobs", jobs] + flags) == code
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "calibrate_corpus.csv").exists()


def test_calibrate_reports_the_first_failing_entry(tmp_path, capsys):
    # c shares a's reference, which is solved before b's fails, yet b is
    # the first to fail in corpus order
    poly = _sq_poly(tmp_path)
    good = BASE + f"inclusion = {poly}\nkappa = 2.0\n"
    cfg = _corpus(tmp_path, [
        ("a", good), ("b", good.replace("pure_bending", "bogus")),
        ("c", good.replace("kappa = 2.0\n", _tables(tmp_path, [0, 1])))])
    for jobs in ("1", "2"):
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path),
                     "--jobs", jobs]) == 1
        assert capsys.readouterr().err == \
            "config error: unknown load family 'bogus'\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_calibrate_checks_the_material_window_before_any_reference(
        tmp_path, capsys, monkeypatch, jobs):
    # the material window of test_material_window_checked_before_any_solve:
    # each entry checks it before it builds its group's reference. The
    # calls are counted too, since a reference's error that no entry reads
    # never reaches the exit code
    calls = []

    def no_work(*args, **kwargs):
        calls.append(args)
        raise AssertionError("meshed or factored before the window check")

    for name in ("generate_mesh", "factorize"):
        monkeypatch.setattr(estimates, name, no_work)
    entry = BASE.replace("lambda = 1.0\nmu = 1.0", "lambda = 1.5\nmu = 1.5") \
        .replace("target_size = 0.25", "target_size = 0.125") \
        + f"inclusion = {_sq_poly(tmp_path)}\nkappa = 2.0\n"
    cfg = _corpus(tmp_path, [
        ("a", entry), ("b", entry.replace("kappa = 2.0", "kappa = 3.0"))])
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path),
                 "--jobs", jobs]) == 1
    assert capsys.readouterr().err == (
        "config error: bending sandwich fails from above\n")
    assert not list(tmp_path.glob("*.csv"))
    assert calls == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_calibrate_builds_a_failing_reference_once(tmp_path, capsys,
                                                   monkeypatch, jobs):
    # two entries share a reference whose load is unknown: the mesh comes
    # before the load, and the second entry gets the first one's error
    meshes = []

    def counted(*args, **kwargs):
        meshes.append(args)
        return generate_mesh(*args, **kwargs)

    generate_mesh = estimates.generate_mesh
    monkeypatch.setattr(estimates, "generate_mesh", counted)
    bad = BASE.replace("pure_bending", "bogus") + \
        f"inclusion = {_sq_poly(tmp_path)}\nkappa = 2.0\n"
    cfg = _corpus(tmp_path, [
        ("a", bad), ("b", bad.replace("kappa = 2.0", "kappa = 3.0"))])
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path),
                 "--jobs", jobs]) == 1
    assert capsys.readouterr().err == \
        "config error: unknown load family 'bogus'\n"
    assert len(meshes) == 1


def test_zero_load_size_and_calibrate_agree(tmp_path, capsys):
    # the zero load has no frequency report, but the report comes last:
    # alone and in a corpus, the size bounds fail first
    text = BASE.replace("a=1", "a=0") + \
        f"inclusion = {_sq_poly(tmp_path)}\nkappa = 2.0\n"
    assert main(["size", "--config", _cfg(tmp_path, text),
                 "--out", str(tmp_path)]) == 1
    line = "config error: reference work must be positive\n"
    assert capsys.readouterr().err == line
    cfg = _corpus(tmp_path, [
        ("a", text), ("b", text.replace("kappa = 2.0", "kappa = 3.0"))])
    for jobs in ("1", "2"):
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path),
                     "--jobs", jobs]) == 1
        assert capsys.readouterr().err == line


def test_zero_load_energy_lemma_is_config_error(tmp_path, capsys):
    # the lemma of the zero load holds trivially, but the size experiment
    # it comes from refuses the load, as size does
    text = BASE.replace("a=1", "a=0") + \
        f"inclusion = {_sq_poly(tmp_path)}\nkappa = 2.0\n"
    out = tmp_path / "out"
    assert main(["energy-lemma", "--config", _cfg(tmp_path, text),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "config error: reference work must be positive\n"
    assert not list(out.glob("*.csv"))


# exit codes


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("key,command", [
    ("refinements", "convergence"), ("element_budget", "size")])
def test_nonpositive_integer_key_is_config_error(tmp_path, capsys, key,
                                                 command, value):
    cfg = _cfg(tmp_path, BASE + f"{key} = {value}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{key}'" in err


@pytest.mark.parametrize("old,new,message", [
    ("lambda = 1.0", "lambda = abc",
     "config key 'lambda' is not a number: 'abc'"),
    ("h = 1.0", "h = 1,0", "config key 'h' is not a number: '1,0'"),
    ("pure_bending a=1", "pure_bending a=x", "bad family parameter 'a=x'"),
    ("pure_bending a=1", "edge_moment c=", "bad family parameter 'c='")],
    ids=["material", "decimal-comma", "family", "family-empty"])
def test_non_numeric_value_names_its_key(tmp_path, capsys, old, new, message):
    cfg = _cfg(tmp_path, BASE.replace(old, new))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def _run_clean(command, cfg, out, *flags):
    """(exit code, stderr lines) of a run; a numpy warning fails the test."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", cfg, "--out", str(out), *flags])
    return code, err.getvalue().splitlines()


def _no_mesh(monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed before the config was checked")

    monkeypatch.setattr(estimates, "generate_mesh", no_mesh)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize("command,old,new,key", [
    ("solve", "h = 1.0", "h = {}", "h"),
    ("solve", "target_size = 0.25", "target_size = {}", "target_size"),
    ("size", "", "c1 = {}", "c1"),
    ("three-spheres", "", "rho = 0.04\ntheta = {}", "theta"),
    ("three-spheres", "", "rho = 0.04\ncenter = 0.5 {}", "center"),
    ("solve", "", "rho0 = {}", "rho0"),
    ("solve", "", "x0 = {} 0.5", "x0"),
    ("solve", "rectangle 0 0 1 1", "rectangle 0 0 {} 1", "domain"),
    # keys the command does not read
    ("lps", "", "rho = 0.04\npitch = {}", "pitch"),
    ("convergence", "", "kappa = {}", "kappa"),
])
def test_non_finite_number_is_refused_when_read(tmp_path, monkeypatch, command,
                                                old, new, key, value):
    _no_mesh(monkeypatch)
    text = BASE.replace(old, new.format(value)) if old else \
        BASE + new.format(value) + "\n"
    out = tmp_path / "out"
    code, err = _run_clean(command, _cfg(tmp_path, text), out)
    assert (code, err) == (1, [f"config error: {key} must be finite"])
    assert not list(tmp_path.rglob("*.csv"))


def test_malformed_value_of_an_unread_key_is_refused(tmp_path, monkeypatch):
    # lps sweeps its own grid and does not read pitch
    _no_mesh(monkeypatch)
    cfg = _cfg(tmp_path, BASE + "rho = 0.04\npitch = x\n")
    code, err = _run_clean("lps", cfg, tmp_path / "out")
    assert (code, err) == (1, ["config error: config key 'pitch' is not a "
                               "number: 'x'"])


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_overflowing_thickness_is_config_error(tmp_path, monkeypatch, command):
    # h^3 of 1e300 overflows a double: refused with the material, before
    # any mesh
    _no_mesh(monkeypatch)
    cfg = _cfg(tmp_path, BASE.replace("h = 1.0", "h = 1e300"))
    code, err = _run_clean(command, cfg, tmp_path / "out")
    assert (code, err) == (1, ["config error: lambda, mu and h overflow the "
                               "plate tensors"])


@pytest.mark.parametrize("family", ["pure_bending a=1e300", "twist a=1e300",
                                    "edge_moment c=1e300"])
def test_overflowing_exact_energy_is_config_error(tmp_path, monkeypatch,
                                                  family):
    _no_mesh(monkeypatch)
    cfg = _cfg(tmp_path, BASE.replace("pure_bending a=1", family))
    code, err = _run_clean("convergence", cfg, tmp_path / "out")
    assert (code, err) == (1, [f"config error: load '{family}' overflows the "
                               "exact energy density"])


def test_zero_load_convergence_is_config_error(tmp_path, monkeypatch):
    # the closed-form work of a zero load is zero: no relative error
    _no_mesh(monkeypatch)
    cfg = _cfg(tmp_path, BASE.replace("pure_bending a=1", "pure_bending a=0"))
    out = tmp_path / "out"
    code, err = _run_clean("convergence", cfg, out)
    assert (code, err) == (1, ["config error: reference work must be "
                               "positive"])
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("param", ["inf", "nan"])
def test_non_finite_family_parameter_is_config_error(tmp_path, monkeypatch,
                                                      param):
    cfg = _cfg(tmp_path, BASE.replace("pure_bending a=1",
                                      f"pure_bending a={param}"))
    code, err = _run_clean("solve", cfg, tmp_path / "out")
    assert (code, err) == (1, [f"config error: family parameter 'a={param}' "
                               "must be finite"])


def test_non_finite_solve_residual_is_numerical_failure(tmp_path):
    # the twist a=1e300 couples are finite, the residual of its solve is not
    cfg = _cfg(tmp_path, BASE.replace("pure_bending a=1", "twist a=1e300"))
    out = tmp_path / "out"
    code, err = _run_clean("solve", cfg, out)
    assert (code, err) == (2, ["numerical failure: solve residual is not "
                               "finite"])
    assert not list(tmp_path.rglob("*.csv"))


def test_overflowing_contrast_is_config_error(tmp_path):
    # kappa 1e300 times the bending rigidity of h = 1000 overflows
    poly = _sq_poly(tmp_path)
    cfg = _cfg(tmp_path, BASE.replace("h = 1.0", "h = 1000.0")
               + f"inclusion = {poly}\nkappa = 1e300\n")
    code, err = _run_clean("size", cfg, tmp_path / "out")
    assert (code, err) == (1, ["config error: kappa overflows the inclusion's "
                               "plate tensors"])


def test_far_center_is_refused_without_warnings(tmp_path):
    cfg = _cfg(tmp_path, BASE + "rho0 = 0.1\nrho = 0.04\ncenter = 0.5 1e300\n")
    code, err = _run_clean("three-spheres", cfg, tmp_path / "out")
    assert code == 1 and len(err) == 1
    assert err[0].startswith("config error: center (0.5, 1e+300) inadmissible")


MESH_BUDGET = "mesh would need {} elements, budget is 40000"
GRID_BUDGET = "center grid of {} candidates exceeds the budget of 1000000"


@pytest.mark.parametrize("command,old,new,message", [
    ("solve", "0.25", "1e-10", MESH_BUDGET.format("1e+20")),
    ("solve", "0.25", "1e-300", MESH_BUDGET.format("over 1e308")),
    ("solve", "0.25", "1e-310", MESH_BUDGET.format("over 1e308")),
    ("solve", "0.25", "5e-324", MESH_BUDGET.format("over 1e308")),
    ("three-spheres", "", "rho0 = 0.1\nrho = 0.04\npitch = 1e-300",
     GRID_BUDGET.format("over 1e308")),
    ("three-spheres", "", "rho0 = 0.1\nrho = 0.04\npitch = 5e-324",
     GRID_BUDGET.format("over 1e308")),
    # the default pitch is rho / 2
    ("lps", "", "rho = 1e-310", GRID_BUDGET.format("over 1e308")),
])
def test_budget_refusal_of_a_tiny_step_is_one_short_line(tmp_path, command,
                                                         old, new, message):
    text = BASE.replace(old, new) if old else BASE + new + "\n"
    code, err = _run_clean(command, _cfg(tmp_path, text), tmp_path / "out")
    assert (code, err) == (1, [f"config error: {message}"])
    assert len(err[0].encode()) <= 120
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", ["solve", "size"])
def test_coincident_boundary_nodes_are_config_error(tmp_path, command):
    # the 1/8 overlay snaps boundary nodes 2 and 3 onto the corner (0.8, 0.1)
    poly = tmp_path / "corner.poly"
    write_polygons(str(poly), [[(0.8, 0.1), (1.0, 0.9), (0.2, 0.9),
                                (0.6, 0.0), (0.7, 0.6)]])
    cfg = _cfg(tmp_path, BASE.replace("rectangle 0 0 1 1", str(poly))
               .replace("0.25", "0.125"))
    code, err = _run_clean(command, cfg, tmp_path / "out")
    assert (code, err) == (1, ["config error: boundary nodes 2 and 3 "
                               "coincide; use a smaller target_size"])
    assert not list(tmp_path.rglob("*.csv"))


def test_lps_keeps_a_dotted_name(tmp_path):
    cfg = _cfg(tmp_path, BASE.replace("0.25", "0.1")
               + "rho = 0.04\nname = run.v2\n")
    assert main(["lps", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "run.v2_quantities.csv", "run.v2_rho0p04_lps.csv"]


def test_handlers_take_the_config_args_and_name():
    # main alone writes the tables a handler returns
    for handler in cli._HANDLERS.values():
        assert list(inspect.signature(handler).parameters) == [
            "cfg", "args", "name"]


def test_name_too_long_to_write_is_config_error(tmp_path, capsys):
    name = "n" * 300
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, BASE + f"name = {name}\n")
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    path = os.path.join(str(out), f"{name}_state.csv")
    assert captured.err.startswith(f"config error: cannot write {path!r}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not list(out.iterdir())


def test_failed_write_removes_the_tables_of_the_run(tmp_path, capsys):
    # a directory takes the path of solve's second table
    out = tmp_path / "out"
    (out / "solve_quantities.csv").mkdir(parents=True)
    cfg = _cfg(tmp_path, BASE)
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    path = str(out / "solve_quantities.csv")
    assert captured.err == (f"config error: cannot write {path!r}: "
                            "Is a directory\n")
    assert captured.out == ""
    assert not (out / "solve_state.csv").exists()


@pytest.mark.parametrize("name", ["a/b", "", "a\0b"])
def test_name_must_be_a_plain_file_name(tmp_path, monkeypatch, name):
    _no_mesh(monkeypatch)
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, BASE + f"name = {name}\n")
    code, err = _run_clean("solve", cfg, out)
    assert (code, err) == (1, [f"config error: name must be a plain file "
                               f"name, got {name!r}"])
    assert not list(tmp_path.rglob("*.csv"))


def test_out_naming_a_file_is_config_error(tmp_path, monkeypatch):
    _no_mesh(monkeypatch)
    out = tmp_path / "taken"
    out.write_text("")
    code, err = _run_clean("solve", _cfg(tmp_path, BASE), out)
    assert (code, err) == (1, [f"config error: cannot make output directory "
                               f"{str(out)!r}: File exists"])
    assert out.read_text() == "" and not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("family,token", [
    ("edge_moment a=2", "a=2"), ("pure_bending A=2", "A=2"),
    ("twist c=5", "c=5"), ("pure_bending a=1 a=2", "a=2")])
def test_family_takes_its_own_parameter_once(tmp_path, capsys, family, token):
    cfg = _cfg(tmp_path, BASE.replace("pure_bending a=1", family))
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        f"config error: bad family parameter '{token}'\n"


@pytest.mark.parametrize("key", ["lambda", "mu", "h"])
def test_missing_material_key_is_config_error(tmp_path, capsys, key):
    cfg = _cfg(tmp_path, BASE.replace(f"\n{key} = 1.0\n", "\n"))
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        f"config error: missing config key '{key}'\n"


def test_unknown_command_is_config_error(tmp_path):
    cfg = _cfg(tmp_path, BASE)
    assert main(["frobnicate", "--config", cfg]) == 1
    # the load checks have one fixed tolerance, solver.COMPAT_TOL
    assert main(["size", "--config", cfg, "--tol", "1e-9"]) == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_refused(tmp_path, capsys, jobs):
    cfg = _corpus(tmp_path, [
        ("a", BASE + f"inclusion = {_sq_poly(tmp_path)}\nkappa = 2.0\n")])
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path),
                 "--jobs", jobs]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"platelab: error: argument --jobs: expected an integer of at "
        f"least 1, got '{jobs}'")
    assert not list(tmp_path.glob("*.csv"))


# the 1/8 unit square with a quadrilateral inclusion; at a contrast one
# rounding step from 1 the work gap is rounding alone
CONTRAST = BASE.replace("target_size = 0.25", "target_size = 0.125")
QUAD = [(0.3, 0.3), (0.7, 0.3), (0.7, 0.6), (0.3, 0.7)]


def _contrast_cfg(tmp_path, kappa):
    poly = tmp_path / "quad.poly"
    write_polygons(str(poly), [np.array(QUAD)])
    return _cfg(tmp_path,
                CONTRAST + f"inclusion = {poly}\nkappa = {kappa!r}\n")


@pytest.mark.parametrize("command", ["size", "energy-lemma"])
@pytest.mark.parametrize("kappa,understated", [
    pytest.param(0.4, JumpBounds(1e-3, 0.999, "soft"), id="soft"),
    pytest.param(2.5, JumpBounds(1e-3, 1.001, "stiff"), id="stiff")])
def test_failed_lemma_bound_names_itself(tmp_path, capsys, monkeypatch,
                                         command, kappa, understated):
    # bounds that understate the plate's contrast put its gap above the
    # lemma's upper bound
    monkeypatch.setattr(estimates, "jump_bounds", lambda *a: understated)
    cfg = _contrast_cfg(tmp_path, kappa)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "upper bound fails: lhs = " in err[0]
    assert "mid = " in err[0] and "rhs = " in err[0] and "tol = " in err[0]


def test_wrong_sign_gap_ends_alike_in_every_command(tmp_path, capsys,
                                                    monkeypatch):
    # soft bounds on a stiff plate: its positive gap has the wrong sign,
    # which the lemma's sign line names, once, in size and energy-lemma,
    # and every entry of a calibrate corpus fails its checks
    monkeypatch.setattr(estimates, "jump_bounds",
                        lambda *a: JumpBounds(0.5, 0.5, "soft"))
    cfg = _contrast_cfg(tmp_path, 2.5)
    for command, prefix in (("size", "size: "),
                            ("energy-lemma", "energy lemma: ")):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith(prefix) for line in err), err
        assert sum("work gap sign inconsistent with soft regime" in line
                   for line in err) == 1, err
        assert not any("no bounds computed" in line for line in err), err
    q = _quantities(tmp_path / "size_quantities.csv")
    assert q["sign_ok"] == "0" and q["lower"] == q["upper"] == "nan"
    poly = tmp_path / "quad.poly"
    corpus = _corpus(tmp_path, [
        (f"case{i}", CONTRAST + f"inclusion = {poly}\nkappa = {kappa}\n")
        for i, kappa in enumerate((2.5, 3.0))])
    out = tmp_path / "calibrate"
    for jobs in ("1", "2"):
        assert main(["calibrate", "--config", corpus, "--out", str(out),
                     "--jobs", jobs]) == 3
        assert capsys.readouterr().err == (
            "calibrate: case0 failed checks\ncalibrate: case1 failed checks\n")
        assert sorted(p.name for p in out.glob("*.csv")) == \
            ["calibrate_corpus.csv"]


@pytest.mark.parametrize("key", ["c1", "c2"])
@pytest.mark.parametrize("command", ["size", "energy-lemma", "calibrate"])
def test_nonpositive_constant_refused_before_any_mesh(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      key):
    calls = []

    def no_work(*args, **kwargs):
        calls.append(args)
        raise AssertionError("meshed or factored before the constants")

    for name in ("generate_mesh", "factorize"):
        monkeypatch.setattr(estimates, name, no_work)
    text = BASE + f"inclusion = {_sq_poly(tmp_path)}\nkappa = 2.0\n"
    cfg = _cfg(tmp_path, text + f"{key} = 0\n")
    if command == "calibrate":
        # the second entry holds the bad constant
        cfg = _corpus(tmp_path, [("a", text), ("b", text + f"{key} = -1\n")])
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"config error: {key} must be positive\n"
    assert not list(tmp_path.glob("*.csv"))
    assert calls == []


@pytest.mark.parametrize("dense", [[], ["--dense-oracle"]],
                         ids=["sparse", "dense"])
@pytest.mark.parametrize("kappa", [1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52])
def test_rounding_gap_reads_zero(tmp_path, capsys, kappa, dense):
    # the gap is 0.0 on the sparse path and 0.0 or 2.2e-16 under the dense
    # oracle, within estimates.GAP_RTOL of the reference work
    cfg = _contrast_cfg(tmp_path, kappa)
    for command in ("size", "energy-lemma"):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]
                    + dense) == 0
        assert capsys.readouterr().err == ""
    q = _quantities(tmp_path / "size_quantities.csv")
    assert q["sign_ok"] == "1" and q["lower"] == q["upper"] == "0.0"


@pytest.mark.parametrize("dense", [[], ["--dense-oracle"]],
                         ids=["sparse", "dense"])
def test_calibrate_refuses_a_rounding_gap(tmp_path, capsys, dense):
    poly = tmp_path / "quad.poly"
    write_polygons(str(poly), [np.array(QUAD)])
    cfg = _corpus(tmp_path, [
        (f"case{i}", CONTRAST + f"inclusion = {poly}\nkappa = {kappa!r}\n")
        for i, kappa in enumerate((0.5, 1.0 - 2.0 ** -52))])
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]
                + dense) == 1
    assert capsys.readouterr().err == \
        "config error: degenerate corpus entry 1: zero work gap\n"


@pytest.mark.parametrize("kappa", [1e-300, 1e-12, 1e-3, 1.0 - 2.0 ** -52,
                                   1.0 + 2.0 ** -52, 1e4, 1e100, 1e105, 1e300])
def test_exit_code_contract_across_contrast(tmp_path, capsys, kappa):
    cfg = _contrast_cfg(tmp_path, kappa)
    code = main(["size", "--config", cfg, "--out", str(tmp_path / "sparse")])
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 2, 3)
    assert len(err) == (0 if code == 0 else 1), err
    # the CG overflow from 1e105 up exits 2. The dense oracle solves kappa
    # 1e-12 and 1e12 too; its works leave the sparse ones 5.6e-15 and
    # 5.5e-6 of the reference work apart. Past 1e4 the stiff inclusion's
    # condition widens that gap (2.7e-10 at 1e8) beyond the 1e-10 that
    # _assert_works_match_dense asks
    if kappa in (1e-3, 1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52, 1e4):
        assert code == 0
        _assert_works_match_dense(tmp_path, cfg)


def _assert_works_match_dense(tmp, cfg):
    """The work columns of the size run in tmp/sparse agree with a
    --dense-oracle run of cfg to 1e-10 of the reference work."""
    assert main(["size", "--config", cfg, "--out", str(tmp / "dense"),
                 "--dense-oracle"]) == 0
    sparse, dense = (_quantities(tmp / side / "size_quantities.csv")
                     for side in ("sparse", "dense"))
    scale = float(dense["work_reference"])
    for key in ("work_reference", "work", "gap"):
        assert abs(float(sparse[key]) - float(dense[key])) <= \
            1e-10 * scale, key


def test_cg_converges_at_contrast_1e105(tmp_path, capsys):
    # unscaled, the inner products of conjugate gradients overflowed here
    cfg = _contrast_cfg(tmp_path, 1e105)
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


@settings(settings.get_profile("derandomized"), max_examples=40)
@given(st.floats(-12.0, 200.0).map(lambda e: 10.0 ** e)
       .filter(lambda kappa: kappa != 1.0))
def test_exit_code_contract_over_drawn_contrasts(tmp_path_factory, kappa):
    # log10 kappa drawn over [-12, 200] (kappa = 1 is a config error):
    # every run keeps the exit-code contract, and from 1e-3 to 1e4 the
    # sparse solve succeeds and agrees with the dense oracle
    tmp = tmp_path_factory.mktemp("contrast")
    cfg = _contrast_cfg(tmp, kappa)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["size", "--config", cfg, "--out", str(tmp / "sparse")])
    assert code in (0, 2, 3)
    assert (err.getvalue() == "") == (code == 0), err.getvalue()
    if 1e-3 <= kappa <= 1e4:
        assert code == 0
        _assert_works_match_dense(tmp, cfg)


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_kappa_one_rejected(tmp_path):
    poly = _sq_poly(tmp_path)
    cfg = _cfg(tmp_path, BASE + f"inclusion = {poly}\nkappa = 1.0\n")
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("value", ["inf", "1e400"])
def test_infinite_kappa_is_config_error(tmp_path, capsys, value):
    poly = _sq_poly(tmp_path)
    cfg = _cfg(tmp_path, BASE + f"inclusion = {poly}\nkappa = {value}\n")
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "config error: kappa must be finite\n"


def test_inclusion_without_polygons_rejected(tmp_path):
    cfg = _cfg(tmp_path, BASE + "kappa = 2.0\n")
    assert main(["size", "--config", cfg, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", ["solve", "size"])
def test_cg_overflow_is_one_numerical_failure_line(tmp_path, command):
    # kappa 1e300 is finite, but conjugate gradients overflow on it: one
    # stderr line that names the overflow, and no numpy warnings
    poly = _sq_poly(tmp_path)
    cfg = _cfg(tmp_path, BASE + f"inclusion = {poly}\nkappa = 1e300\n")
    src = os.path.dirname(os.path.dirname(platelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "platelab.cli", command, "--config", cfg,
         "--out", str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "numerical failure: conjugate gradients overflowed: the residual or "
        "an inner product is not a finite double"]


def test_dense_oracle_cap_is_numerical_failure(tmp_path):
    cfg = _cfg(tmp_path, BASE.replace("target_size = 0.25",
                                      "target_size = 0.05"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path),
                 "--dense-oracle"]) == 2


def test_dense_oracle_solves_a_thin_plate(tmp_path, capsys):
    # h = 0.001 at target size 1/8: both solves succeed, and their states
    # agree to 1e-9 of the largest value
    cfg = _cfg(tmp_path, BASE.replace("h = 1.0", "h = 0.001")
               .replace("target_size = 0.25", "target_size = 0.125"))
    states = []
    for side, flag in (("sparse", []), ("dense", ["--dense-oracle"])):
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / side)]
                    + flag) == 0
        assert capsys.readouterr().err == ""
        states.append(np.loadtxt(tmp_path / side / "solve_state.csv",
                                 delimiter=",", skiprows=2))
    sparse, dense = states
    assert np.array_equal(sparse[:, :3], dense[:, :3])
    u = dense[:, 3:]
    assert np.abs(sparse[:, 3:] - u).max() < 1e-9 * np.abs(u).max()


def test_lps_zero_field_fails_check(tmp_path, capsys):
    # both probes refuse the zero field of a zero load, with one line
    cfg = _cfg(tmp_path, BASE.replace("load = pure_bending a=1",
                                      "load = pure_bending a=0")
               .replace("target_size = 0.25", "target_size = 0.04")
               + "rho0 = 0.1\nrho = 0.04\n")
    for command in ("lps", "three-spheres"):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            "config error: reference energy must be positive\n"
    assert not list(tmp_path.glob("*.csv"))


def test_convergence_unreachable_order_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MIN_ORDER", 99.0)
    monkeypatch.setattr(cli, "WORK_RTOL", 1e-30)
    cfg = _cfg(tmp_path, BASE)
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 3


# output routing and determinism


def test_out_config_key(tmp_path):
    target = tmp_path / "routed"
    cfg = _cfg(tmp_path, BASE + f"out = {target}\n")
    assert main(["work", "--config", cfg]) == 0
    assert (target / "work_quantities.csv").exists()


def test_out_flag_beats_config_key(tmp_path):
    winner = tmp_path / "winner"
    cfg = _cfg(tmp_path, BASE + f"out = {tmp_path / 'loser'}\n")
    assert main(["work", "--config", cfg, "--out", str(winner)]) == 0
    assert (winner / "work_quantities.csv").exists()
    assert not (tmp_path / "loser").exists()


def test_full_integration_flag(tmp_path):
    cfg = _cfg(tmp_path, BASE)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path),
                 "--full-integration"]) == 0


def test_reruns_byte_identical(tmp_path):
    poly = _sq_poly(tmp_path)
    text = BASE + f"inclusion = {poly}\nkappa = 2.0\n"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        cfg = _cfg(tmp_path, text, name=f"{out.name}.cfg")
        assert main(["size", "--config", cfg, "--out", str(out)]) == 0
    for fname in ("size_quantities.csv",):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
