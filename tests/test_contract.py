"""The exit-code contract under mutated configs.

One or two keys of a small valid config, per command, take an extreme or
malformed value. Every run ends by the contract (0 success, 1 config,
2 numerical, 3 inequality) with no traceback and no numpy warning, writes
to stderr exactly when it does not succeed, and writes no CSV on a config
error or a numerical failure. Every mesh drawn is at target size 1/8 or
coarser; a finer one is refused by its budget before it is built.
"""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from platelab import cli
from platelab.cli import main

from helpers import write_polygons

BASE = """\
domain = rectangle 0 0 1 1
lambda = 1.0
mu = 1.0
h = 1.0
target_size = 0.25
load = pure_bending a=1
timestamp = off
"""
INCLUSION = "inclusion = {poly}\nkappa = 2.0\n"

# a small valid config of each command; the probes' grids hold a few
# hundred candidate centers
COMMANDS = {
    "solve": BASE,
    "work": BASE + INCLUSION,
    "size": BASE.replace("0.25", "0.125") + INCLUSION,
    "three-spheres": BASE + "rho0 = 0.1\nrho = 0.04\npitch = 0.05\n",
    "lps": BASE + "rho = 0.04\n",
    "convergence": BASE + "refinements = 2\n",
}
# with a subnormal, and a name too long for a file name
VALUES = ("0", "-1", "nan", "inf", "1e-300", "1e-310", "1e300", "x", "",
          "a/b", "n" * 300)
# where a drawn value goes in the text of a key that is not one number
TEMPLATES = {
    "domain": ("rectangle 0 0 1 {}", "{}"),
    "load": ("pure_bending a={}", "twist a={}", "edge_moment c={}"),
    "x0": ("0.5 {}",),
    "center": ("0.5 {}",),
    "rho": ("{}", "0.04 {}"),
}


def _mutation(key):
    return st.tuples(st.just(key), st.sampled_from(TEMPLATES.get(key, ("{}",))),
                     st.sampled_from(VALUES))


mutations = st.lists(st.sampled_from(sorted(cli._KEYS)).flatmap(_mutation),
                     min_size=1, max_size=2, unique_by=lambda m: m[0])


def _by_design(warning):
    # rasterize_inclusion warns when the inclusion nears the boundary
    return issubclass(warning.category, UserWarning) and \
        str(warning.message).startswith("inclusion comes within")


@settings(settings.get_profile("derandomized"), max_examples=250)
@given(st.sampled_from(sorted(COMMANDS)), mutations)
def test_mutated_config_keeps_the_exit_code_contract(command, changes):
    with tempfile.TemporaryDirectory() as tmp:
        poly = os.path.join(tmp, "incl.poly")
        write_polygons(poly, [[(0.25, 0.25), (0.75, 0.25), (0.75, 0.75),
                               (0.25, 0.75)]])
        lines = dict(line.split(" = ", 1) for line in
                     COMMANDS[command].format(poly=poly).splitlines())
        for key, template, value in changes:
            lines[key] = template.format(value)
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in lines.items())
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([command, "--config", cfg, "--out", out])
        written = os.listdir(out) if os.path.isdir(out) else []
    assert code in (0, 1, 2, 3)
    assert [w for w in caught if not _by_design(w)] == []
    text = err.getvalue()
    assert (text == "") == (code == 0), text
    if code in (1, 2):
        assert text.count("\n") == 1, text
        assert written == []
