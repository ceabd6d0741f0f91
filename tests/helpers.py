"""Input writers and reference formulas that only the tests use."""

import csv

import numpy as np

from platelab.geometry import ElementMask
from platelab.material import _BEND_COLS, _SHEAR_COLS, derive_plate_tensors


def write_polygons(path, polys):
    with open(path, "w") as fh:
        for k, p in enumerate(polys):
            if k:
                fh.write("\n")
            for x, y in np.asarray(p, dtype=float):
                fh.write(f"{float(x)!r} {float(y)!r}\n")


def mask_to_csv(mask, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element_id", "flag"])
        for i, f in enumerate(mask.flags):
            writer.writerow([i, int(f)])


def mask_from_csv(path, mesh):
    flags = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["element_id", "flag"]:
            raise ValueError("expected header element_id,flag")
        flags = np.zeros(mesh.n_elements, dtype=bool)
        for row in reader:
            flags[int(row[0])] = bool(int(row[1]))
    return ElementMask(flags, float(mesh.element_areas[flags].sum()))


def bending_apply(mat, element, a):
    """Apply the bending tensor of one element to a 2x2 matrix."""
    t = derive_plate_tensors(mat)
    b = t.rigidity if np.ndim(t.rigidity) == 0 else t.rigidity[element]
    nu = t.nu if np.ndim(t.nu) == 0 else t.nu[element]
    a = np.asarray(a, dtype=float)
    sym = 0.5 * (a + a.T)
    return b * ((1.0 - nu) * sym + nu * np.trace(a) * np.eye(2))


def write_shear_table(path, element_ids, stilde):
    st = np.asarray(stilde, dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SHEAR_COLS)
        for i, e in enumerate(element_ids):
            w.writerow([int(e), repr(float(st[i, 0, 0])),
                        repr(float(st[i, 0, 1])), repr(float(st[i, 1, 1]))])


def write_bending_table(path, element_ids, ptilde):
    pt = np.asarray(ptilde, dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_BEND_COLS)
        for i, e in enumerate(element_ids):
            m = pt[i]
            w.writerow([int(e)] + [repr(float(v)) for v in
                                   (m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2])])
