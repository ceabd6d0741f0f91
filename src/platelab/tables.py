"""CSV emission: schema headers, deterministic float formatting.

Every table starts with a `# schema=platelab.<kind>.v1` line and, unless
disabled, a `# written=<iso timestamp>` line. Floats are formatted with
repr, the shortest round-tripping form, so identical inputs give byte
identical files.
"""

import datetime

import numpy as np


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    try:
        return repr(float(value))
    except (TypeError, ValueError):
        return str(value)


# the text of a cell of these exact types, as _fmt writes it
_PLAIN = {float: repr, int: str}


def _column(cells):
    """The text of each cell of a column: formatted at once when every cell
    has one type of _PLAIN, else cell by cell."""
    kinds = set(map(type, cells))
    fmt = _PLAIN.get(kinds.pop(), _fmt) if len(kinds) == 1 else _fmt
    return map(fmt, cells)


def csv_text(kind, header, rows, timestamp=True):
    lines = [f"# schema=platelab.{kind}.v1"]
    if timestamp:
        now = datetime.datetime.now(datetime.timezone.utc)
        lines.append(f"# written={now.isoformat(timespec='seconds')}")
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*map(_column, zip(*rows)))))
    return "\n".join(lines) + "\n"


def write_csv(path, kind, header, rows, timestamp=True):
    text = csv_text(kind, header, rows, timestamp=timestamp)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# row builders; each returns (kind, header, rows)


def state_rows(state):
    nodes = state.mesh.nodes
    rows = list(zip(range(len(nodes)), nodes[:, 0].tolist(),
                    nodes[:, 1].tolist(), state.phi1.tolist(),
                    state.phi2.tolist(), state.w.tolist()))
    return "state", ("node_id", "x", "y", "phi1", "phi2", "w"), rows


def quantity_rows(experiment_id, report):
    """Generic (id, quantity, value) rows from scalar fields of a report
    dataclass or plain mapping."""
    if isinstance(report, dict):
        items = report.items()
    else:
        items = ((name, getattr(report, name))
                 for name in getattr(report, "__dataclass_fields__", {}))
    rows = []
    for name, value in items:
        if isinstance(value, (bool, int, float, str, np.floating, np.integer)) \
                or value is None:
            rows.append((experiment_id, name, value))
    return "quantities", ("id", "quantity", "value"), rows


def corpus_rows(reports):
    rows = []
    for r in reports:
        lemma_pass = "" if r.lemma is None else (1 if r.lemma.passed else 0)
        rows.append((r.name, float(r.true_area), float(r.work_reference),
                     float(r.work), float(r.gap), float(r.lower),
                     float(r.upper), float(r.fatness),
                     float(r.frequency_ratio), lemma_pass))
    header = ("id", "true_area", "work_reference", "work", "gap", "lower",
              "upper", "fatness", "frequency_ratio", "lemma_pass")
    return "corpus", header, rows


def convergence_rows(records):
    """records: (n_elements, mesh_size, energy_error, work_error, order)."""
    rows = [(int(n), float(hsz), float(ee), float(we),
             "" if order is None else float(order))
            for n, hsz, ee, we, order in records]
    header = ("n_elements", "mesh_size", "energy_error", "work_error",
              "observed_order")
    return "convergence", header, rows


def three_spheres_rows(reports):
    rows = [(float(r.center[0]), float(r.center[1]), float(r.rho),
             float(r.i_small), float(r.i_mid), float(r.i_large),
             float(r.tau), float(r.tau_raw), float(r.constant),
             1 if r.feasible else 0, 1 if r.degenerate else 0)
            for r in reports]
    header = ("center_x", "center_y", "rho", "i_small", "i_mid", "i_large",
              "tau", "tau_raw", "constant", "feasible", "degenerate")
    return "three_spheres", header, rows


def lps_rows(report):
    centers = report.centers
    rows = list(zip(centers[:, 0].tolist(), centers[:, 1].tolist(),
                    report.ratios.tolist()))
    return "lps", ("center_x", "center_y", "ratio"), rows
