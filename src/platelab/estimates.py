"""Forward pipeline, work-gap comparison, area bounds, continuation probes.

The forward pipeline measures one number, the boundary-work gap between the
reference plate and the plate with an override region. Everything else in
this module relates that number to the override's area:

  * verify_energy_lemma checks the two-sided comparison between the gap and
    the reference strain energy stored in the override region,
  * size_bounds turns the gap into an area interval once two constants are
    fixed, and calibrate_constants fits those constants as a min/max
    envelope over a corpus,
  * three_spheres_sweep and lps_check probe the quantitative unique
    continuation properties of inclusion-free energy fields that make the
    lower area bound work,
  * run_size_experiment drives the whole chain for one configuration, and
    run_corpus for a corpus, whose configs share reference plates,
  * convergence_study checks the forward solve against closed forms.
"""

import functools
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import NamedTuple

import numpy as np

from .functionals import (
    boundary_work,
    disk_energies,
    frequency,
    work_report,
)
from .geometry import (
    count_text,
    fatness_ratio,
    generate_mesh,
    points_in_polygon,
    points_segment_distance,
    rasterize_inclusion,
)
from .material import (
    bending_voigt,
    derive_plate_tensors,
    ellipticity_constants,
    jump_bounds,
    shear_matrix,
)
from .solver import (
    assemble_load,
    assemble_stiffness,
    assemble_update,
    dense_oracle_solve,
    element_operators,
    exact_strains,
    factorize,
    load_from_family,
    solve,
)


# the resolution of a work gap, as a share of |W0|: the sparse and the dense
# solve of one plate agree on its works to this level, so a gap within it
# is rounding and reads as zero, and one beyond it on the wrong side of
# zero is a wrong sign
GAP_RTOL = 1e-10

# the defaults of the library, which a config that leaves the key out gets
# too: the load family, the probes' theta, and the convergence study's
# number of levels
LOAD_FAMILY = "pure_bending a=1"
THETA = 0.3
CONVERGENCE_LEVELS = 3


def _gap_term(gap, work_reference, sign):
    """The regime's gap term m, W0 - W in the stiff regime and W - W0 in
    the soft one: 0.0 within GAP_RTOL |W0| of zero, None when it is
    negative beyond that, else m."""
    m = gap if sign == "stiff" else -gap
    if abs(m) <= GAP_RTOL * abs(work_reference):
        return 0.0
    return None if m < 0.0 else m


@dataclass(frozen=True)
class EnergyLemmaReport:
    """Two-sided work-gap comparison.

    stiff regime: (eta/delta) * floor <= W0 - W <= (delta - 1) * cap
    soft regime:   eta * floor <= W - W0 <= ((1-delta)/delta) * cap

    where floor and cap integrate the reference curvature and shear over the
    override region against the lower and upper ellipticity constants. mid
    is the regime's middle term; mid_cross recomputes W0 - W as a single
    boundary integral of the difference state and must agree to 1e-9.
    """

    regime: str
    lhs: float
    mid: float
    rhs: float
    mid_cross: float
    floor_integral: float
    cap_integral: float
    work_reference: float
    work: float
    tolerance: float
    passed: bool
    messages: tuple


def verify_energy_lemma(state0, state, f, material, jumps, indicator):
    """EnergyLemmaReport of state0 and state, solved under load vector f."""
    mesh = state0.mesh
    if state.mesh is not mesh:
        raise ValueError("states must share one mesh")
    if state.assumed_shear != state0.assumed_shear:
        raise ValueError("states use different shear models")

    w0 = boundary_work(f, state0)
    w = boundary_work(f, state)
    gap = w0 - w
    # single boundary integral of the difference state; equals w0 - w by
    # linearity, recomputed independently as the cross-check
    gap_cross = float(f @ (state0.u - state.u))

    flags = np.asarray(indicator.flags, dtype=bool)
    floor_int = 0.0
    cap_int = 0.0
    if flags.any():
        ops = element_operators(mesh, 2, state0.assumed_shear)
        bend_sq, shear_sq = (sq[flags] for sq in ops.strain_squares(state0.u))
        wts = ops.point_weights()[flags]
        ec = ellipticity_constants(material)
        # numpy's cube of h: Python's ** rounds h = 0.01 cubed otherwise
        h = np.asarray(material.h, dtype=float)
        bend_lo = h ** 3 / 12.0 * ec.xi0 * bend_sq
        bend_hi = h ** 3 / 12.0 * ec.xi1 * bend_sq
        shear_lo = h * ec.sigma0 * shear_sq
        shear_hi = h * ec.sigma1 * shear_sq
        floor_int = float(np.sum(wts * (bend_lo + shear_lo)))
        cap_int = float(np.sum(wts * (bend_hi + shear_hi)))

    messages = []
    if jumps.sign == "stiff":
        mid = gap
        lhs = jumps.eta / jumps.delta * floor_int
        rhs = (jumps.delta - 1.0) * cap_int
    else:
        mid = w - w0
        lhs = jumps.eta * floor_int
        rhs = (1.0 - jumps.delta) / jumps.delta * cap_int

    # never finer than the works' own resolution
    tol = max(1e-8 * max(abs(mid), rhs), GAP_RTOL * abs(w0))
    terms = (f"lhs = {lhs:.3e}, mid = {mid:.3e}, rhs = {rhs:.3e}, "
             f"tol = {tol:.3e}")
    if not lhs <= mid + tol:
        messages.append(f"lower bound fails: {terms}")
    if not mid <= rhs + tol:
        messages.append(f"upper bound fails: {terms}")
    if _gap_term(gap, w0, jumps.sign) is None:
        messages.append(
            f"work gap sign inconsistent with {jumps.sign} regime (mid = {mid:.3e})")
    cross_tol = 1e-9 * max(abs(gap), abs(w0), abs(w))
    if abs(gap_cross - gap) > cross_tol:
        messages.append(
            f"mid cross-check failed: {gap:.12e} vs {gap_cross:.12e}")

    return EnergyLemmaReport(
        regime=jumps.sign, lhs=lhs, mid=mid, rhs=rhs, mid_cross=gap_cross,
        floor_integral=floor_int, cap_integral=cap_int, work_reference=w0,
        work=w, tolerance=tol, passed=not messages,
        messages=tuple(messages))


class SizeBoundsResult(NamedTuple):
    lower: float
    upper: float


def size_bounds(gap, work_reference, jumps, c1, c2, rho0):
    """Area interval from the work gap, through the gap term m of _gap_term.

    stiff: [c1 rho0^2 m / ((delta-1) W0), c2 delta rho0^2 m / (eta W0)]
    soft:  [c1 delta rho0^2 m / ((1-delta) W0), c2 rho0^2 m / (eta W0)]
    """
    if not work_reference > 0.0:
        raise ValueError("reference work must be positive")
    if not (c1 > 0.0 and c2 > 0.0):
        raise ValueError("calibration constants must be positive")
    m = _gap_term(gap, work_reference, jumps.sign)
    if m is None:
        side = "negative" if jumps.sign == "stiff" else "positive"
        raise ValueError(f"{side} work gap {gap:.3e} in {jumps.sign} regime")
    scale = rho0 ** 2 / work_reference
    if jumps.sign == "stiff":
        return SizeBoundsResult(c1 * scale * m / (jumps.delta - 1.0),
                                c2 * jumps.delta * scale * m / jumps.eta)
    return SizeBoundsResult(c1 * jumps.delta * scale * m / (1.0 - jumps.delta),
                            c2 * scale * m / jumps.eta)


@dataclass(frozen=True)
class CalibrationResult:
    c1: float
    c2: float
    count: int
    regime: str


def calibrate_constants(corpus, rho0=1.0):
    """Envelope fit of (c1, c2) over (true_area, gap, W0, jumps) records.

    c1 is the largest constant keeping every lower bound below its true
    area; c2 the smallest keeping every upper bound above. The calibrated
    interval brackets every corpus entry by construction.
    """
    records = list(corpus)
    if not records:
        raise ValueError("empty calibration corpus")
    regime = records[0][3].sign
    c1 = np.inf
    c2 = 0.0
    for i, (true_area, gap, w0, jumps) in enumerate(records):
        if jumps.sign != regime:
            raise ValueError("calibration corpus mixes regimes")
        base = size_bounds(gap, w0, jumps, 1.0, 1.0, rho0)
        if base.lower <= 0.0 or base.upper <= 0.0:
            raise ValueError(f"degenerate corpus entry {i}: zero work gap")
        c1 = min(c1, true_area / base.lower)
        c2 = max(c2, true_area / base.upper)
    return CalibrationResult(float(c1), float(c2), len(records), regime)


@dataclass(frozen=True)
class ThreeSpheresReport:
    """Concentric-disk interpolation fit at one admissible center.

    The three integrals take radii rho, 3 rho and (7/(2 theta)) rho. The
    exponent solves I_mid = (rho0/rho)^2 * I_small^tau * I_large^(1-tau)
    exactly when feasible; tau is that root clipped to (0.01, 0.99) and
    constant is the prefactor making the clipped form an equality. feasible
    means the unclipped root lies in (0, 1). A degenerate report, of a zero
    field or of vanishing inner integrals, has no fit; it is infeasible when
    the middle integral holds energy that the inner one does not.
    """

    center: tuple
    rho: float
    i_small: float
    i_mid: float
    i_large: float
    tau: float
    tau_raw: float
    constant: float
    feasible: bool
    degenerate: bool


def three_spheres_sweep(field, centers, rho, theta=THETA):
    """ThreeSpheresReport for each center at field.rho0, from one disk pass.

    Raises ValueError naming the first center that lies outside the domain
    or closer than (7/(2 theta)) rho to its boundary.
    """
    _require_positive("rho", rho)
    if not rho < field.rho0:
        raise ValueError("rho must be smaller than rho0")
    margin = _margin(rho, theta)
    pts = np.asarray(centers, dtype=float).reshape(-1, 2)
    ok, dist = _admissible(pts, field.mesh, margin)
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        raise ValueError(
            f"center {tuple(pts[i].tolist())} inadmissible: needs distance >= "
            f"{margin:.4g} from the boundary, has {dist[i]:.4g}")
    energies = disk_energies(field, pts, (rho, 3.0 * rho, margin))
    return [_three_spheres_report((float(c[0]), float(c[1])), rho,
                                  field.rho0, *map(float, e))
            for c, e in zip(pts, energies)]


def _three_spheres_report(center, rho, rho0, i1, i3, i7):
    base = dict(center=center, rho=float(rho), i_small=i1, i_mid=i3,
                i_large=i7)

    def degenerate(feasible):
        return ThreeSpheresReport(
            **base, tau=np.nan, tau_raw=np.nan, constant=np.nan,
            feasible=feasible, degenerate=True)

    if i7 <= 0.0 or i1 <= 0.0:
        return degenerate(i7 <= 0.0 or i3 <= 0.0)

    # equality exponent: log(i3/i1) = 2 log(rho0/rho) + (1-tau) log(i7/i1)
    pref = 2.0 * np.log(rho0 / rho)
    grow = np.log(i7 / i1)
    tau_raw = 1.0 - (np.log(i3 / i1) - pref) / grow if grow > 0.0 else np.nan
    feasible = bool(0.0 < tau_raw < 1.0) if np.isfinite(tau_raw) else False
    tau = float(np.clip(tau_raw, 0.01, 0.99)) if np.isfinite(tau_raw) else np.nan
    if np.isfinite(tau):
        constant = i3 / ((rho0 / rho) ** 2 * i1 ** tau * i7 ** (1.0 - tau))
    else:
        constant = np.nan
    return ThreeSpheresReport(
        **base, tau=tau, tau_raw=float(tau_raw), constant=float(constant),
        feasible=feasible, degenerate=False)


def _require_positive(name, value):
    if not value > 0.0:
        raise ValueError(f"{name} must be positive")


def _margin(rho, theta):
    """The depth (7/(2 theta)) rho that a probe center keeps from the
    boundary, the radius of the three-spheres outer disk."""
    _require_positive("theta", theta)
    return 7.0 / (2.0 * theta) * rho


def _admissible(points, mesh, margin):
    """(mask, dist) of points: dist is the distance to the boundary, 0 for
    a point outside the domain, and mask flags the points at least margin
    deep, up to rounding."""
    verts = mesh.domain.vertices
    dist = np.where(points_in_polygon(points, verts),
                    points_segment_distance(points, verts), 0.0)
    return dist >= margin * (1.0 - 1e-12), dist


# the most candidate centers one grid tests: the grid and its admissibility
# test take about 140 bytes per candidate, so about 140 MB at the budget
MAX_CENTERS = 1_000_000


def admissible_centers(mesh, rho, theta=THETA, pitch=None):
    """Deterministic center grid for the interpolation and smallness probes.

    Pitch defaults to min(rho/2, l) with l the covering-square side
    4 theta h1 rho0 / (2 sqrt(2) theta + 7) from the a priori data.
    Admissible centers lie at least (7/(2 theta)) rho deep in the domain;
    a grid of more than MAX_CENTERS candidates, or without an admissible
    one, is refused.
    """
    _require_positive("rho", rho)
    margin = _margin(rho, theta)
    ap = mesh.domain.apriori
    if pitch is None:
        # in floats, not numpy scalars, like the count below
        side = 4.0 * theta * ap.h1 * ap.rho0
        pitch = min(rho / 2.0, side / (2.0 * math.sqrt(2.0) * theta + 7.0))
    _require_positive("pitch", pitch)
    start = mesh.nodes.min(axis=0) + pitch / 2.0
    stop = mesh.nodes.max(axis=0)
    # np.arange's lengths, counted in floats before anything is allocated:
    # a count past the float range is inf, not an error
    count = math.prod(max(0.0, float(np.ceil(float(b - a) / pitch)))
                      for a, b in zip(start, stop))
    if count > MAX_CENTERS:
        raise ValueError(f"center grid of {count_text(count)} candidates "
                         f"exceeds the budget of {MAX_CENTERS}")
    xs, ys = (np.arange(a, b, pitch) for a, b in zip(start, stop))
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    cand = np.column_stack([gx.ravel(), gy.ravel()])
    keep, _ = _admissible(cand, mesh, margin)
    if not keep.any():
        raise ValueError(f"no admissible centers at depth {margin:.4g}; "
                         "shrink rho or theta")
    return cand[keep]


@dataclass(frozen=True)
class LpsReport:
    """Minimum local-to-total energy ratio over a grid of interior disks."""

    centers: np.ndarray
    ratios: np.ndarray
    constant: float


def lps_check(field, rho, theta=THETA):
    """LpsReport of field at radius rho; a field without energy is refused."""
    total = field.total
    _require_positive("reference energy", total)
    centers = admissible_centers(field.mesh, rho, theta)
    ratios = disk_energies(field, centers, (rho,))[:, 0] / total
    return LpsReport(centers, ratios, float(ratios.min()))


# ---------------------------------------------------------------------------
# the full pipeline, for one configuration and for a corpus


@dataclass(frozen=True)
class SizeExperimentConfig:
    domain: object
    material: object
    target_size: float
    load_family: str = LOAD_FAMILY
    inclusion_polygons: tuple = ()
    inclusion: object | None = None
    c1: float = 1.0
    c2: float = 1.0
    assumed_shear: bool = True
    dense_oracle: bool = False
    element_budget: int | None = None
    name: str = "experiment"

    def __post_init__(self):
        if (self.inclusion is None) != (len(self.inclusion_polygons) == 0):
            raise ValueError(
                "inclusion material and inclusion polygons come together")
        # before any mesh or solve; size_bounds keeps its own guard
        _require_positive("c1", self.c1)
        _require_positive("c2", self.c2)


@dataclass(frozen=True)
class SizeEstimateReport:
    name: str
    n_elements: int
    mesh_size: float
    true_area: float
    work_reference: float
    work: float
    gap: float
    relative_gap: float
    regime: str | None
    eta: float | None
    delta: float | None
    c1: float
    c2: float
    sign_ok: bool
    lower: float
    upper: float
    fatness: float
    frequency_ratio: float
    lemma: EnergyLemmaReport | None
    messages: tuple

    @property
    def passed(self):
        """The verdict of the report: the gap's sign and, with an
        inclusion, the energy lemma."""
        return self.sign_ok and (self.lemma is None or self.lemma.passed)


class Forward(NamedTuple):
    """Mesh, load, load vector, inclusion mask and the two solved states of
    one config; state is state0 when the configuration has no inclusion."""

    mesh: object
    load: object
    rhs: np.ndarray
    indicator: object
    state0: object
    state: object


# the fields that only the inclusion plate and the size report read; configs
# that agree on every other field share one reference plate
_INCLUSION_ONLY = ("inclusion_polygons", "inclusion", "c1", "c2", "name")


def _reference_plate(config):
    """(Forward, factor) of config's plate without its inclusion; factor is
    the kept factor of the sparse solve, None under the dense oracle."""
    mesh = generate_mesh(config.domain, config.target_size,
                         config.element_budget)
    load = load_from_family(mesh, config.load_family, config.material)
    rhs = assemble_load(load)
    system = assemble_stiffness(mesh, config.material,
                                assumed_shear=config.assumed_shear)
    system = system.with_load(rhs)
    factor = None
    if config.dense_oracle:
        state0 = dense_oracle_solve(system)
    else:
        factor = factorize(system)
        state0 = solve(system, factor=factor)
    return Forward(mesh, load, rhs, rasterize_inclusion(mesh, ()), state0,
                   state0), factor


def _inclusion_state(config, plate, factor, indicator):
    """The inclusion plate's state: a dense solve under the dense oracle,
    else conjugate gradients preconditioned with the reference factor."""
    # assembling the update also checks the inclusion against the mesh
    update = assemble_update(plate.mesh, config.material, indicator,
                             config.inclusion, config.assumed_shear)
    if indicator.empty:
        # the plate is the reference plate, whose state is state0
        return plate.state0
    if config.dense_oracle:
        system = assemble_stiffness(plate.mesh, config.material, indicator,
                                    config.inclusion,
                                    assumed_shear=config.assumed_shear)
        return dense_oracle_solve(system.with_load(plate.rhs))
    return solve(factor.system, factor=factor, update=update,
                 start=plate.state0.u)


def _forward(config, plate, factor):
    """forward(config), bit for bit, on the reference plate and factor of a
    config with the same reference key, reused as they are."""
    indicator = rasterize_inclusion(plate.mesh, config.inclusion_polygons)
    state = plate.state0 if config.inclusion is None else \
        _inclusion_state(config, plate, factor, indicator)
    return plate._replace(indicator=indicator, state=state)


def forward(config):
    """Mesh, load, reference solve, inclusion mask and inclusion solve."""
    return _forward(config, *_reference_plate(config))


def run_size_experiment(config):
    """The size report of one configuration: a run_corpus group of one."""
    return _size_experiment(config, lambda: _shared_reference(config))


def _size_experiment(config, reference):
    """run_size_experiment on reference(), the _shared_reference of a
    config with the same reference key."""
    ap = config.domain.apriori
    # the config's own contrast and material window errors come before its
    # reference's errors
    jumps = None
    if config.inclusion is not None:
        jumps = jump_bounds(config.material, config.inclusion)
        ellipticity_constants(config.material)
    plate, factor, freq = reference()
    fw = _forward(config, plate, factor)
    del plate, factor  # size frees the factor once the inclusion is solved
    mesh, indicator = fw.mesh, fw.indicator
    messages = []
    if jumps is not None and indicator.empty:
        messages.append("inclusion polygons flagged no elements")

    work = work_report(fw.rhs, fw.state, fw.state0)
    w0, gap = work.work_reference, work.gap
    if jumps is None:
        sign_ok = True
        lower, upper = 0.0, 0.0
        lemma = None
    else:
        # a wrong sign computes no bounds; the lemma's sign line names it
        sign_ok = _gap_term(gap, w0, jumps.sign) is not None
        lower, upper = size_bounds(gap, w0, jumps, config.c1, config.c2,
                                   ap.rho0) if sign_ok else (np.nan, np.nan)
        lemma = verify_energy_lemma(fw.state0, fw.state, fw.rhs,
                                    config.material, jumps, indicator)
        messages.extend(lemma.messages)

    # skip the empty-indicator warning path; 1.0 is its defined value
    fat = 1.0 if indicator.empty else \
        fatness_ratio(mesh, indicator, ap.h1 * ap.rho0)
    return SizeEstimateReport(
        name=config.name, n_elements=mesh.n_elements,
        mesh_size=float(mesh.mesh_size), true_area=float(indicator.area),
        work_reference=w0, work=work.work, gap=gap,
        relative_gap=work.relative_gap,
        regime=None if jumps is None else jumps.sign,
        eta=None if jumps is None else jumps.eta,
        delta=None if jumps is None else jumps.delta,
        c1=config.c1, c2=config.c2, sign_ok=sign_ok,
        lower=float(lower), upper=float(upper), fatness=float(fat),
        frequency_ratio=freq().ratio,
        lemma=lemma, messages=tuple(messages))


def _by_value(value):
    """A hashable stand-in for value that compares by value: arrays by
    dtype, shape and bytes, dataclasses field by field."""
    if isinstance(value, np.ndarray):
        return (np.ndarray, value.dtype.str, value.shape, value.tobytes())
    if is_dataclass(value):
        return (type(value),) + tuple(_by_value(getattr(value, f.name))
                                      for f in fields(value))
    if isinstance(value, (tuple, list)):
        return (tuple,) + tuple(map(_by_value, value))
    return value


def _once(compute):
    """A callable that runs compute() on its first call; every later call
    returns the value or raises the exception of that first run. Its
    outcome list stays empty until the first call."""
    outcome = []

    def once():
        if not outcome:
            try:
                outcome.append((compute(), None))
            except Exception as exc:
                outcome.append((None, exc))
        value, exc = outcome[0]
        if exc is not None:
            raise exc
        return value
    once.outcome = outcome
    return once


def _shared_reference(config):
    """_reference_plate(config) and a callable that computes the plate's
    frequency report once, on first call: after an inclusion solve, when
    size has freed the factor."""
    plate, factor = _reference_plate(config)
    return plate, factor, _once(functools.partial(frequency, plate.load))


def _outcome_of(compute):
    """compute(), or the exception it raised."""
    try:
        return compute()
    except Exception as exc:
        return exc


def _outcome(config, reference):
    """_size_experiment(config, reference), or the exception it raised."""
    return _outcome_of(functools.partial(_size_experiment, config, reference))


# the configs and the group reference of a forked worker, set in the worker
# before its first entry
_WORKER_GROUP = None


def _adopt(configs, reference):
    global _WORKER_GROUP
    _WORKER_GROUP = configs, reference


def _worker_outcome(i):
    configs, reference = _WORKER_GROUP
    return i, _outcome(configs[i], reference)


def _forked_outcomes(configs, reference, indices, jobs):
    """(i, outcome) of each config i of indices, on at most jobs worker
    processes forked from this one: they inherit configs and reference, so
    only the indices and the outcomes cross between processes. Every worker
    has ended when this returns."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, for the inheritance; a fork-context pool forks all its workers
    # before it starts a thread of its own
    with ProcessPoolExecutor(min(jobs, len(indices)),
                             multiprocessing.get_context("fork"),
                             initializer=_adopt,
                             initargs=(configs, reference)) as pool:
        return list(pool.map(_worker_outcome, indices))


def run_corpus(configs, jobs=1):
    """run_size_experiment of every config, in order, on up to jobs
    processes.

    Configs that differ only in inclusion-only fields (_INCLUSION_ONLY)
    share one reference plate, with its mesh, load, solve, kept factor and
    frequency report; fields compare by value. A group's configs run in
    this process, in corpus order, until one of them that passes its own
    checks has built the reference; its frequency report is computed here
    too, by that config or, if it failed first, before any fork. The rest
    of the group runs on at most jobs worker processes forked from that
    state, or here when jobs is 1 or one config is left.
    The groups run one after the other, and a group's workers end before
    the next reference is built, so one reference is alive at a time.
    After the whole corpus ran, the failure of the first failing config is
    raised, the same one that config raises alone.
    """
    configs = list(configs)
    names = [f.name for f in fields(SizeExperimentConfig)
             if f.name not in _INCLUSION_ONLY]
    groups = {}
    for i, c in enumerate(configs):
        key = _by_value([getattr(c, n) for n in names])
        groups.setdefault(key, []).append(i)
    outcomes = [None] * len(configs)
    for idx in groups.values():
        reference = _once(functools.partial(_shared_reference,
                                            configs[idx[0]]))
        rest = iter(idx)
        for i in rest:
            outcomes[i] = _outcome(configs[i], reference)
            if reference.outcome:
                break
        rest = list(rest)
        if jobs > 1 and len(rest) > 1:
            # the entry that built the reference may have failed before its
            # report: compute it here, so the workers inherit it
            _outcome_of(lambda: reference()[2]())
            pairs = _forked_outcomes(configs, reference, rest, jobs)
        else:
            pairs = [(i, _outcome(configs[i], reference)) for i in rest]
        for i, outcome in pairs:
            outcomes[i] = outcome
        del reference  # before the next reference is built
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


_EXACT_FLOOR = 1e-8


def convergence_study(config, levels=CONVERGENCE_LEVELS):
    """Uniform-refinement errors against the closed-form solution, on the
    plate of config, an inclusion-free one, at its target size halved
    0 .. levels - 1 times.

    Returns rows (n_elements, mesh_size, energy_error, work_error,
    observed_order), one per level.
    Energy errors are relative to the exact energy norm; once an error
    falls below _EXACT_FLOOR the solution is exact to round-off and the
    observed order is reported as inf.
    """
    if config.inclusion is not None:
        raise ValueError("convergence studies a plate without inclusion")
    kv, gv, density = exact_strains(config.load_family, config.material)
    t = derive_plate_tensors(config.material)
    db = bending_voigt(t)
    sm = shear_matrix(t)
    w_exact = density * config.domain.area
    _require_positive("reference work", w_exact)
    records = []
    prev = None
    for level in range(levels):
        fw = forward(replace(config,
                             target_size=config.target_size / 2 ** level))
        ops = element_operators(fw.mesh, 2, config.assumed_shear)
        wts = ops.point_weights()
        dk = ops.curvatures(fw.state.u) - kv
        dg = ops.shears(fw.state.u) - gv
        err2 = float(np.sum(wts * (np.einsum("ega,ab,egb->eg", dk, db, dk)
                                   + np.einsum("ega,ab,egb->eg", dg, sm, dg))))
        w_err = abs(boundary_work(fw.rhs, fw.state) - w_exact) / w_exact
        e_rel = np.sqrt(max(err2, 0.0) / w_exact)
        if prev is None:
            order = None
        elif e_rel < _EXACT_FLOOR:
            order = float("inf")
        else:
            order = float(np.log2(prev / e_rel))
        records.append((fw.mesh.n_elements, fw.mesh.mesh_size, e_rel, w_err,
                        order))
        prev = e_rel
    return records
