"""Numerical laboratory for Reissner-Mindlin plates with elastic inclusions.

Forward problem: traction-loaded plate, pure Neumann, solved up to the
three-dimensional kernel with mean-value constraints. Measurement: work of
the boundary load. Inverse layer: empirical verification of the two-sided
work-gap comparison and of the area bounds, interpolation and smallness
inequalities it rests on.
"""

from .estimates import (
    EnergyLemmaReport,
    Forward,
    LpsReport,
    SizeEstimateReport,
    SizeExperimentConfig,
    ThreeSpheresReport,
    calibrate_constants,
    convergence_study,
    forward,
    lps_check,
    run_corpus,
    run_size_experiment,
    size_bounds,
    three_spheres_sweep,
    verify_energy_lemma,
)
from .functionals import (
    EnergyField,
    boundary_work,
    disk_energies,
    frequency,
    stability_ratio,
    strain_energy_density,
    work_report,
)
from .geometry import (
    AprioriData,
    Domain,
    ElementMask,
    Mesh,
    fatness_ratio,
    generate_mesh,
    rasterize_inclusion,
)
from .material import (
    EllipticityConstants,
    InclusionMaterial,
    IsotropicMaterial,
    JumpBounds,
    derive_plate_tensors,
    ellipticity_constants,
    jump_bounds,
)
from .solver import (
    BoundaryLoad,
    CompatibilityError,
    LinearSystem,
    PlateState,
    SolveError,
    assemble_load,
    assemble_stiffness,
    dense_oracle_solve,
    load_from_family,
    residual_check,
    solve,
)

__version__ = "0.1.0"
