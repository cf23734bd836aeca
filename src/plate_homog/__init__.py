"""Effective bending stiffness of periodically structured thin plates.

Computes plate bending quadratic forms for materials that oscillate
through the thickness and/or periodically in plane: plane-stress
reduction, thickness-moment bending forms, and two periodic corrector
pipelines (unit-cell and slab), each guarded by an independent dense
oracle.

Importing the package loads ``core`` and ``errors`` only.  Every other
public name is looked up in its module on first access (PEP 562), so a
caller that never touches the corrector pipelines never imports ``fem``,
``homog3d``, ``homogslab`` or ``oracle``.  ``from plate_homog import *``
imports them all.  No module needs more than numpy.
"""

import importlib

from .core import (
    EffectiveReport,
    MaterialBounds,
    QuadForm2,
    QuadForm3,
    mandel2,
    mandel3,
    qf_isotropic,
    unmandel2,
    unmandel3,
)
from .errors import (
    AdmissibilityError,
    DegenerateMaterialError,
    DegenerateProfileError,
    PlateHomogError,
    SizeCapError,
    SolverError,
    SpecFormatError,
    SweepError,
)

__version__ = "0.1.0"

# public name -> the module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(
        ("CellMaterial3", "CorrectorField3", "bending_form_regime1", "corrector_solve_3d",
         "homogenized_form_3d"),
        "homog3d",
    ),
    **dict.fromkeys(
        ("FiberMaterial", "SlabCorrector", "SlabMaterial", "bending_form_regime2",
         "fiber_reduce", "slab_corrector_solve"),
        "homogslab",
    ),
    **dict.fromkeys(
        ("bilayer_closed_form", "brute_force_regime1", "brute_force_regime2",
         "laminate_closed_form", "laminate_reduced_form"),
        "oracle",
    ),
    **dict.fromkeys(
        ("MomentTriple", "ThicknessProfile", "bending_form", "moment_matrices",
         "oscillation_experiment", "plane_stress_reduce", "profile_average", "reduce_profile"),
        "reduction",
    ),
    **dict.fromkeys(("SurfaceSpec", "parse_material_spec", "plate_energy"), "app"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


# the eager names of core and errors, and the lazy ones
__all__ = sorted(
    [name for name, value in globals().items()
     if getattr(value, "__module__", "").startswith(__name__ + ".")]
    + list(_LAZY)
)
