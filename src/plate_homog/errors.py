"""Exception taxonomy and CLI exit codes.

Every failure class maps to a stable exit code so shell pipelines can
distinguish bad input files from bad materials from solver breakdowns.
"""

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ADMISSIBILITY = 3
EXIT_SOLVER = 4
EXIT_SIZE_CAP = 5


class PlateHomogError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class SpecFormatError(PlateHomogError):
    """Input file violates the documented JSON schema, the command line is
    malformed, or an output cannot be written."""

    exit_code = EXIT_PARSE


class AdmissibilityError(PlateHomogError):
    """Material fails its declared ellipticity bounds."""

    exit_code = EXIT_ADMISSIBILITY


class DegenerateMaterialError(AdmissibilityError):
    """Out-of-plane (or transverse) block of a material form is singular."""


class DegenerateProfileError(AdmissibilityError):
    """Thickness profile produces a singular zeroth moment."""


class SolverError(PlateHomogError):
    """Iterative solver failed to reach the requested residual.

    Carries the relative-residual history so callers can diagnose
    stagnation versus slow convergence.
    """

    exit_code = EXIT_SOLVER

    def __init__(self, message, residuals=()):
        super().__init__(message)
        self.residuals = tuple(residuals)


class SizeCapError(PlateHomogError):
    """Dense oracle problem exceeds the unknown-count cap, or an input needs
    more memory than the host grants."""

    exit_code = EXIT_SIZE_CAP


class SweepError(PlateHomogError):
    """One or more scenarios of a sweep failed; carries the worst exit code."""

    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code
