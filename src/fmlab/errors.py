"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid user-supplied configuration (graph sizes, config files, parameters)."""


class NumericalError(RuntimeError):
    """A LAPACK routine failed to converge or a result violated its residual contract.

    member is the first failing matrix's position in the stack that was checked.
    """

    def __init__(self, message, digest=None, member=0):
        if digest is not None:
            message = f"{message} [instance {digest[:16]}]"
        super().__init__(message)
        self.digest = digest
        self.member = member


class DegenerateFitError(RuntimeError):
    """A fit was requested on data that cannot support one (e.g. all zeros)."""


class ResampleSignal(Exception):
    """A shifted solve hit an (almost surely measure-zero) exactly singular matrix.

    members is a boolean mask over the stack that was solved, True where the
    member is singular.  estimators.solve_resampled catches this and redraws
    those members' disorder, at most MAX_RETRIES times before raising
    NumericalError; it never escapes to users.
    """

    def __init__(self, members):
        super().__init__("exactly singular shifted matrix")
        self.members = members
