"""Typed exceptions raised across the library."""


class FlowFilterError(Exception):
    """Base class for all library errors."""


class NonFiniteState(FlowFilterError):
    """A trajectory or particle state, or the update of one, became NaN/inf;
    step is None where the raiser does not know the step."""

    def __init__(self, step: int | None, detail: str = ""):
        self.step = step
        where = "" if step is None else f" at step {step}"
        super().__init__(f"non-finite state{where}" + (f": {detail}" if detail else ""))


class FilterAborted(FlowFilterError):
    """A filter run failed mid-trajectory; carries the cause and the moments
    recorded up to the failing mesh point."""

    def __init__(self, step: int, cause: Exception, partial=None):
        self.step = step
        self.cause = cause
        self.partial = partial
        super().__init__(f"aborted at fine step {step}: "
                         f"{type(cause).__name__}: {cause}")


class ConditionViolation(FlowFilterError):
    """A log-concave OU condition failed on the sample cloud."""

    def __init__(self, condition: str, witness, margin: float):
        self.condition = condition
        self.witness = witness
        self.margin = margin
        super().__init__(f"condition {condition} violated (margin {margin:.3e}) at {witness}")


class DegenerateCloud(FlowFilterError):
    pass


class SingularCovariance(FlowFilterError):
    pass


class UnresolvedTail(FlowFilterError):
    """Cumulative right-hand-side integral does not vanish: grid too narrow."""


class IllConditioned(FlowFilterError):
    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(f"stiffness matrix condition number {cond:.3e} exceeds 1e12")


class DimensionError(FlowFilterError):
    pass


class ModelMismatch(FlowFilterError):
    pass


class CovarianceBlowup(FlowFilterError):
    pass


class NonPositiveParameter(FlowFilterError):
    pass


class NonPositiveDelta(FlowFilterError):
    pass


class NonPositiveDensity(FlowFilterError):
    pass


class CertificateFailed(FlowFilterError):
    """A numerical certificate did not verify on the computed values."""


class NotLogConcave(FlowFilterError):
    def __init__(self, witness_x: float, value: float):
        self.witness_x = witness_x
        self.value = value
        super().__init__(f"(-log rho)'' = {value:.3e} <= 0 at x = {witness_x:.6g}")


class ConfigError(FlowFilterError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config.{field}: {message}")
