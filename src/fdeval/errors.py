"""Error taxonomy shared by all modules.

Every failure mode raised on purpose derives from FdevalError, and the class
alone picks the CLI's exit code. InvalidParameter means a chosen value is out
of range (a flag such as `sgr --rstar 2` or `precision-audit --n 0`, or a
config entry) and exits 2: fix the input and rerun. Every other FdevalError
describes data that cannot be evaluated and exits 1. Genuine bugs still
surface as ordinary tracebacks.
"""


class FdevalError(Exception):
    pass


class MissingFile(FdevalError):
    pass


class ShapeMismatch(FdevalError):
    pass


class NonFiniteValue(FdevalError):
    pass


class LabelOutOfRange(FdevalError):
    pass


class EmptyNewClassStudy(FdevalError):
    pass


class MissingMcdStack(FdevalError):
    pass


class MissingFeatures(FdevalError):
    pass


class UnknownExternal(FdevalError):
    pass


class SingularCovariance(FdevalError):
    pass


class ClassUnderpopulated(FdevalError):
    pass


class EmptyEvaluationSet(FdevalError):
    pass


class DegenerateLabels(FdevalError):
    pass


class NoFeasibleThreshold(FdevalError):
    pass


class PerfectSeparation(FdevalError):
    pass


class InvalidParameter(FdevalError):
    pass
