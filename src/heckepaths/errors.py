"""Exception hierarchy shared by all modules."""


class HPLError(Exception):
    """Base class for every domain error raised by this package."""


class NotGCM(HPLError):
    """The supplied integer matrix violates a Kac-Moody matrix axiom."""

    def __init__(self, i, j, axiom):
        self.i = i
        self.j = j
        self.axiom = axiom
        super().__init__(f"not a Kac-Moody matrix: axiom {axiom} fails at entry ({i}, {j})")


class NotSymmetrizable(HPLError):
    """No positive symmetrizer d_i with d_i a_ij = d_j a_ji exists."""


class NotDominant(HPLError):
    """A vector required to be dominant is not."""


class HeightBoundTooSmall(HPLError):
    """A root needed by the computation has height above the supplied bound."""

    def __init__(self, needed, bound):
        self.needed = needed
        self.bound = bound
        super().__init__(f"height bound {bound} too small: a root of height {needed} is needed")


class OutOfRange(HPLError):
    """Path parameter outside its allowed interval."""


class NonLambdaPath(HPLError):
    """Piecewise data whose derivatives do not lie in a single Weyl orbit."""


class OperatorUndefined(HPLError):
    """A root operator is not applicable to the given path."""

    def __init__(self, kind, index, reason):
        self.kind = kind
        self.index = index
        self.reason = reason
        super().__init__(f"operator {kind}_{index} undefined: {reason}")


class UnsupportedType(HPLError):
    """Operation restricted to finite or untwisted affine type, or to integral simple roots and coroots."""


class CapHit(HPLError):
    """A generation cap was reached before the requested data was complete."""


class FoldNotApplicable(HPLError):
    """A chain root cannot be used to fold the current gallery."""

    def __init__(self, index, reason):
        self.index = index
        self.reason = reason
        super().__init__(f"fold {index} not applicable: {reason}")


class NotHecke(HPLError):
    """The operation requires a Hecke path."""


class CrossCheckMismatch(HPLError):
    """Internal consistency failure between two independent computations."""


class FormatError(HPLError):
    """Malformed input file or literal."""
