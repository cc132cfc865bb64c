"""Exception types shared across the package."""


class G2KummerError(Exception):
    """Base class for all library errors."""


class DivisionByZero(G2KummerError, ZeroDivisionError):
    pass


class UnsupportedField(G2KummerError):
    """The operation is not defined for this field kind."""


class NoSolutionCertificate(G2KummerError):
    """Over the rationals only exact perfect-square discriminants are attempted."""


class LengthMismatch(G2KummerError, ValueError):
    pass


class AsymmetricForm(G2KummerError, ValueError):
    """A biquadratic form is not symmetric in its two arguments."""


class CharacteristicTwo(G2KummerError):
    """The operation requires odd or zero characteristic."""


class RootsNotRational(G2KummerError):
    """A required root (or Artin-Schreier preimage) does not lie in the base field."""


class SingularCurve(G2KummerError):
    pass


class DegreeOverflow(G2KummerError):
    """A model transformation would exceed the degree bounds deg f <= 6, deg h <= 3."""


class NoRationalWeierstrassPoint(G2KummerError):
    pass


class ExhaustedRetries(G2KummerError):
    pass


class UnsupportedDivisor(G2KummerError):
    """Doubled Weierstrass point or doubled infinite point; callers resample."""


class FormulaSetMissing(G2KummerError):
    pass


class KernelDimensionUnexpected(G2KummerError):
    pass


class NotInSubfield(G2KummerError):
    pass


class CrossCheckFailed(G2KummerError):
    pass


class ZeroOutput(G2KummerError):
    """All four duplication quartics vanished on a surface point."""


class AllPivotsFailed(G2KummerError):
    """Pseudo-addition produced zero under every admissible pivot."""
