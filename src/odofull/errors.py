"""Exception hierarchy shared by all odofull modules."""


class OdofullError(Exception):
    """Base class for every error raised by this package."""


class DepthCapError(OdofullError):
    """A requested table depth exceeds the configured cap."""


class NotBijectiveError(OdofullError):
    """A cocycle or shift table does not define a bijection."""


class EmptySetError(OdofullError):
    """An operation that needs a nonempty set received an empty one."""


class OverlapError(OdofullError):
    """A set meets its own translate where disjointness is required."""


class NotAlmostPositiveError(OdofullError):
    """The element has a nontrivial cycle of nonpositive displacement."""


class NotPositiveError(OdofullError):
    """The element has a negative cocycle value."""


class NotPeriodicError(OdofullError):
    """The element has a cycle of nonzero displacement."""


class MassExceedsOneError(OdofullError):
    """The towers of a skyscraper system carry total mass above one."""


class CrossesTopError(OdofullError):
    """A tower shift moves a level outside its tower."""


class SystemMismatchError(OdofullError):
    """Two tower elements live on different skyscraper systems."""


class NotInLevelSetError(OdofullError):
    """A moved level (or its image) is outside the induced level set."""


class ParseError(OdofullError):
    """Malformed serialized input."""


class InvariantError(OdofullError):
    """An internal consistency check failed: a defect, not a bad input."""
