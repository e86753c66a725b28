"""Exception taxonomy shared across the package."""


class ToygraspError(Exception):
    """Base class for all package errors."""


class InvalidRanges(ToygraspError, ValueError):
    """A dimension interval is inverted, nonpositive, or inconsistent."""


class InvalidComposition(ToygraspError, ValueError):
    """A set composition contains negative counts."""


class EmptyMesh(ToygraspError, ValueError):
    """An operation requires a mesh with at least one triangle/vertex."""


class NotWatertight(ToygraspError, ValueError):
    """A mesh edge is not shared by exactly two triangles."""


class IoFailure(ToygraspError, OSError):
    """A file could not be read or written."""


class SchemaViolation(ToygraspError, ValueError):
    """A serialized document has an unknown version or missing fields."""


class DimensionMismatch(ToygraspError, ValueError):
    """Array dimensions do not match the configured sizes."""


class EmptyObject(ToygraspError, ValueError):
    """No patch is flagged as object; Det pooling has nothing to pool."""


class NonFiniteActivation(ToygraspError, FloatingPointError):
    """A network input or activation is NaN or infinite."""


class ShapeMismatch(ToygraspError, ValueError):
    """Tensor shapes are inconsistent with the configuration."""


class EmptyObjectList(ToygraspError, ValueError):
    """A trial schedule was requested for zero objects."""


class EmptyOutcomes(ToygraspError, ValueError):
    """Success aggregation requires at least one outcome per object."""


class ConfigError(ToygraspError, ValueError):
    """A configuration file is malformed or contains unknown keys."""
