"""Exception types shared across the package."""


class PropfuseError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PropfuseError):
    """A value, configuration, manifest, or file failed validation."""


class SceneValidationError(ValidationError):
    """A synthetic scene description violates its own constraints."""


class VocabularyError(ValidationError):
    """Detections reference classes that are not in the known vocabulary."""

    def __init__(self, unknown, path=None):
        self.unknown = sorted(unknown)
        message = "unknown classes: " + ", ".join(str(u) for u in self.unknown)
        super().__init__(message if path is None else f"{path}: {message}")


class CliUsageError(ValidationError):
    """Bad command-line flag or config key."""


class FlowFormatError(PropfuseError):
    """A flow file has a bad magic number or a malformed header."""


class FlowLengthError(PropfuseError):
    """A flow file is shorter (or longer) than its header declares."""


class MissingFlowError(PropfuseError):
    """A required motion field between two frames is not available."""

    def __init__(self, from_frame, to_frame):
        self.from_frame = from_frame
        self.to_frame = to_frame
        super().__init__(f"no motion field from frame {from_frame} to frame {to_frame}")


class EmptyCropError(PropfuseError):
    """A requested feature crop lies entirely outside the frame."""
