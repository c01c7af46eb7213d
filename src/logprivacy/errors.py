"""Exception types shared across the package."""


class LogPrivacyError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LogPrivacyError):
    """A configuration problem, e.g. a mapped CSV column that does not exist."""


class InputError(LogPrivacyError):
    """Unusable input data: empty files, malformed XML, non-positive trace counts."""


class CandidateLimitError(LogPrivacyError):
    """Candidate enumeration exceeded the configured cap.

    Carries enough context to make the failure actionable: which background
    knowledge type and size blew up, how many candidates were seen when
    enumeration was aborted, and the cap that was in force.
    """

    def __init__(self, bk_type, size: int, count: int, cap: int):
        self.bk_type = bk_type
        self.size = size
        self.count = count
        self.cap = cap
        super().__init__(
            f"candidate enumeration for type={bk_type.value!r} size={size} "
            f"reached {count} candidates, exceeding the cap of {cap}"
        )


class SolverError(LogPrivacyError):
    """The transportation solver could not certify an optimal solution."""
