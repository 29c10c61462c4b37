"""Exception types shared across the package."""


class ParseError(Exception):
    """Input file could not be parsed; the message names the offending line."""


class EmptyDatasetError(Exception):
    """No usable ascents remain (empty input, or everything was filtered)."""

    def __init__(self, message: str, provenance: dict[str, int]):
        super().__init__(message)
        self.provenance = provenance
