"""Exception types shared across the package."""


class DimensionError(ValueError):
    """A matrix or system has dimensions that do not fit the operation."""


class WireMismatchError(TypeError):
    """Two diagram pieces were joined along wires of different types."""


class ReconstructionError(ArithmeticError):
    """Channel tomography hit a singular or inconsistent linear system."""


class _AtPosition(Exception):
    """An error at a line and column of a diagram's source text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DiagramSyntaxError(_AtPosition, ValueError):
    """Source text for a diagram failed to parse."""


class DiagramTypeError(_AtPosition, TypeError):
    """A parsed diagram is wired inconsistently with its declarations."""
