"""Exception types shared across the package."""


class DagPartError(Exception):
    """Base class for all errors raised by dagpart."""


class GraphError(DagPartError):
    """Problems with the structure of an input graph."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class CycleDetectedError(GraphError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("directed cycle: " + " -> ".join(map(str, self.cycle)))


class ParseError(DagPartError):
    """Malformed input text; line_no is the 1-based line, when known."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class GraphParseError(ParseError):
    pass


class CircuitParseError(ParseError):
    pass


class PartitionParseError(ParseError):
    pass


class PartitionArityMismatchError(DagPartError):
    pass


class InvalidKError(DagPartError):
    pass


class UnrepresentableCoefficientError(DagPartError):
    pass


class SolutionParseError(ParseError):
    pass


class NonIntegralValueError(DagPartError):
    pass


class AmbiguousAssignmentError(DagPartError):
    pass


class TooLargeError(DagPartError):
    pass


class InvalidWarmStartError(DagPartError):
    pass


class InfeasibleInstanceError(DagPartError):
    pass


class QubitCapacityInfeasibleError(DagPartError):
    pass


class UnknownQubitError(DagPartError):
    pass


class EmptyCircuitError(DagPartError):
    pass


class NoFeasibleKError(DagPartError):
    pass


class BudgetExhaustedError(DagPartError):
    """A search ran out of its node or time budget before it could decide."""
