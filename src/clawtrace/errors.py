"""Exception types shared across the toolkit."""


class ClawtraceError(Exception):
    pass


class OrderOutOfRange(ClawtraceError):
    """Graph order outside 1..64 (adjacency rows are packed into 64-bit words)."""


class LoopEdge(ClawtraceError):
    pass


class VertexOutOfRange(ClawtraceError):
    pass


class EmptySet(ClawtraceError):
    pass


class DisconnectedInput(ClawtraceError):
    pass


class OrderTooLargeForCanonical(ClawtraceError):
    """Canonical labelling is exact and exponential; capped at n <= 16."""


class PatternTooLarge(ClawtraceError):
    pass


class NotEligible(ClawtraceError):
    pass


class NotClawFree(ClawtraceError):
    pass


class OrderTooLargeForExact(ClawtraceError):
    """Exact Hamilton decision is subset DP; capped at n <= 24."""


class InvalidParams(ClawtraceError):
    pass


class TargetUnreachable(ClawtraceError):
    """Dense sampler could not delete down to target_m without creating a claw
    or disconnecting.  Carries the best graph reached so callers can still use it."""

    def __init__(self, message, graph=None):
        super().__init__(message)
        self.graph = graph


class InfeasibleSpec(ClawtraceError):
    pass


class InfeasibleRange(ClawtraceError):
    pass
