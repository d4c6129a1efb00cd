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


class NotClawFree(ClawtraceError):
    pass


class OrderTooLargeForExact(ClawtraceError):
    """Exact Hamilton decision is subset DP; capped at n <= 24."""


class InvalidParams(ClawtraceError):
    pass


class InfeasibleSpec(ClawtraceError):
    """A request that verify, hunt or a graph source cannot serve."""
