"""Exception types shared across the toolkit: one class per thing a caller
can act on.  Every message names the fault in full, so a caller that needs
more than the class reads the message."""


class ClawtraceError(Exception):
    """Base of every error the package raises; the CLI prints its message
    and exits 2."""


class InvalidParams(ClawtraceError):
    """An argument the function cannot take: a loop or an out-of-range
    vertex in an edge list, an empty vertex set, a disconnected graph where
    a connected one is required, a pattern above the search's order, a
    malformed graph6 string, or family parameters outside the family."""


class OrderOutOfRange(ClawtraceError):
    """A graph order outside what the function handles: 1..64 for any graph
    (adjacency rows are packed into 64-bit words), n <= 16 for canonical
    labelling and n <= 24 for the exact Hamilton search."""


class NotClawFree(ClawtraceError):
    """The claw-free closure, or closedness, asked of a graph with a claw."""


class InfeasibleSpec(ClawtraceError):
    """A request that verify, hunt, a graph source or the CLI cannot serve."""
