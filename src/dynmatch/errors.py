"""Exception types shared across the engine, oracle, and harness."""


class DynMatchError(Exception):
    """Base class for all engine errors."""


class ConfigError(DynMatchError):
    """Instance configuration violates a precondition."""


class LoopEdgeError(DynMatchError):
    """Self-loop edges are not representable."""


class DuplicateEdgeError(DynMatchError):
    """Edge is already present."""


class EdgeNotFoundError(DynMatchError):
    """Edge is absent."""


class CapacityError(DynMatchError):
    """Insertion would push a vertex degree above the declared bound."""


class UnknownOpError(DynMatchError):
    """An update names an operation other than "ins" or "del"."""


class ConsistencyError(DynMatchError):
    """Internal bookkeeping disagreed with itself; signals a pipeline bug."""


class OracleLimitError(DynMatchError):
    """Exact-oracle query exceeds the configured size limit."""


class StreamSpecError(DynMatchError):
    """Update-stream generator parameters are inconsistent."""


class ReplayError(DynMatchError):
    """An update stream violated replay-validity during replay."""

    def __init__(self, seq: int, message: str):
        super().__init__(f"event {seq}: {message}")
        self.seq = seq
