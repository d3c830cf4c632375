"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """Requested Hilbert space (or similar resource) exceeds the configured cap."""


class IntegrationError(RuntimeError):
    """Time integration failed (step-size floor, norm underflow, divergence, non-convergence)."""
