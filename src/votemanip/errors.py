"""Shared exception types."""


class CapExceededError(Exception):
    """An exact enumeration would exceed the configured size cap."""

