"""Planted wrong outputs, to show that every workload's check fires."""

from __future__ import annotations

import numpy

EVERY = 100


def corrupt(value):
    if hasattr(value, "to_nested"):
        value = value.to_nested()
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float, complex)):
        return value + 1
    if isinstance(value, str):
        return value + "#"
    if isinstance(value, list):
        return value + [0]
    if isinstance(value, numpy.ndarray):
        return value + 1.0
    return None


class Planter:
    """Corrupts one result in every :data:`EVERY`, starting with the first."""

    def __init__(self):
        self.seen = 0

    def maybe(self, value):
        self.seen += 1
        if (self.seen - 1) % EVERY:
            return value
        return corrupt(value)

    def wrap(self, fn):
        def call(*args):
            return self.maybe(fn(*args))
        return call
