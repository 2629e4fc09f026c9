"""Sender-side retry: exponential backoff with jitter.

The policy separates two time bases on purpose:

- ``ack_timeout`` is *wall-clock* seconds — the stall guard that
  detects a peer that never serves.  Retransmit *scheduling* does not
  use it: the channel reports each frame's delivery verdict at send
  time (faults are injected sender-side from a seeded RNG), so lost
  chunks are retransmitted at deterministic points in the send
  sequence and retry counts are load-proof.  The guard fires only
  when a chunk that *was* delivered is never ACKed — a mute endpoint
  — and demotes it to the retry path so the budget still bounds the
  wait;
- ``backoff(attempt)`` is *simulated* seconds — the delay a real
  sender would insert before retransmitting, charged to the sender's
  :class:`~repro.hw.clock.SimClock` so fault recovery is visible on
  the simulated timeline (and absent from clean runs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.config_codec import xml
from repro.errors import TransportError
from repro.units import us

__all__ = ["RetryPolicy"]

_NO_XML = xml(skip=True)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard delivery tries before giving up."""

    max_retries: int = field(default=8, metadata=xml(names={"retries": 1}))
    ack_timeout: float = 0.05  # wall-clock stall guard per attempt
    # The backoff curve is not an XML attribute.  Simulated seconds,
    # first retry; jitter is the +/- fraction applied to each backoff.
    backoff_base: float = field(default=us(50.0), metadata=_NO_XML)
    backoff_factor: float = field(default=2.0, metadata=_NO_XML)
    backoff_max: float = field(default=us(5000.0), metadata=_NO_XML)
    jitter: float = field(default=0.25, metadata=_NO_XML)

    def __post_init__(self):
        if self.max_retries < 0:
            raise TransportError(f"max_retries must be >= 0: {self.max_retries}")
        if not 0.0 <= self.jitter < 1.0:
            raise TransportError(f"jitter must be in [0, 1): {self.jitter}")
        if self.backoff_factor < 1.0:
            raise TransportError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        if self.ack_timeout <= 0:
            raise TransportError(f"ack_timeout must be > 0: {self.ack_timeout}")
        if self.backoff_base < 0 or self.backoff_max < self.backoff_base:
            raise TransportError(
                f"need 0 <= backoff_base <= backoff_max: "
                f"{self.backoff_base}/{self.backoff_max}"
            )

    def backoff(self, attempt: int, rng: random.Random | None = None) -> float:
        """Simulated delay before retransmission ``attempt`` (1-based).

        ``backoff_max`` caps the *jittered* delay: jitter is applied to
        the exponential curve first and the clamp last, so no draw can
        exceed the cap (clamping before jittering let upward jitter
        escape it).
        """
        if attempt < 1:
            raise TransportError(f"attempt is 1-based: {attempt}")
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return min(delay, self.backoff_max)
