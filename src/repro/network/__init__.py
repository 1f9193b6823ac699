"""Serialization-backed multi-party LAN simulation (paper §8.1).

Protocol messages are serialized through :mod:`repro.network.wire`, routed
via a pluggable :mod:`repro.network.transport`, and byte-accounted at
their measured size by the :class:`~repro.network.bus.MessageBus`;
:mod:`repro.network.flows` defines the recurring message patterns once.
"""

from repro.network.bus import MessageBus
from repro.network.flows import record_threshold_decrypt
from repro.network.transport import Envelope, InMemoryTransport, Transport
from repro.network.wire import (
    PartialDecryptionVector,
    ShareVector,
    WireCodec,
    WireFormatError,
)

__all__ = [
    "MessageBus",
    "WireCodec",
    "WireFormatError",
    "ShareVector",
    "PartialDecryptionVector",
    "Transport",
    "InMemoryTransport",
    "Envelope",
    "record_threshold_decrypt",
]
