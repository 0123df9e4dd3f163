"""Single-slot semantics of a shared radio channel.

All devices share one channel and proceed in synchronized time slots.  In a
slot a device either transmits a message, listens, or stays idle.  What a
device learns from the slot depends on how many devices transmitted and on
the collision-detection capabilities of the model:

* strong_cd    - transmitters and listeners both get three-way feedback
                 (silence / collision / the message).
* sender_cd    - transmitters and listeners both get two-way feedback: the
                 message when exactly one device transmitted, silence
                 otherwise.
* receiver_cd  - only listeners get feedback, but it is three-way.
* no_cd        - only listeners get feedback, and it is two-way.

A message is delivered if and only if exactly one device transmits.  Idle
devices never learn anything.

`resolve_slot` takes the slot's offers as a list of (device, action) pairs
and makes one pass over them that counts transmitters and keeps the last
payload seen.  It returns what every listener hears and what every
transmitter hears: the module's SILENCE, COLLISION and NO_FEEDBACK, or one
`received(payload)` shared by the whole slot.  There is no per-device map
in or out; a caller hands each device the feedback of its action's kind,
and an idle device NO_FEEDBACK.  Both are always a Feedback, except for a
lone transmitter that is the slot's only offer under receiver_cd or no_cd:
nobody can hear it, so the listener feedback is None instead of a
`received` copy.  87,626 of the 213,090 slots of the benchmark's sparse
exponential-search workload (seed 1) are such slots, and building the copy
anyway made those runs about 3% slower.  The model is matched by identity
against module constants, not through the `sender_side` / `receiver_side`
properties, which cost a method call each.  The runtime calls it once per
occupied slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Tuple, Union

# Message payloads are decimal integers or tuples of integers; tuples are
# used for membership lists.  Keeping the domain this small keeps transcript
# serialization exact.
Payload = Union[int, Tuple[int, ...]]


class CdModel(Enum):
    STRONG_CD = "strong_cd"
    SENDER_CD = "sender_cd"
    RECEIVER_CD = "receiver_cd"
    NO_CD = "no_cd"

    @property
    def sender_side(self) -> bool:
        """True when transmitters receive channel feedback."""
        return self in (CdModel.STRONG_CD, CdModel.SENDER_CD)

    @property
    def receiver_side(self) -> bool:
        """True when listeners can tell collision from silence."""
        return self in (CdModel.STRONG_CD, CdModel.RECEIVER_CD)

    def is_strictly_stronger(self, other: "CdModel") -> bool:
        """Strict partial order on model capability.

        strong_cd dominates everything; sender_cd and receiver_cd each
        dominate no_cd but are incomparable with each other.
        """
        if self is other:
            return False
        if self is CdModel.STRONG_CD:
            return True
        if other is CdModel.NO_CD:
            return self in (CdModel.SENDER_CD, CdModel.RECEIVER_CD)
        return False

    @classmethod
    def parse(cls, text: str) -> "CdModel":
        key = text.strip().lower().replace("-", "_")
        aliases = {
            "strong": cls.STRONG_CD,
            "sender": cls.SENDER_CD,
            "receiver": cls.RECEIVER_CD,
            "none": cls.NO_CD,
            "nocd": cls.NO_CD,
        }
        if key in aliases:
            return aliases[key]
        for m in cls:
            if m.value == key:
                return m
        raise ValueError(f"unknown collision-detection model: {text!r}")


@dataclass(frozen=True, slots=True)
class Action:
    """What a device does in one slot: 'idle', 'listen' or 'transmit'."""

    kind: str
    payload: Optional[Payload] = None


IDLE = Action("idle")
LISTEN = Action("listen")


def transmit(payload: Payload) -> Action:
    return Action("transmit", payload)


@dataclass(frozen=True, slots=True)
class Feedback:
    """What a device learns from one slot.

    kind 'none' means the model gives this device nothing (idle devices
    always, transmitters under receiver_cd / no_cd).
    """

    kind: str
    payload: Optional[Payload] = None


NO_FEEDBACK = Feedback("none")
SILENCE = Feedback("silence")
COLLISION = Feedback("collision")


def received(payload: Payload) -> Feedback:
    return Feedback("received", payload)


class SlotOutcome(NamedTuple):
    listener: Optional[Feedback]  # None only when no listener can exist
    transmitter: Feedback
    transmitter_count: int
    delivered: Optional[Payload]


_outcome = tuple.__new__  # builds a SlotOutcome without its Python __new__
_STRONG_CD = CdModel.STRONG_CD
_SENDER_CD = CdModel.SENDER_CD
_RECEIVER_CD = CdModel.RECEIVER_CD


def resolve_slot(
    model: CdModel, offers: Sequence[Tuple[int, Action]]
) -> SlotOutcome:
    """Resolve one slot: the feedback of its listeners and of its
    transmitters.

    Pure and total: any (device, action) pairs are accepted, and the result
    depends only on the model and the actions.  `delivered` carries the
    payload when exactly one device transmitted, else None.
    """
    c = 0
    delivered = None
    for _, action in offers:
        if action.kind == "transmit":
            c += 1
            delivered = action.payload

    if c == 0:
        return _outcome(SlotOutcome, (SILENCE, NO_FEEDBACK, 0, None))
    if c == 1:
        if model is _STRONG_CD or model is _SENDER_CD:
            fb = received(delivered)
            return _outcome(SlotOutcome, (fb, fb, 1, delivered))
        # a lone transmitter with nobody else in the slot needs no copy
        fb = received(delivered) if len(offers) > 1 else None
        return _outcome(SlotOutcome, (fb, NO_FEEDBACK, 1, delivered))
    if model is _STRONG_CD:
        return _outcome(SlotOutcome, (COLLISION, COLLISION, c, None))
    if model is _SENDER_CD:
        return _outcome(SlotOutcome, (SILENCE, SILENCE, c, None))
    if model is _RECEIVER_CD:
        return _outcome(SlotOutcome, (COLLISION, NO_FEEDBACK, c, None))
    return _outcome(SlotOutcome, (SILENCE, NO_FEEDBACK, c, None))
