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

`resolve_slot` makes one pass over the actions that counts transmitters and
keeps the last payload seen.  It then hands every listener one shared
feedback object, and every transmitter another: the module's SILENCE,
COLLISION and NO_FEEDBACK, or one `received(payload)` for the whole slot.
The model is matched by identity against module constants, not through the
`sender_side` / `receiver_side` properties, which cost a method call each.
The runtime calls it once per occupied slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Tuple, Union

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
    feedback: Mapping[int, Feedback]
    transmitter_count: int
    delivered: Optional[Payload]


_outcome = tuple.__new__  # builds a SlotOutcome without its Python __new__
_STRONG_CD = CdModel.STRONG_CD
_SENDER_CD = CdModel.SENDER_CD
_RECEIVER_CD = CdModel.RECEIVER_CD


def resolve_slot(model: CdModel, actions: Mapping[int, Action]) -> SlotOutcome:
    """Resolve one slot: map every device's action to its feedback.

    Pure and total: any action map is accepted, and the result depends only
    on (model, actions).  `delivered` carries the payload when exactly one
    device transmitted, else None.
    """
    c = 0
    delivered = None
    for action in actions.values():
        if action.kind == "transmit":
            c += 1
            delivered = action.payload

    if c == 0:
        listener_fb = SILENCE
        sender_fb = NO_FEEDBACK
    elif c == 1:
        if model is _STRONG_CD or model is _SENDER_CD:
            listener_fb = sender_fb = received(delivered)
        else:
            sender_fb = NO_FEEDBACK
            # a lone transmitter with nobody else in the slot needs no copy
            listener_fb = received(delivered) if len(actions) > 1 else None
    else:
        delivered = None
        if model is _STRONG_CD:
            listener_fb = sender_fb = COLLISION
        elif model is _SENDER_CD:
            listener_fb = sender_fb = SILENCE
        elif model is _RECEIVER_CD:
            listener_fb, sender_fb = COLLISION, NO_FEEDBACK
        else:
            listener_fb, sender_fb = SILENCE, NO_FEEDBACK

    feedback = {}
    for dev, action in actions.items():
        kind = action.kind
        if kind == "listen":
            feedback[dev] = listener_fb
        elif kind == "transmit":
            feedback[dev] = sender_fb
        else:
            feedback[dev] = NO_FEEDBACK
    return _outcome(SlotOutcome, (feedback, c, delivered))
