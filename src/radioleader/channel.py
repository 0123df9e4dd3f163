"""Single-slot semantics of a shared radio channel.

All devices share one channel and proceed in synchronized time slots.  In a
slot a device either transmits a message, listens, or stays idle (it offers
no Action).  What a device learns from the slot depends on how many devices
transmitted and on the collision-detection capabilities of the model:

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
payload seen.  It returns a plain pair: what every listener hears and what
every transmitter hears.  Each is the module's SILENCE, COLLISION or
NO_FEEDBACK, or one `received(payload)` shared by the whole slot; a caller
hands each device the feedback of its action's kind.  The model is matched
by identity, not through the `sender_side` property, which costs a call.

A slot with one offer never reaches `resolve_slot`: the runtime runs it
under the lone-slot rule, which it reads once per run.  A lone listen
hears LONE_LISTEN (SILENCE), and a lone transmit LONE_TRANSMIT[model]:
NO_FEEDBACK, or its own message where None.  Nobody listens in such a
slot, so no listener feedback is built for it.  Most slots of a sparse run
are lone: 169,932 of the 213,090 slots of the benchmark's `sparse_search`
at seed 1.

Action and Feedback are frozen slotted dataclasses, so equality, hash,
repr and FrozenInstanceError come from the dataclass.  An Action checks
itself when built: its kind is 'listen' or 'transmit', and a listen
carries no payload; anything else raises ValueError.  Their generated
__init__ sets each field through object.__setattr__, though, so
`transmit` and `received`, which build one object per transmission and
per delivery, use object.__new__ plus the slot descriptors' __set__
instead: 370-410 ns a call against 590-780 ns through __init__ (timeit,
Python 3.11, shared 2-vCPU x86-64 VM).  That skips the check too, and
`transmit` only ever builds a valid action.  Objects that never vary are
built once and shared: LISTEN, NO_FEEDBACK, SILENCE, COLLISION,
the protocols' dummy transmission, and the pair of a slot nobody
transmits in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple, Union

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


@dataclass(frozen=True, slots=True)
class Action:
    """What a device does in one slot: 'listen', or 'transmit' a payload."""

    kind: str
    payload: Optional[Payload] = None

    def __post_init__(self):
        if self.kind not in ("listen", "transmit"):
            raise ValueError(f"action kind {self.kind!r}; only 'listen' and "
                             "'transmit' exist")
        if self.kind == "listen" and self.payload is not None:
            raise ValueError(f"a listen carries no payload, not {self.payload!r}")


LISTEN = Action("listen")

# object.__new__ plus the slot descriptors' __set__: see the module docstring
_new = object.__new__
_action_kind = Action.__dict__["kind"].__set__
_action_payload = Action.__dict__["payload"].__set__


def transmit(payload: Payload) -> Action:
    action = _new(Action)
    _action_kind(action, "transmit")
    _action_payload(action, payload)
    return action


@dataclass(frozen=True, slots=True)
class Feedback:
    """What a device learns from one slot.  kind 'none' means the model
    gives it nothing (a transmitter under receiver_cd / no_cd)."""

    kind: str
    payload: Optional[Payload] = None


NO_FEEDBACK = Feedback("none")
SILENCE = Feedback("silence")
COLLISION = Feedback("collision")

_feedback_kind = Feedback.__dict__["kind"].__set__
_feedback_payload = Feedback.__dict__["payload"].__set__


def received(payload: Payload) -> Feedback:
    fb = _new(Feedback)
    _feedback_kind(fb, "received")
    _feedback_payload(fb, payload)
    return fb


_STRONG_CD = CdModel.STRONG_CD
_SENDER_CD = CdModel.SENDER_CD
_RECEIVER_CD = CdModel.RECEIVER_CD
_SILENT = (SILENCE, NO_FEEDBACK)

# the lone-slot rule (module docstring); None stands for received(payload)
LONE_LISTEN = SILENCE
LONE_TRANSMIT = {m: None if m.sender_side else NO_FEEDBACK for m in CdModel}


def resolve_slot(
    model: CdModel, offers: Sequence[Tuple[int, Action]]
) -> Tuple[Feedback, Feedback]:
    """Resolve one slot: (listener feedback, transmitter feedback).

    Pure and total: any (device, action) pairs are accepted, and the result
    depends only on the model and the actions.
    """
    c = 0
    payload = None
    for _, action in offers:
        if action.kind == "transmit":
            c += 1
            payload = action.payload

    if c == 0:
        return _SILENT
    if c == 1:
        fb = received(payload)
        return fb, (fb if model is _STRONG_CD or model is _SENDER_CD else NO_FEEDBACK)
    if model is _STRONG_CD:
        return COLLISION, COLLISION
    if model is _SENDER_CD:
        return SILENCE, SILENCE
    if model is _RECEIVER_CD:
        return COLLISION, NO_FEEDBACK
    return SILENCE, NO_FEEDBACK
