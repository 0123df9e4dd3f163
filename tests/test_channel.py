from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from radioleader.channel import (
    COLLISION,
    LISTEN,
    NO_FEEDBACK,
    SILENCE,
    Action,
    CdModel,
    Feedback,
    received,
    resolve_slot,
    transmit,
)

S, X, R, N = CdModel.STRONG_CD, CdModel.SENDER_CD, CdModel.RECEIVER_CD, CdModel.NO_CD


def resolve_by_device(model, actions):
    """Resolve a slot given as {device: action} and hand each device the
    feedback for its action's kind.
    Returns (per-device feedback, transmitter count)."""
    listener, transmitter, c = resolve_slot(model, sorted(actions.items()))
    by_kind = {"listen": listener, "transmit": transmitter}
    feedback = {d: by_kind[a.kind] for d, a in actions.items()}
    return feedback, c


def test_lone_listener_hears_silence():
    feedback, c = resolve_by_device(S, {7: LISTEN})
    assert feedback[7] == SILENCE
    assert c == 0


def test_sender_cd_collision_is_silence_everywhere():
    feedback, c = resolve_by_device(X, {1: transmit(10), 2: transmit(20), 3: LISTEN})
    assert feedback == {1: SILENCE, 2: SILENCE, 3: SILENCE}
    assert c == 2


def test_no_cd_unique_delivery():
    feedback, c = resolve_by_device(N, {1: transmit(42), 2: LISTEN})
    assert feedback[1] == NO_FEEDBACK
    assert feedback[2] == received(42)
    assert c == 1


def test_strong_cd_transmitters_detect_collision():
    feedback, _ = resolve_by_device(S, {1: transmit(1), 2: transmit(2)})
    assert feedback[1] == COLLISION
    assert feedback[2] == COLLISION


def test_idle_devices_learn_nothing():
    # idling is no Action: an idle device offers nothing and is handed nothing
    with pytest.raises(ValueError, match="action kind 'idle'"):
        Action("idle")
    for model in CdModel:
        feedback, _ = resolve_by_device(model, {2: transmit(5), 3: LISTEN})
        assert set(feedback) == {2, 3}


@pytest.mark.parametrize("c", [0, 1, 2, 3])
def test_delivered_iff_exactly_one_transmitter(c):
    actions = {i: transmit(100 + i) for i in range(1, c + 1)}
    actions[90] = LISTEN
    for model in CdModel:
        feedback, count = resolve_by_device(model, actions)
        assert count == c
        if c == 1:
            assert feedback[90].payload == 101
        else:
            assert feedback[90].kind != "received"


def _coarsen(model, role, strong_fb):
    # What a weaker model's device must see, as a function of its strong_cd
    # feedback.  Listeners lose collision detection without receiver-side
    # feedback; transmitters lose everything without sender-side feedback,
    # and under sender_cd they see silence instead of collision.
    if role == "listen":
        if strong_fb == COLLISION and not model.receiver_side:
            return SILENCE
        return strong_fb
    if not model.sender_side:
        return NO_FEEDBACK
    if strong_fb == COLLISION and model is CdModel.SENDER_CD:
        return SILENCE
    return strong_fb


@pytest.mark.parametrize("c", [0, 1, 2, 3])
@pytest.mark.parametrize("model", [X, R, N])
def test_weaker_feedback_is_coarsened_strong_feedback(model, c):
    actions = {i: transmit(i) for i in range(1, c + 1)}
    actions[50] = LISTEN
    strong, _ = resolve_by_device(S, actions)
    weak, _ = resolve_by_device(model, actions)
    for dev, act in actions.items():
        assert weak[dev] == _coarsen(model, act.kind, strong[dev]), (
            model,
            dev,
            c,
        )


def test_collision_never_reported_in_two_way_models():
    for c in (2, 3, 5):
        actions = {i: transmit(i) for i in range(1, c + 1)}
        actions[99] = LISTEN
        for model in (X, N):
            feedback, _ = resolve_by_device(model, actions)
            assert COLLISION not in feedback.values()


_action = st.sampled_from(["listen", "transmit"])


@given(
    kinds=st.dictionaries(st.integers(1, 30), _action, min_size=1, max_size=12),
    model=st.sampled_from(list(CdModel)),
)
def test_resolve_slot_total_and_deterministic(kinds, model):
    actions = {
        d: transmit(d) if k == "transmit" else LISTEN
        for d, k in kinds.items()
    }
    feedback, c = resolve_by_device(model, actions)
    assert resolve_by_device(model, actions) == (feedback, c)
    assert set(feedback) == set(actions)
    # all listeners see the same thing
    listener_fb = {feedback[d] for d, act in actions.items() if act.kind == "listen"}
    assert len(listener_fb) <= 1
    # a listener hears a payload iff exactly one device transmitted
    assert all((fb.kind == "received") == (c == 1) for fb in listener_fb)


def reference_resolve_slot(model, actions):
    """The straightforward resolution resolve_slot must agree with: list the
    transmitters, then pick feedback through the model's properties."""
    transmitters = [d for d, a in actions.items() if a.kind == "transmit"]
    c = len(transmitters)
    delivered = actions[transmitters[0]].payload if c == 1 else None

    if c == 0:
        listener_fb = SILENCE
    elif c == 1:
        listener_fb = received(delivered)
    else:
        listener_fb = COLLISION if model.receiver_side else SILENCE

    if c == 1:
        sender_fb = received(delivered) if model.sender_side else NO_FEEDBACK
    elif model is CdModel.STRONG_CD:
        sender_fb = COLLISION
    elif model is CdModel.SENDER_CD:
        sender_fb = SILENCE
    else:
        sender_fb = NO_FEEDBACK

    feedback = {dev: listener_fb if act.kind == "listen" else sender_fb
                for dev, act in actions.items()}
    return feedback, c


_payload = st.one_of(
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**6), max_size=4).map(tuple),
)
_any_action = st.one_of(
    st.just(LISTEN),
    _payload.map(transmit),
)


@given(
    actions=st.dictionaries(st.integers(1, 50), _any_action, max_size=6),
    model=st.sampled_from(list(CdModel)),
)
def test_resolve_slot_matches_reference(actions, model):
    got_feedback, got_c = resolve_by_device(model, actions)
    feedback, c = reference_resolve_slot(model, actions)
    assert list(got_feedback) == list(feedback)
    for dev, fb in feedback.items():
        got = got_feedback[dev]
        assert (got.kind, got.payload) == (fb.kind, fb.payload), (model, dev)
    assert got_c == c


def test_lone_transmitter_alone_gets_no_listener_copy():
    # nobody can hear it, so only the sender-side models build a copy
    for model in CdModel:
        listener, transmitter, c = resolve_slot(model, [(4, transmit(9))])
        assert c == 1
        if model.sender_side:
            assert listener == transmitter == received(9)
        else:
            assert (listener, transmitter) == (None, NO_FEEDBACK)


PAYLOADS = st.one_of(st.integers(0, 1 << 40),
                     st.lists(st.integers(0, 1 << 20), max_size=5).map(tuple))


@given(PAYLOADS)
def test_fast_built_slot_objects_match_dataclass_built(payload):
    # transmit and received skip the generated __init__; the objects they
    # build must be indistinguishable from ones built through it
    for fast, slow in ((transmit(payload), Action("transmit", payload)),
                       (received(payload), Feedback("received", payload))):
        assert type(fast) is type(slow)
        assert fast == slow and hash(fast) == hash(slow)
        assert repr(fast) == repr(slow)
        for name in ("kind", "payload"):
            with pytest.raises(FrozenInstanceError):
                setattr(fast, name, 1)


def test_silent_slots_share_one_outcome():
    quiet = resolve_slot(S, [(1, LISTEN)])
    assert resolve_slot(N, [(2, LISTEN), (3, LISTEN)]) is quiet
    assert quiet == (SILENCE, NO_FEEDBACK, 0)
