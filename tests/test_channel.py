import pytest
from hypothesis import given, strategies as st

from radioleader.channel import (
    COLLISION,
    IDLE,
    LISTEN,
    NO_FEEDBACK,
    SILENCE,
    CdModel,
    received,
    resolve_slot,
    transmit,
)

S, X, R, N = CdModel.STRONG_CD, CdModel.SENDER_CD, CdModel.RECEIVER_CD, CdModel.NO_CD


def resolve_by_device(model, actions):
    """Resolve a slot given as {device: action} and hand each device the
    outcome's feedback for its action's kind (an idle device NO_FEEDBACK).
    Returns (per-device feedback, outcome)."""
    out = resolve_slot(model, sorted(actions.items()))
    by_kind = {"listen": out.listener, "transmit": out.transmitter}
    feedback = {d: by_kind.get(a.kind, NO_FEEDBACK) for d, a in actions.items()}
    return feedback, out


def test_lone_listener_hears_silence():
    feedback, out = resolve_by_device(S, {7: LISTEN})
    assert feedback[7] == SILENCE
    assert out.transmitter_count == 0
    assert out.delivered is None


def test_sender_cd_collision_is_silence_everywhere():
    feedback, out = resolve_by_device(X, {1: transmit(10), 2: transmit(20), 3: LISTEN})
    assert feedback == {1: SILENCE, 2: SILENCE, 3: SILENCE}
    assert out.delivered is None


def test_no_cd_unique_delivery():
    feedback, out = resolve_by_device(N, {1: transmit(42), 2: LISTEN})
    assert feedback[1] == NO_FEEDBACK
    assert feedback[2] == received(42)
    assert out.delivered == 42


def test_strong_cd_transmitters_detect_collision():
    feedback, _ = resolve_by_device(S, {1: transmit(1), 2: transmit(2)})
    assert feedback[1] == COLLISION
    assert feedback[2] == COLLISION


def test_idle_devices_learn_nothing():
    for model in CdModel:
        feedback, _ = resolve_by_device(model, {1: IDLE, 2: transmit(5), 3: LISTEN})
        assert feedback[1] == NO_FEEDBACK


@pytest.mark.parametrize("c", [0, 1, 2, 3])
def test_delivered_iff_exactly_one_transmitter(c):
    actions = {i: transmit(100 + i) for i in range(1, c + 1)}
    actions[90] = LISTEN
    for model in CdModel:
        _, out = resolve_by_device(model, actions)
        assert out.transmitter_count == c
        if c == 1:
            assert out.delivered == 101
        else:
            assert out.delivered is None


def _coarsen(model, role, strong_fb):
    # What a weaker model's device must see, as a function of its strong_cd
    # feedback.  Listeners lose collision detection without receiver-side
    # feedback; transmitters lose everything without sender-side feedback,
    # and under sender_cd they see silence instead of collision.
    if role == "idle":
        return NO_FEEDBACK
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
    actions[60] = IDLE
    strong, _ = resolve_by_device(S, actions)
    weak, _ = resolve_by_device(model, actions)
    for dev, act in actions.items():
        role = act.kind if act.kind != "transmit" else "transmit"
        assert weak[dev] == _coarsen(model, role, strong[dev]), (
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


def test_model_partial_order():
    assert S.is_strictly_stronger(X)
    assert S.is_strictly_stronger(R)
    assert S.is_strictly_stronger(N)
    assert X.is_strictly_stronger(N)
    assert R.is_strictly_stronger(N)
    assert not X.is_strictly_stronger(R)
    assert not R.is_strictly_stronger(X)
    for m in CdModel:
        assert not m.is_strictly_stronger(m)


def test_parse_aliases():
    assert CdModel.parse("strong") is S
    assert CdModel.parse("Sender-CD") is X
    assert CdModel.parse("receiver_cd") is R
    assert CdModel.parse("nocd") is N
    assert CdModel.parse("none") is N
    with pytest.raises(ValueError):
        CdModel.parse("half_duplex")


_action = st.sampled_from(["idle", "listen", "transmit"])


@given(
    kinds=st.dictionaries(st.integers(1, 30), _action, min_size=1, max_size=12),
    model=st.sampled_from(list(CdModel)),
)
def test_resolve_slot_total_and_deterministic(kinds, model):
    actions = {
        d: transmit(d) if k == "transmit" else (LISTEN if k == "listen" else IDLE)
        for d, k in kinds.items()
    }
    feedback, a = resolve_by_device(model, actions)
    _, b = resolve_by_device(model, actions)
    assert a == b
    assert set(feedback) == set(actions)
    # all listeners see the same thing
    listener_fb = {feedback[d] for d, act in actions.items() if act.kind == "listen"}
    assert len(listener_fb) <= 1
    assert (a.delivered is not None) == (a.transmitter_count == 1)


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

    feedback = {}
    for dev, act in actions.items():
        if act.kind == "listen":
            feedback[dev] = listener_fb
        elif act.kind == "transmit":
            feedback[dev] = sender_fb
        else:
            feedback[dev] = NO_FEEDBACK
    return feedback, c, delivered


_payload = st.one_of(
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**6), max_size=4).map(tuple),
)
_any_action = st.one_of(
    st.just(IDLE),
    st.just(LISTEN),
    _payload.map(transmit),
)


@given(
    actions=st.dictionaries(st.integers(1, 50), _any_action, max_size=6),
    model=st.sampled_from(list(CdModel)),
)
def test_resolve_slot_matches_reference(actions, model):
    got_feedback, out = resolve_by_device(model, actions)
    feedback, c, delivered = reference_resolve_slot(model, actions)
    assert list(got_feedback) == list(feedback)
    for dev, fb in feedback.items():
        got = got_feedback[dev]
        assert (got.kind, got.payload) == (fb.kind, fb.payload), (model, dev)
    assert out.transmitter_count == c
    assert out.delivered == delivered


def test_lone_transmitter_alone_gets_no_listener_copy():
    # nobody can hear it, so only the sender-side models build a copy
    for model in CdModel:
        out = resolve_slot(model, [(4, transmit(9))])
        assert (out.transmitter_count, out.delivered) == (1, 9)
        if model.sender_side:
            assert out.listener == out.transmitter == received(9)
        else:
            assert (out.listener, out.transmitter) == (None, NO_FEEDBACK)


def test_slot_outcome_repr():
    out = resolve_slot(N, [(1, LISTEN)])
    assert repr(out) == (
        "SlotOutcome(listener=Feedback(kind='silence', payload=None), "
        "transmitter=Feedback(kind='none', payload=None), "
        "transmitter_count=0, delivered=None)"
    )
