import gc
import hashlib
import importlib
import inspect
import pkgutil
import random
import re
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError
from functools import partial

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

import radioleader
from radioleader import cli, runtime
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
from radioleader.cli import PROGRAMS
from radioleader.dense import (
    DenseImprovedProgram,
    DenseSimpleProgram,
    ExponentialSearchProgram,
    census,
    dense_improved_election,
    dense_simple_election,
    exponential_search_election,
)
from radioleader.lowerbound import canonical_sequence, potential_active_slots
from radioleader.partitions import PartitionFamily
from radioleader.protocols_core import (
    BinarySearchElectionProgram,
    HalvingTradeoffProgram,
    binary_search_election,
    halving_tradeoff_election,
    pairing_election,
)
from radioleader.runtime import (
    DeviceProgram,
    ProtocolConfig,
    ScheduleOverrun,
    Transcript,
    Verdict,
    check_strict_success,
    _BATCH,
    _CHUNK,
    _fnv1a_streams,
    run_programs,
    transcript_hashes,
)
from radioleader.tradeoff import (
    PartitionTradeoffProgram,
    choose_params,
    partition_tradeoff_election,
)

from test_channel import resolve_by_device
from test_dense import reference_attempt_summaries
from test_protocols_core import pairing_reduce_once

NO = CdModel.NO_CD


class ScriptProgram(DeviceProgram):
    """Plays back a fixed per-device script: {device_id: [(round, Action)]}.

    The winner set is declared up front; feedback is ignored."""

    script = {}
    winners = frozenset()
    length = 4

    @classmethod
    def schedule_length(cls, config):
        return cls.length

    def run(self):
        for item in self.script.get(self.device_id, []):
            yield item

    def finish(self):
        return Verdict(is_leader=self.device_id in self.winners)


def make_script(script, winners=(), length=4):
    return type(
        "Scripted",
        (ScriptProgram,),
        {"script": script, "winners": frozenset(winners), "length": length},
    )


def cfg(N, model=NO, **kw):
    return ProtocolConfig(model=model, N=N, **kw)


def test_trivial_idle_single_device():
    prog = make_script({}, winners={1}, length=1)
    report = run_programs(prog, [1], cfg(1))[0]
    assert report.strict_success
    assert report.ledger.max_energy == 0
    assert report.rounds == 1
    assert report.finished == 0  # no event: the device stopped before round 0
    assert report.easy_success is False


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(model=NO, N=0)
    with pytest.raises(ValueError):
        run_programs(make_script({}), [], cfg(4))
    with pytest.raises(ValueError):
        run_programs(make_script({}), [5], cfg(4))


# Each malformed offer, made from the previous round of its device, with
# the message it must raise.
BAD_OFFERS = {
    "non-tuple": (lambda prev: [prev + 1, LISTEN], "yielded malformed slot"),
    "wrong length": (lambda prev: (prev + 1, LISTEN, 0), "yielded malformed slot"),
    "non-int round": (lambda prev: (prev + 1.0, LISTEN), "yielded malformed slot"),
    "non-Action": (lambda prev: (prev + 1, "listen"), "yielded malformed slot"),
    "None": (lambda prev: None, "yielded malformed slot None"),
    "bool round": (lambda prev: (True, LISTEN), "yielded malformed slot"),
    "not after previous": (lambda prev: (prev, LISTEN),
                           r"requested round {prev} outside its schedule "
                           r"\(previous {prev}, length 4\)"),
    "past the end": (lambda prev: (4, LISTEN),
                     r"requested round 4 outside its schedule "
                     r"\(previous {prev}, length 4\)"),
}


@pytest.mark.parametrize("first", [True, False], ids=["first", "later"])
@pytest.mark.parametrize("case", list(BAD_OFFERS))
def test_every_bad_offer_is_rejected(case, first):
    # device 2 behaves; device 3 makes the bad offer as its first offer or
    # after listening in round 1, and the error names device 3
    make_offer, message = BAD_OFFERS[case]
    prev = -1 if first else 1
    script = {2: [(1, transmit(2))],
              3: [make_offer(prev)] if first else [(1, LISTEN), make_offer(prev)]}
    with pytest.raises(ScheduleOverrun,
                       match="device 3 " + message.format(prev=prev)):
        run_programs(make_script(script), [2, 3], cfg(4))


@pytest.mark.parametrize("first", [True, False], ids=["first", "later"])
@pytest.mark.parametrize("case", list(BAD_OFFERS))
@pytest.mark.parametrize("checker", [
    partial(canonical_sequence, config=cfg(4)),
    partial(potential_active_slots, config=cfg(4), k=4),
], ids=["canonical_sequence", "potential_active_slots"])
def test_lowerbound_replays_refuse_every_bad_offer(checker, case, first):
    # the checkers drive device 3 alone and refuse what the executor refuses
    make_offer, message = BAD_OFFERS[case]
    prev = -1 if first else 1
    script = {3: [make_offer(prev)] if first else [(1, LISTEN), make_offer(prev)]}
    with pytest.raises(ScheduleOverrun,
                       match="device 3 " + message.format(prev=prev)):
        checker(make_script(script), 3)


@pytest.mark.parametrize("kind, payload, message", [
    ("idle", None, "action kind 'idle'; only 'listen' and 'transmit' exist"),
    ("tranmsit", 3, "action kind 'tranmsit'; only 'listen' and 'transmit' exist"),
    ("listen", 3, "a listen carries no payload, not 3"),
], ids=["idle", "typo", "listen with payload"])
def test_action_refuses_a_bad_kind_or_payload(kind, payload, message):
    with pytest.raises(ValueError, match=message):
        Action(kind, payload)


@pytest.mark.parametrize("bad", [True, 1.5, "3"])
def test_device_ids_must_be_integers(bad):
    with pytest.raises(ValueError,
                       match=f"device ids must be integers, not {re.escape(repr(bad))}"):
        run_programs(make_script({}), [bad, 2], cfg(4))


class Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integer_like_device_ids_run_as_ints():
    prog = make_script({1: [(0, transmit(1))], 2: [(0, LISTEN)]}, winners={1})
    plain = run_programs(prog, [1, 2], cfg(4))[0]
    for ids in ([np.int64(2), 1], [Index(1), Index(2)]):
        report = run_programs(prog, ids, cfg(4))[0]
        assert report.device_ids == (1, 2)
        assert all(type(dev) is int for dev in report.device_ids)
        assert report.transcript_hash == plain.transcript_hash


def test_replay_check_passes_for_pure_programs():
    prog = make_script({1: [(0, Action("transmit", 1))]}, winners={1})
    report = run_programs(prog, [1], cfg(4))[0]
    assert report.strict_success
    # a device iterable is read once, and a second run records the same events
    again = run_programs(prog, iter([1]), cfg(4))[0]
    assert again.strict_success and again.transcript == report.transcript


def test_events_and_serialization_format():
    prog = make_script(
        {
            1: [(0, Action("transmit", 7)), (2, Action("listen"))],
            2: [(0, Action("listen")), (2, Action("transmit", (3, 4)))],
        },
        winners={1},
        length=3,
    )
    report = run_programs(prog, [1, 2], cfg(4))[0]
    text = report.transcript.serialize()
    # no_cd: transmitters learn nothing ('-'); listeners get the payload
    assert text == (
        "0\t1\tT\t7\t-\n"
        "0\t2\tL\t-\tR:7\n"
        "2\t1\tL\t-\tR:3,4\n"
        "2\t2\tT\t3,4\t-\n"
    )
    assert report.easy_success  # round 0 had one transmitter, one listener
    assert report.finished == 3 == report.rounds


def test_serialize_feedback_tags():
    prog = make_script(
        {
            1: [(0, Action("transmit", 1)), (1, Action("listen"))],
            2: [(0, Action("transmit", 2))],
        },
        length=2,
    )
    report = run_programs(prog, [1, 2], cfg(2, model=CdModel.STRONG_CD))[0]
    lines = report.transcript.serialize().splitlines()
    assert lines[0] == "0\t1\tT\t1\tC"  # collision on the sender side
    assert lines[2] == "1\t1\tL\t-\tS"  # silent listen


def test_transcript_events_re_resolve():
    # every recorded feedback must equal resolve_slot of that round's actions
    prog = make_script(
        {
            1: [(0, Action("transmit", 1)), (1, Action("listen"))],
            2: [(0, Action("transmit", 2)), (1, Action("transmit", 9))],
            3: [(1, Action("listen"))],
        },
        length=2,
    )
    for model in CdModel:
        report = run_programs(prog, [1, 2, 3], cfg(3, model=model))[0]
        by_round = {}
        for rnd, dev, action, fb in report.transcript.events:
            by_round.setdefault(rnd, {})[dev] = (action, fb)
        for rnd, entries in by_round.items():
            feedback = resolve_by_device(
                model, {d: a for d, (a, _) in entries.items()}
            )
            for dev, (_, fb) in entries.items():
                assert feedback[dev] == fb


def test_ledger_matches_independent_recount():
    prog = make_script(
        {
            1: [(0, Action("transmit", 1)), (3, Action("listen"))],
            2: [(1, Action("listen"))],
        },
        length=4,
    )
    report = run_programs(prog, [1, 2], cfg(4))[0]
    assert recount(report.transcript) == report.ledger.counts == {1: 2, 2: 1}
    assert report.ledger.max_energy == 2


def test_hash_is_stable_and_input_sensitive():
    base = make_script({1: [(0, Action("transmit", 1))]}, length=2)
    other = make_script({1: [(1, Action("transmit", 1))]}, length=2)
    h1 = run_programs(base, [1], cfg(4))[0].transcript_hash
    h2 = run_programs(base, [1], cfg(4))[0].transcript_hash
    h3 = run_programs(other, [1], cfg(4))[0].transcript_hash
    assert h1 == h2
    assert h1 != h3  # different round -> different fold
    assert 0 <= h1 < 1 << 64


def test_empty_transcript_serializes_empty():
    t = Transcript(model=NO, N=4, rounds=3, device_ids=(1,))
    assert t.serialize() == ""
    assert t.hash64() != 0


def test_order_independence_of_device_listing():
    prog = make_script(
        {
            3: [(0, Action("transmit", 3))],
            1: [(0, Action("listen"))],
            2: [(1, Action("transmit", 2))],
        },
        winners={3},
    )
    a = run_programs(prog, [1, 2, 3], cfg(4))[0]
    b = run_programs(prog, [3, 1, 2], cfg(4))[0]
    assert a.transcript_hash == b.transcript_hash
    assert a.verdicts == b.verdicts


def recount(transcript: Transcript) -> dict:
    """Reference for RunReport.ledger: every event is one unit of energy
    (the executor records no idle events)."""
    counts = dict.fromkeys(transcript.device_ids, 0)
    for _, dev, _, _ in transcript.events:
        counts[dev] += 1
    return counts


def check_easy_success(transcript: Transcript) -> bool:
    """Reference for RunReport.easy_success: some round has exactly one
    transmitter and at least one listener."""
    per_round = {}
    for rnd, _, action, _ in transcript.events:
        per_round.setdefault(rnd, []).append(action.kind)
    for kinds in per_round.values():
        if kinds.count("transmit") == 1 and "listen" in kinds:
            return True
    return False


def test_success_checkers():
    assert not check_easy_success(
        Transcript(model=NO, N=2, rounds=1, device_ids=(1, 2))
    )
    one_tx_one_listen = make_script(
        {1: [(0, Action("transmit", 1))], 2: [(0, Action("listen"))]}
    )
    report = run_programs(one_tx_one_listen, [1, 2], cfg(2))[0]
    assert report.easy_success
    assert check_easy_success(report.transcript)

    assert not check_strict_success(
        {1: Verdict(is_leader=True), 2: Verdict(is_leader=True)}
    )
    assert not check_strict_success({1: Verdict(is_leader=False)})
    assert check_strict_success(
        {1: Verdict(is_leader=True), 2: Verdict(is_leader=False)}
    )


def test_two_simultaneous_transmitters_is_not_easy():
    prog = make_script(
        {
            1: [(0, Action("transmit", 1))],
            2: [(0, Action("transmit", 2))],
            3: [(0, Action("listen"))],
        }
    )
    report = run_programs(prog, [1, 2, 3], cfg(3))[0]
    assert not report.easy_success


def test_run_programs_returns_program_objects():
    prog = make_script({1: [(0, Action("transmit", 1))]}, winners={1})
    report, programs = run_programs(prog, [1], cfg(4))
    assert [type(p) for p in programs] == [prog]
    assert programs[0].device_id == 1
    assert report.leader == 1
    # one program per device, in device_ids order
    report, programs = run_programs(make_script({}), [3, 1, 2], cfg(4))
    assert [p.device_id for p in programs] == list(report.device_ids) == [1, 2, 3]


def test_run_programs_rejects_a_model_the_program_does_not_declare():
    prog = type("Picky", (make_script({1: [(0, Action("listen"))]}),),
                {"models": (CdModel.STRONG_CD, CdModel.RECEIVER_CD)})
    run_programs(prog, [1], cfg(4, model=CdModel.RECEIVER_CD))
    with pytest.raises(ValueError, match="Picky is defined for strong_cd, "
                                         "receiver_cd, not no_cd"):
        run_programs(prog, [1], cfg(4))


def _package_programs():
    """Every DeviceProgram subclass defined in a radioleader module."""
    found = []
    for info in pkgutil.iter_modules(radioleader.__path__):
        module = importlib.import_module(f"radioleader.{info.name}")
        found += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, DeviceProgram)
            and obj.__module__ == module.__name__
        ]
    return sorted(found, key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", _package_programs(), ids=lambda c: c.__name__)
def test_program_class_is_the_whole_declaration(cls):
    # built from (id, config) alone, scheduled from the config alone, and
    # defined for a nonempty list of models in CdModel order
    assert list(inspect.signature(cls).parameters) == ["device_id", "config"]
    assert list(inspect.signature(cls.schedule_length).parameters) == ["config"]
    order = list(CdModel)
    assert cls.models and all(isinstance(m, CdModel) for m in cls.models)
    assert list(cls.models) == sorted(set(cls.models), key=order.index)
    if cls is DeviceProgram:
        return  # the abstract base declares no schedule
    # without k, b or family, or with b = 0, a run goes through or its
    # schedule_length refuses it with ValueError; run_programs and the sequence
    # checkers both ask for the schedule before any slot
    for config in (ProtocolConfig(model=cls.models[-1], N=8),
                   ProtocolConfig(model=cls.models[-1], N=8, b=0)):
        for run in (partial(run_programs, cls, [3, 5]),
                    partial(canonical_sequence, cls, 3)):
            try:
                run(config)
            except ValueError:
                pass


MODEL_DRIVERS = {
    BinarySearchElectionProgram: partial(binary_search_election, [1, 2], 16),
    HalvingTradeoffProgram: lambda model: halving_tradeoff_election(
        [1, 2], 16, 2, model=model),
    PartitionTradeoffProgram: lambda model: partition_tradeoff_election(
        [1, 2], choose_params(16, 2, 4, 0.5, family=_golden_family(16)), model=model),
}


@pytest.mark.parametrize("cls,model", [
    pytest.param(cls, m, id=f"{cls.__name__}-{m.value}")
    for cls in MODEL_DRIVERS for m in CdModel if m not in cls.models
])
def test_driver_rejects_an_inadmissible_model(cls, model):
    with pytest.raises(ValueError,
                       match=f"{cls.__name__} is defined for .*, not {model.value}"):
        MODEL_DRIVERS[cls](model)


def test_run_restores_the_collector_state():
    ok = make_script({1: [(0, Action("transmit", 1))]}, winners={1})
    bad = make_script({1: [(1, Action("listen")), (1, Action("listen"))]})
    assert gc.isenabled()
    run_programs(ok, [1], cfg(4))
    assert gc.isenabled()
    with pytest.raises(ScheduleOverrun):
        run_programs(bad, [1], cfg(4))
    assert gc.isenabled()
    gc.disable()
    try:
        run_programs(ok, [1], cfg(4))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_run_starts_no_collection():
    # the pause's end promotes the run's objects to the oldest generation,
    # so no young collection walks them once the collector is back on
    gc.collect()
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        pairing_election(range(1, 1025), 1024)
    finally:
        gc.callbacks.remove(hook)
    assert gc.isenabled() and starts == []


def test_run_keeps_the_callers_frozen_objects():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen
        run_programs(make_script({1: [(0, Action("transmit", 1))]}), [1], cfg(4))
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


class _Node:
    pass


class CycleProgram(ScriptProgram):
    """Builds a self-referencing node during the run and keeps only a
    weak reference to it."""

    nodes = []

    def run(self):
        node = _Node()
        node.self = node
        self.nodes.append(weakref.ref(node))
        yield 0, Action("transmit", self.device_id)


def test_a_cycle_built_in_a_run_is_still_collected():
    # promoted objects wait for a full collection, which still finds cycles
    CycleProgram.nodes = []
    run_programs(CycleProgram, [1, 2], cfg(4))
    assert len(CycleProgram.nodes) == 2
    assert all(ref() is not None for ref in CycleProgram.nodes)
    gc.collect()
    assert all(ref() is None for ref in CycleProgram.nodes)


GARBAGE_N = 256
GARBAGE_IDS = sorted(random.Random(7).sample(range(1, GARBAGE_N + 1), 12))


def _garbage_runs():
    """Every protocol under one model it admits, plus the census and a single
    pairing level, at N = 256 on a sparse id set."""
    ids, N = GARBAGE_IDS, GARBAGE_N
    family = choose_params(N, len(ids), 4, 0.5, verify_trials=1000)
    yield "pairing", partial(pairing_election, ids, N)
    yield "binary_search", partial(binary_search_election, ids, N, CdModel.RECEIVER_CD)
    yield "halving binary_search", partial(halving_tradeoff_election, ids, N, 2)
    yield "tradeoff", partial(partition_tradeoff_election, ids, family)
    yield "dense_simple", partial(dense_simple_election, ids, N, 16)
    yield "dense_improved", partial(dense_improved_election, ids, N, 16)
    yield "exponential", partial(exponential_search_election, ids, N, CdModel.SENDER_CD)
    yield "census", partial(census, 1, N, ids)
    yield "pairing_reduce_once", partial(pairing_reduce_once, ids, N)


GARBAGE_RUNS = dict(_garbage_runs())


@pytest.mark.parametrize("name", GARBAGE_RUNS)
def test_runs_build_no_slot_object_through_its_init(name, monkeypatch):
    # transmit and received skip the generated __init__ of the frozen
    # dataclasses, and the constant slot objects are built once at import,
    # so a run calls neither __init__
    calls = []
    for cls in (Action, Feedback):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            calls.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    assert Feedback("silence").kind == "silence" and calls == ["Feedback"]
    calls.clear()
    GARBAGE_RUNS[name]()
    assert calls == []


@pytest.mark.parametrize("won, rank",
                         [(False, None), (True, None), (False, 2), (True, 3)])
def test_finish_matches_a_dataclass_built_verdict(won, rank):
    program = DeviceProgram(1, cfg(4))
    assert (program.won, program.rank, program.leader_id) == (False, None, None)
    program.won, program.rank = won, rank
    fast, slow = program.finish(), Verdict(is_leader=won, rank=rank)
    assert type(fast) is Verdict
    assert fast == slow and hash(fast) == hash(slow)
    assert repr(fast) == repr(slow)
    with pytest.raises(FrozenInstanceError):
        fast.rank = 0
    # a device that neither won nor ranks gets the one shared verdict
    shared = DeviceProgram(2, cfg(4)).finish()
    assert (fast is shared) == (not won and rank is None)


def test_dense_walk_verdicts_match_dataclass_built_ones():
    # a dense walk leaves a winner, ranked devices and unranked ones
    ids = random.Random(3).sample(range(1, 65), 20)
    report, programs = run_programs(DenseImprovedProgram, ids,
                                    cfg(64, b=8))
    built = {dev: Verdict(is_leader=prog.won, rank=prog.rank)
             for dev, prog in zip(report.device_ids, programs)}
    assert report.verdicts == built
    ranks = [v.rank for v in built.values()]
    assert report.strict_success and None in ranks and 2 in ranks


@pytest.mark.parametrize("name", GARBAGE_RUNS)
def test_runs_leave_no_cyclic_garbage(name):
    # the executor pauses the cyclic collector during a run; that is only
    # free if a run builds no reference cycles for it to find afterwards
    gc.collect()
    GARBAGE_RUNS[name]()
    assert gc.collect() == 0


def _resume(gen, feedback):
    try:
        return gen.send(feedback)
    except StopIteration:
        return None


def reference_schedule(factory, ids, config):
    """Step every device once per round, in ascending device order; returns
    the events, the energy counts, easy success and each device's verdict."""
    programs = {dev: factory(dev, config) for dev in sorted(ids)}
    gens = {dev: prog.run() for dev, prog in programs.items()}
    offers = {dev: _resume(gen, None) for dev, gen in gens.items()}
    events, counts, easy = [], dict.fromkeys(gens, 0), False
    for rnd in range(factory.schedule_length(config)):
        batch = {dev: o[1] for dev, o in offers.items() if o and o[0] == rnd}
        if not batch:
            continue
        feedback = resolve_by_device(config.model, batch)
        kinds = [a.kind for a in batch.values()]
        easy |= kinds.count("transmit") == 1 and "listen" in kinds
        for dev, action in batch.items():
            events.append((rnd, dev, action, feedback[dev]))
            counts[dev] += 1
            offers[dev] = _resume(gens[dev], feedback[dev])
    verdicts = {dev: prog.finish() for dev, prog in programs.items()}
    return events, counts, easy, verdicts


SCRIPT_ROUNDS = 12
scripts = st.dictionaries(
    st.integers(1, 8),
    st.dictionaries(
        st.integers(0, SCRIPT_ROUNDS - 1),
        st.sampled_from(["listen", "transmit"]),
        max_size=6,
    ),
    min_size=1,
)


@settings(max_examples=200, deadline=None)
@given(plan=scripts, model=st.sampled_from(list(CdModel)))
# device 1's round 5 is scheduled, and device 2, last in round 0, runs
# ahead through round 3 before it
@example(plan={1: {0: "transmit", 5: "listen"}, 2: {0: "listen", 3: "transmit"},
               3: {8: "listen"}}, model=CdModel.STRONG_CD)
# device 2, last in round 0, joins device 1's scheduled round 2: easy success
@example(plan={1: {0: "listen", 2: "listen"}, 2: {0: "listen", 2: "transmit"}},
         model=CdModel.NO_CD)
# device 2's round 4 is scheduled after device 1's round 1; device 1, alone
# in round 1, runs ahead through round 2, which is earlier than round 4
@example(plan={1: {0: "listen", 1: "transmit", 2: "listen"},
               2: {0: "listen", 4: "transmit"}, 3: {9: "listen"}},
         model=CdModel.RECEIVER_CD)
# device 1, last in round 0, runs ahead through rounds 1-3, then joins
# device 2's round 7
@example(plan={1: {0: "transmit", 1: "transmit", 2: "listen", 3: "listen",
                   7: "listen"}, 2: {7: "transmit"}},
         model=CdModel.SENDER_CD)
# device 2, last of the two offers of round 0, runs ahead through the lone
# rounds 1-3, each earlier than device 1's round 5
@example(plan={1: {0: "listen", 5: "listen"},
               2: {0: "transmit", 1: "transmit", 2: "listen", 3: "transmit"}},
         model=CdModel.STRONG_CD)
# device 1 offers round 4, the earliest scheduled one; device 2, last in
# round 0, then offers round 2, earlier still, and runs it ahead
@example(plan={1: {0: "listen", 4: "transmit"},
               2: {0: "listen", 2: "listen", 6: "transmit"}, 3: {9: "listen"}},
         model=CdModel.RECEIVER_CD)
# device 2 runs ahead through rounds 1 and 2 and stops at round 4, which
# device 1 already holds: easy success there
@example(plan={1: {0: "transmit", 4: "listen"},
               2: {0: "listen", 1: "listen", 2: "transmit", 4: "transmit"}},
         model=CdModel.NO_CD)
# device 2, last in round -1, runs ahead through rounds 0-3 before device
# 1's round 5
@example(plan={1: {5: "listen"},
               2: {0: "transmit", 1: "listen", 3: "transmit"}},
         model=CdModel.SENDER_CD)
# devices 1 and 2, not last in round 0, schedule rounds 3 and 4, which
# hold one offer each when popped: a lone transmit that hears its own
# message, then a lone listen
@example(plan={1: {0: "listen", 3: "transmit"}, 2: {0: "listen", 4: "listen"},
               3: {0: "transmit", 6: "listen"}},
         model=CdModel.STRONG_CD)
# the same under a receiver-side model: device 1's scheduled round 2 is a
# lone listen, device 2's round 5 a lone transmit that hears nothing
@example(plan={1: {0: "transmit", 2: "listen"}, 2: {0: "listen", 5: "transmit"},
               3: {0: "listen", 7: "transmit"}},
         model=CdModel.RECEIVER_CD)
def test_scheduler_matches_reference_order(plan, model):
    # scripted devices skip rounds and share rounds; the event-driven
    # scheduler must resolve and record them as the round-by-round loop does
    script = {
        dev: [(rnd, Action(kind, dev if kind == "transmit" else None))
              for rnd, kind in sorted(slots.items())]
        for dev, slots in plan.items()
    }
    prog = make_script(script, length=SCRIPT_ROUNDS)
    config = cfg(8, model)
    report, _ = run_programs(prog, plan, config)
    events, counts, easy, verdicts = reference_schedule(prog, plan, config)
    assert list(report.transcript.events) == events
    assert report.ledger.counts == counts
    assert report.easy_success == easy
    assert report.verdicts == verdicts


def test_a_lone_device_runs_ahead_without_the_schedule(monkeypatch):
    # every slot of a one-device run holds one offer, so the device runs
    # ahead through all of them: no round is pushed and no slot resolved
    calls = []
    push, resolve = runtime.heappush, runtime.resolve_slot
    monkeypatch.setattr(runtime, "heappush",
                        lambda *args: calls.append("push") or push(*args))
    monkeypatch.setattr(runtime, "resolve_slot",
                        lambda *args: calls.append("resolve") or resolve(*args))
    slots = [(rnd, transmit(3) if rnd % 3 else LISTEN) for rnd in range(0, 20, 2)]
    for model in CdModel:
        report = run_programs(make_script({3: slots}, length=20), [3], cfg(4, model))[0]
        assert len(report.transcript.events) == len(slots)
    assert calls == []


def test_resolve_slot_sees_only_shared_slots(monkeypatch):
    # a round that holds one offer, run ahead or popped from the schedule,
    # takes the lone-slot rule: resolve_slot gets two offers or more
    sizes, popped = [], []
    pop, resolve = runtime.heappop, runtime.resolve_slot
    monkeypatch.setattr(runtime, "heappop",
                        lambda heap: popped.append(1) or pop(heap))
    monkeypatch.setattr(runtime, "resolve_slot",
                        lambda model, offers: sizes.append(len(offers))
                        or resolve(model, offers))
    N = 33
    family = choose_params(N, 2, GOLDEN_TRADEOFF_K[N], 0.5,
                           family=_golden_family(N))
    rng = random.Random(11)
    for cls in PROGRAMS.values():
        for model in cls.models:
            config = ProtocolConfig(model=model, N=N, k=2, b=4, family=family)
            for n in (1, 2, 5, 12, N):
                ids = rng.sample(range(1, N + 1), n)
                report = run_programs(cls, ids, config)[0]
                events, _, _, verdicts = reference_schedule(cls, ids, config)
                assert list(report.transcript.events) == events
                assert report.verdicts == verdicts
    assert min(sizes) >= 2
    # some popped rounds held one offer and were not resolved
    assert len(popped) > len(sizes)


@pytest.mark.parametrize("model", list(CdModel))
def test_lone_rule_matches_resolve_slot(model):
    # what the executor hands a lone offer, run ahead or popped, read from
    # the rule it reads, is what resolve_slot gives a slot of that one offer
    listener, _ = resolve_slot(model, [(0, LISTEN)])
    assert runtime.LONE_LISTEN is listener
    lone = runtime.LONE_TRANSMIT[model]
    _, transmitter = resolve_slot(model, [(0, transmit(7))])
    assert transmitter == (received(7) if lone is None else lone)


# --- golden transcripts -----------------------------------------------------

GOLDEN_IDS = {
    1: ([1],),
    5: ([1], [5], [2, 4], [1, 2, 3, 4, 5]),
    16: ([16], [3, 11], [2, 3, 5, 7, 11, 13], list(range(1, 17))),
    33: ([33], [1, 33], [4, 9, 16, 25], list(range(2, 34, 2)), list(range(1, 34))),
}
# (N, k) points where choose_params picks b = 4 for n = 2
GOLDEN_TRADEOFF_K = {5: 2, 16: 4, 33: 3}


def _golden_family(N):
    """Three fixed, unverified 4-part partitions of [1..N]."""
    partitions = tuple(
        tuple((x * 7 + j * x * x) % 11 % 4 + 1 for x in range(1, N + 1))
        for j in range(3)
    )
    return PartitionFamily(
        N=N, b=4, epsilon_tilde=0.5, n_max=N, seed=0, c_const=8,
        partitions=partitions, certificate="unverified",
    )


def _golden_runs():
    """(name, driver call) over every protocol x each model it admits."""
    for N, id_sets in GOLDEN_IDS.items():
        for ids in id_sets:
            for m in CdModel:
                yield f"pairing {m.value}", partial(pairing_election, ids, N, model=m)
                yield f"exponential {m.value}", \
                    partial(exponential_search_election, ids, N, model=m)
                for b in (1, 2, 4, 7):
                    yield f"dense_simple {m.value} b={b}", \
                        partial(dense_simple_election, ids, N, b, model=m)
                    yield f"dense_improved {m.value} b={b}", \
                        partial(dense_improved_election, ids, N, b, model=m)
            for m in BinarySearchElectionProgram.models:
                yield f"binary_search {m.value}", \
                    partial(binary_search_election, ids, N, model=m)
            for k in (1, 2, 3):
                yield f"halving k={k} binary_search", partial(
                    halving_tradeoff_election, ids, N, k)
            if N in GOLDEN_TRADEOFF_K:
                family = choose_params(N, 2, GOLDEN_TRADEOFF_K[N], 0.5,
                                       family=_golden_family(N))
                for m in PartitionTradeoffProgram.models:
                    yield f"tradeoff {m.value}", \
                        partial(partition_tradeoff_election, ids, family, model=m)


def _golden_reports():
    """(name, report) for each golden run, a failed election included."""
    for name, run in _golden_runs():
        yield name, run()


def test_golden_transcripts():
    """One sha256 over the serialized transcripts, headers, leaders and rank
    maps of a fixed run matrix.  It hashes the serialized text rather than
    Transcript.hash64, so the hash format can change without touching it; a
    change of this literal is a change of simulated behaviour."""
    digest = hashlib.sha256()
    runs = 0
    for name, report in _golden_reports():
        t = report.transcript
        ids = ",".join(str(i) for i in t.device_ids)
        ranks = ",".join(f"{d}:{v.rank}" for d, v in sorted(report.verdicts.items())
                         if v.rank is not None)
        digest.update(
            f"# {name}\n{t.model.value} {t.N} {t.rounds} {ids}\n"
            f"leader={report.leader} ranks={ranks}\n{t.serialize()}".encode()
        )
        runs += 1
    assert runs == 656
    assert digest.hexdigest() == (
        "3673894706529472cda864cb34db739e77275d13fc6fc6c886074735db4695b4"
    )


def test_golden_transcript_hashes():
    """One sha256 over Transcript.hash64 of the golden run matrix: a change
    of this literal is a change of the hash function's values."""
    digest = hashlib.sha256()
    runs = 0
    for _, report in _golden_reports():
        digest.update(b"%016x\n" % report.transcript_hash)
        runs += 1
    assert runs == 656
    assert digest.hexdigest() == (
        "c018d53c64e9de6e1241b26538a2f5406801e746a593536eb625d84a636e6328"
    )


# --- the FNV-1a fold --------------------------------------------------------

def fnv1a_reference(data):
    """The per-byte FNV-1a loop that the segmented fold must reproduce."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


FOLD_LENGTHS = [*range(65), 1023, 1024, 1025,
                _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]


@pytest.mark.parametrize("length", FOLD_LENGTHS)
def test_fold_matches_reference_loop(length):
    rng = random.Random(length)
    for data in (rng.randbytes(length), bytes(length), b"\xff" * length):
        assert _fnv1a_streams([[data]]) == [fnv1a_reference(data)]


def test_fold_of_many_streams_in_one_call():
    # every fold length in one call, twice over so that each stream starts
    # at another offset of a buffer, each split into pieces at random cuts
    rng = random.Random(7)
    lengths = FOLD_LENGTHS * 2
    rng.shuffle(lengths)
    datas = [rng.randbytes(n) for n in lengths]
    streams = []
    for data in datas:
        cuts = sorted(rng.choices(range(len(data) + 1), k=rng.randrange(4)))
        bounds = [0, *cuts, len(data)]
        streams.append([data[i:j] for i, j in zip(bounds, bounds[1:])])
    assert _fnv1a_streams(streams) == [fnv1a_reference(d) for d in datas]
    # a stream ending on a buffer boundary, then an empty one
    datas = [bytes(_CHUNK - 3), b"abc", b"", b"d"]
    assert _fnv1a_streams([[d] for d in datas]) == [fnv1a_reference(d) for d in datas]


@settings(max_examples=100, deadline=None)
@given(pad=st.integers(0, _CHUNK),
       streams=st.lists(st.lists(st.binary(max_size=3 * 1024), max_size=4),
                        max_size=8))
def test_fold_matches_reference_loop_on_drawn_bytes(pad, streams):
    # a seeded stream of `pad` bytes first puts the drawn ones anywhere
    # against the buffer boundaries
    streams = [[random.Random(pad).randbytes(pad)], *streams]
    assert _fnv1a_streams(streams) == [fnv1a_reference(b"".join(s)) for s in streams]


def _transcript_runs():
    """Every protocol once at N = 2^10, on all ids where it is meant for
    dense sets and on 12 seeded ids for the partition trade-off."""
    N = 1 << 10
    ids = range(1, N + 1)
    few = sorted(random.Random(5).sample(ids, 12))
    family = choose_params(N, len(few), 4, 0.5, verify_trials=1000)
    yield partial(pairing_election, ids, N)
    yield partial(binary_search_election, ids, N, CdModel.RECEIVER_CD)
    yield partial(halving_tradeoff_election, ids, N, 3)
    yield partial(partition_tradeoff_election, few, family)
    yield partial(dense_simple_election, ids, N, 16)
    yield partial(dense_improved_election, ids, N, 16)
    yield partial(exponential_search_election, ids, N, CdModel.SENDER_CD)


def test_transcript_hash_matches_reference_loop():
    longest = 0
    for run in _transcript_runs():
        report = run()
        t = report.transcript
        ids = ",".join(str(i) for i in t.device_ids)
        data = (f"{t.model.value} {t.N} {t.rounds} {ids}\n"
                + t.serialize()).encode("ascii")
        assert report.transcript_hash == fnv1a_reference(data)
        longest = max(longest, len(data))
    assert longest > _CHUNK


def _synthetic_transcript(count):
    """A transcript of `count` events that cycles through every action and
    feedback shape; the events need not come from a run to be hashed."""
    feedback = (NO_FEEDBACK, SILENCE, COLLISION)
    events = []
    for i in range(count):
        if i % 3 == 0:
            action = transmit((i, i + 1) if i % 2 else i)
        else:
            action = LISTEN
        fb = received(i) if i % 4 == 0 else feedback[i % 3]
        events.append((i, 1 + i % 7, action, fb))
    return transcript_of(events, model=NO, N=7, rounds=max(count, 1),
                         device_ids=tuple(range(1, 8)))


def transcript_of(events, **frame):
    """A Transcript with the frame `frame` holding `events`, encoded into
    its columns the way the executor records them."""
    t = Transcript(**frame)
    for rnd, dev, action, fb in events:
        code = runtime._FEEDBACK_CODE[fb.kind]
        if action.kind == "transmit":
            code |= runtime.TRANSMIT
            t.event_payloads.append(action.payload)
        elif fb.kind == "received":
            t.event_payloads.append(fb.payload)
        t.event_rounds.append(rnd)
        t.event_devices.append(t.device_ids.index(dev))
        t.event_codes.append(code)
    assert list(t.events) == events
    return t


def _hashed_text(t):
    ids = ",".join(str(i) for i in t.device_ids)
    return f"{t.model.value} {t.N} {t.rounds} {ids}\n{t.serialize()}".encode("ascii")


@pytest.mark.parametrize("count", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1,
                                   3 * _BATCH + 7])
def test_batched_hash_matches_reference_loop(count):
    t = _synthetic_transcript(count)
    assert t.hash64() == fnv1a_reference(_hashed_text(t))


def _synthetic_transcript_of_length(length):
    """A synthetic transcript whose hashed text is `length` bytes: the most
    events that fit, then digits added to the round count."""
    lo, hi = 0, length
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if len(_hashed_text(_synthetic_transcript(mid))) <= length:
            lo = mid
        else:
            hi = mid - 1
    t = _synthetic_transcript(lo)
    t.rounds *= 10 ** (length - len(_hashed_text(t)))
    assert len(_hashed_text(t)) == length
    return t


def test_transcript_hashes_of_many_transcripts_in_one_call():
    transcripts = [_synthetic_transcript(0), _synthetic_transcript(1)]
    transcripts += [_synthetic_transcript_of_length(n)
                    for n in (_CHUNK - 1, _CHUNK, _CHUNK + 1)]
    transcripts += [_synthetic_transcript(0), _synthetic_transcript(5 * _BATCH),
                    _synthetic_transcript(1)]
    texts = [_hashed_text(t) for t in transcripts]
    assert transcript_hashes(transcripts) == [fnv1a_reference(d) for d in texts]
    # the long transcript straddles three buffers
    start = sum(map(len, texts[:6]))
    assert (start + len(texts[6]) - 1) // _CHUNK - start // _CHUNK == 2


def test_hashing_happens_only_when_asked(monkeypatch):
    folds = []
    fold = runtime._fold
    monkeypatch.setattr(runtime, "_fold", lambda *args: folds.append(1) or fold(*args))

    run_programs(BinarySearchElectionProgram, [2, 5], ProtocolConfig(CdModel.STRONG_CD, 8))
    census(1, 8, [2, 5, 7])
    pairing_reduce_once([1, 2, 3], 4)
    report = pairing_election([1, 2, 3], 4)
    assert folds == []
    assert report.transcript_hash == report.transcript_hash
    assert len(folds) == 1

    folds.clear()
    runs = [run_programs(BinarySearchElectionProgram, [2, 5],
                         ProtocolConfig(CdModel.STRONG_CD, 8))[0] for _ in range(2)]
    assert runs[0].transcript == runs[1].transcript
    assert folds == []  # comparing transcripts compares columns, not hashes
    assert runs[0].transcript_hash == runs[0].transcript.hash64()
    assert len(folds) == 2

    for argv in (["--protocol", "pairing", "--N", "6", "--subsets", "all"],
                 ["--protocol", "exponential", "--N", "16", "--n", "4"]):
        folds.clear()
        rows = cli.run_experiment(cli.build_parser().parse_args(argv))[0]
        assert len(rows) > 1 and len(folds) == 1, argv


def test_hashing_streams_the_transcript():
    # the hashed text of a full-density pairing run at 2^16 is about
    # 3.75 MB; hashing it must never hold much of it at once
    N = 1 << 16
    report = pairing_election(range(1, N + 1), N)
    size = sum(map(len, runtime._hashed_pieces(report.transcript)))
    tracemalloc.start()
    try:
        value = report.transcript_hash
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == report.transcript.hash64()
    assert size > 3_500_000
    assert peak < 2_000_000, peak


def reference_lines(events):
    """The text of `Transcript.serialize`, each event formatted on its own."""
    def text(payload):
        if payload is None:
            return "-"
        return ",".join(map(str, payload)) if isinstance(payload, tuple) else str(payload)

    tags = {"listen": "L", "transmit": "T",
            "none": "-", "silence": "S", "collision": "C"}
    return "".join(
        f"{rnd}\t{dev}\t{tags[action.kind]}\t{text(action.payload)}\t"
        + (f"R:{text(fb.payload)}" if fb.kind == "received" else tags[fb.kind])
        + "\n"
        for rnd, dev, action, fb in events)


def test_each_slot_formats_its_payload_once(monkeypatch):
    # one id per block of 16 makes exponential search's second attempt a
    # census of the whole space: every listener of a champion's slot
    # receives its member list, one payload object shared by the slot
    N = 1 << 12
    report = exponential_search_election(range(1, N + 1, 16), N, CdModel.SENDER_CD)
    t = report.transcript
    formatted = []
    payload_text = runtime._payload_text
    monkeypatch.setattr(runtime, "_payload_text",
                        lambda p: formatted.append(p) or payload_text(p))
    assert t.serialize() == reference_lines(t.events)
    carried = [(rnd, action.payload if action.kind == "transmit" else fb.payload)
               for rnd, _, action, fb in t.events
               if action.kind == "transmit" or fb.kind == "received"]
    # a payload is formatted once for each run of events that carry the
    # same object: at most once per slot, however many listeners it has
    assert formatted == [p for i, (_, p) in enumerate(carried)
                         if i == 0 or p is not carried[i - 1][1]]
    assert len(formatted) <= len({(rnd, id(p)) for rnd, p in carried})
    assert len(carried) == 4861 and len(formatted) == 2304


# (driver call, bytes per event) for every id of N = 2^14 present
TRANSCRIPT_BYTES = {
    "pairing no_cd": (partial(pairing_election, range(1, 2**14 + 1), 2**14), 40),
    "binary_search receiver_cd": (partial(binary_search_election, range(1, 2**14 + 1),
                                          2**14, CdModel.RECEIVER_CD), 40),
    "exponential no_cd": (partial(exponential_search_election, range(1, 2**14 + 1),
                                  2**14, CdModel.NO_CD), 55),
}


@pytest.mark.parametrize("name", TRANSCRIPT_BYTES)
def test_transcript_bytes_per_event(name):
    # what a held report keeps for its transcript: the four columns and
    # the payload objects that only the transcript still refers to
    run, bound = TRANSCRIPT_BYTES[name]
    gc.collect()
    tracemalloc.start()
    try:
        report = run()
        events = len(report.transcript.events)
        held = tracemalloc.get_traced_memory()[0]
        report.transcript = None
        without = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert events > 40_000
    assert (held - without) / events <= bound, (held - without) / events


# (driver call, traced peak bytes per device) for every id of N = 2^12
# present, under no_cd (binary search, which does not declare no_cd, under
# receiver_cd as in the benchmark); at the start of a run every device is
# suspended at once, holding its program's generator, its walk's and, in
# the improved walk, the census's
WALK_PEAK_BYTES = {
    "exponential": (partial(exponential_search_election, range(1, 2**12 + 1),
                            2**12, CdModel.NO_CD), 1555),
    "dense_improved b=4": (partial(dense_improved_election, range(1, 2**12 + 1),
                                   2**12, 4), 1530),
    "dense_simple b=4": (partial(dense_simple_election, range(1, 2**12 + 1),
                                 2**12, 4), 1270),
    "pairing": (partial(pairing_election, range(1, 2**12 + 1), 2**12,
                        CdModel.NO_CD), 1205),
    "binary_search": (partial(binary_search_election, range(1, 2**12 + 1), 2**12,
                              CdModel.RECEIVER_CD), 1050),
}


@pytest.mark.parametrize("name", WALK_PEAK_BYTES)
def test_full_density_peak_bytes_per_device(name):
    run, bound = WALK_PEAK_BYTES[name]
    gc.collect()
    tracemalloc.start()
    try:
        report = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.strict_success
    assert peak / 2**12 <= bound, peak / 2**12


# the containers a suspended walk must not hold: a list of visits, or an
# iterator kept across its yields
_HELD_CONTAINERS = (list, type(iter([])), type(iter(())), type(iter(range(0))))


@pytest.mark.parametrize("cls,b", [(ExponentialSearchProgram, None),
                                   (DenseImprovedProgram, 4),
                                   (DenseSimpleProgram, 4)])
def test_a_waiting_device_holds_only_its_frames(cls, b):
    # what a device holds at its first offer, times every device of a
    # full-density run, is that run's peak (test above); gc.get_referents
    # of a suspended generator lists its frame's locals and value stack,
    # so an iterator a `for` keeps on the stack shows too
    config = ProtocolConfig(model=NO, N=2**12, b=b)
    for dev in (1, 2, 5, 1000, 2**12):
        gen = top = cls(dev, config).run()  # top keeps the chain alive
        assert type(top.send(None)) is tuple
        chain = 0
        while gen is not None:
            chain += 1
            held = [type(o).__name__ for o in gc.get_referents(gen)
                    if isinstance(o, _HELD_CONTAINERS)]
            assert held == [], (dev, gen.__name__, held)
            gen = gen.gi_yieldfrom
        assert chain == (2 if cls is DenseSimpleProgram else 3)


def test_events_view_iterates_and_compares_by_value():
    prog = make_script(
        {
            1: [(0, Action("transmit", 7)), (2, Action("listen"))],
            2: [(0, Action("listen")), (2, Action("transmit", (3, 4)))],
            3: [(1, Action("transmit", 5)), (2, Action("transmit", 6))],
        },
        length=3,
    )
    t = run_programs(prog, [1, 2, 3], cfg(4, model=CdModel.STRONG_CD))[0].transcript
    events = list(t.events)
    assert len(t.events) == len(events) == 6
    assert list(t.events) == events and events == list(t.events)
    assert list(t.events) == list(t.events)  # each pass rebuilds equal tuples
    assert tuple(t.events) == tuple(events) and tuple(events) == tuple(t.events)
    assert list(t.events) != events[:-1]
    assert list(t.events) != 5 and list(t.events) != "abc"
    assert events[0] == (0, 1, transmit(7), Feedback("received", 7))
    assert events[3] == (2, 1, Action("listen"), Feedback("collision"))
    assert events[5] == (2, 3, transmit(6), Feedback("collision"))
    # a view is read by iterating, not indexed
    with pytest.raises(TypeError):
        t.events[0]


def test_events_len_builds_no_event():
    # perfbench reads len(report.transcript.events) after every run; a
    # view that built its tuples would hold one tuple and its objects
    # per event (full_density peak_rss_mb)
    N = 2**14
    t = pairing_election(range(1, N + 1), N, CdModel.STRONG_CD).transcript
    assert len(t.event_codes) > 40_000
    gc.collect()
    tracemalloc.start()
    try:
        size = len(t.events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == len(t.event_codes)
    assert peak < 4096, peak


def test_rounds_past_the_int64_range_are_recorded():
    # exponential search's schedule at N = 2^70 runs past 2^63 rounds
    N = 1 << 70
    report = exponential_search_election([1, N], N, CdModel.NO_CD)
    t = report.transcript
    assert report.strict_success and t.rounds > 1 << 63
    assert t.event_rounds[-1] > 1 << 63
    assert t.serialize() == reference_lines(t.events)
    assert report.attempts == reference_attempt_summaries(report)


@st.composite
def _drawn_runs(draw):
    """(program class, device ids, config): any protocol in any model it
    declares, N <= 64, with its parameter drawn where it takes one."""
    name = draw(st.sampled_from(sorted(PROGRAMS)))
    cls = PROGRAMS[name]
    model = draw(st.sampled_from(cls.models))
    family = None
    if name == "tradeoff":
        N = draw(st.sampled_from(sorted(GOLDEN_TRADEOFF_K)))
        family = choose_params(N, 2, GOLDEN_TRADEOFF_K[N], 0.5,
                               family=_golden_family(N))
    else:
        N = draw(st.integers(1, 64))
    ids = draw(st.sets(st.integers(1, N), min_size=1))
    k = draw(st.integers(1, 6)) if name == "halving" else None
    b = draw(st.integers(1, N)) if name.startswith("dense") else None
    return cls, sorted(ids), ProtocolConfig(model=model, N=N, k=k, b=b,
                                            family=family)


@settings(max_examples=150, deadline=None)
@given(run=_drawn_runs())
def test_executor_shortcuts_match_transcript_checks(run):
    # the executor reads easy success off each slot and tallies energy at
    # the end, and the report reads the finishing round off the round
    # column; each must agree with the checks that read the transcript
    cls, ids, config = run
    report = run_programs(cls, ids, config)[0]
    assert report.easy_success == check_easy_success(report.transcript)
    assert report.ledger.counts == recount(report.transcript)
    last = max((rnd for rnd, *_ in report.transcript.events), default=-1)
    assert report.finished == last + 1 <= report.rounds


@settings(max_examples=150, deadline=None)
@given(run=_drawn_runs())
def test_every_protocol_matches_the_reference_engine(run):
    # the real programs, in every model they declare, through the
    # round-by-round engine: same events, energy, easy success and verdicts
    cls, ids, config = run
    report = run_programs(cls, ids, config)[0]
    events, counts, easy, verdicts = reference_schedule(cls, ids, config)
    assert list(report.transcript.events) == events
    assert report.ledger.counts == counts
    assert report.easy_success == easy
    assert report.verdicts == verdicts
