import hashlib
import itertools
from functools import partial

import pytest

from radioleader.channel import Action, CdModel, resolve_slot
from radioleader.dense import (
    dense_improved_election,
    dense_simple_election,
    exponential_search_election,
)
from radioleader.partitions import Certificate, Partition, PartitionFamily
from radioleader.protocols_core import (
    binary_search_election,
    halving_tradeoff_election,
    pairing_election,
)
from radioleader.runtime import (
    BoundFactory,
    DeviceProgram,
    EnergyLedger,
    NonDeterminism,
    ProtocolConfig,
    ScheduleOverrun,
    Transcript,
    Verdict,
    check_easy_success,
    check_strict_success,
    execute,
    run_programs,
)
from radioleader.tradeoff import NoLeader, choose_params, partition_tradeoff_election

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
        for rnd, action in self.script.get(self.device_id, []):
            yield (rnd, action)

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
    report = execute(prog, [1], cfg(1))
    assert report.strict_success
    assert report.ledger.max_energy == 0
    assert report.rounds == 1
    assert report.easy_success is False


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(model=NO, N=0)
    with pytest.raises(ValueError):
        execute(make_script({}), [], cfg(4))
    with pytest.raises(ValueError):
        execute(make_script({}), [5], cfg(4))


def test_schedule_overrun_past_end():
    prog = make_script({1: [(4, Action("transmit", 1))]}, length=4)
    with pytest.raises(ScheduleOverrun):
        execute(prog, [1], cfg(4))


def test_schedule_overrun_non_increasing():
    prog = make_script(
        {1: [(2, Action("listen")), (2, Action("listen"))]}, length=4
    )
    with pytest.raises(ScheduleOverrun):
        execute(prog, [1], cfg(4))


def test_explicit_idle_yield_rejected():
    # only listen / transmit may be offered; a typo fails at the offer,
    # naming the device and the kind, not later inside the hash
    for kind in ("idle", "tranmsit"):
        prog = make_script({1: [(0, Action(kind, 1))]}, length=2)
        with pytest.raises(ScheduleOverrun, match=f"device 1 .*'{kind}'"):
            execute(prog, [1], cfg(4))


def test_replay_check_catches_run_to_run_state():
    counter = itertools.count()

    class Shifty(DeviceProgram):
        @classmethod
        def schedule_length(cls, config):
            return 8

        def run(self):
            yield (next(counter) % 8, Action("transmit", self.device_id))

    with pytest.raises(NonDeterminism):
        execute(Shifty, [1], cfg(4), check_replay=True)


def test_replay_check_passes_for_pure_programs():
    prog = make_script({1: [(0, Action("transmit", 1))]}, winners={1})
    report = execute(prog, [1], cfg(4), check_replay=True)
    assert report.strict_success


def test_events_and_serialization_format():
    prog = make_script(
        {
            1: [(0, Action("transmit", 7)), (2, Action("listen"))],
            2: [(0, Action("listen")), (2, Action("transmit", (3, 4)))],
        },
        winners={1},
        length=3,
    )
    report = execute(prog, [1, 2], cfg(4))
    text = report.transcript.serialize()
    # no_cd: transmitters learn nothing ('-'); listeners get the payload
    assert text == (
        "0\t1\tT\t7\t-\n"
        "0\t2\tL\t-\tR:7\n"
        "2\t1\tL\t-\tR:3,4\n"
        "2\t2\tT\t3,4\t-\n"
    )
    assert report.easy_success  # round 0 had one transmitter, one listener


def test_serialize_feedback_tags():
    prog = make_script(
        {
            1: [(0, Action("transmit", 1)), (1, Action("listen"))],
            2: [(0, Action("transmit", 2))],
        },
        length=2,
    )
    report = execute(prog, [1, 2], cfg(2, model=CdModel.STRONG_CD))
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
        report = execute(prog, [1, 2, 3], cfg(3, model=model))
        by_round = {}
        for rnd, dev, action, fb in report.transcript.events:
            by_round.setdefault(rnd, {})[dev] = (action, fb)
        for rnd, entries in by_round.items():
            outcome = resolve_slot(model, {d: a for d, (a, _) in entries.items()})
            for dev, (_, fb) in entries.items():
                assert outcome.feedback[dev] == fb


def test_ledger_matches_independent_recount():
    prog = make_script(
        {
            1: [(0, Action("transmit", 1)), (3, Action("listen"))],
            2: [(1, Action("listen"))],
        },
        length=4,
    )
    report = execute(prog, [1, 2], cfg(4))
    recount = EnergyLedger.recount(report.transcript)
    assert recount.counts == report.ledger.counts == {1: 2, 2: 1}
    assert recount.max_energy == report.ledger.max_energy == 2


def test_hash_is_stable_and_input_sensitive():
    base = make_script({1: [(0, Action("transmit", 1))]}, length=2)
    other = make_script({1: [(1, Action("transmit", 1))]}, length=2)
    h1 = execute(base, [1], cfg(4)).transcript_hash
    h2 = execute(base, [1], cfg(4)).transcript_hash
    h3 = execute(other, [1], cfg(4)).transcript_hash
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
    a = execute(prog, [1, 2, 3], cfg(4))
    b = execute(prog, [3, 1, 2], cfg(4))
    assert a.transcript_hash == b.transcript_hash
    assert a.verdicts == b.verdicts


def test_success_checkers():
    assert not check_easy_success(
        Transcript(model=NO, N=2, rounds=1, device_ids=(1, 2))
    )
    one_tx_one_listen = make_script(
        {1: [(0, Action("transmit", 1))], 2: [(0, Action("listen"))]}
    )
    report = execute(one_tx_one_listen, [1, 2], cfg(2))
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
    report = execute(prog, [1, 2, 3], cfg(3))
    assert not report.easy_success


def test_bound_factory_forwards_extras():
    class Extra(DeviceProgram):
        def __init__(self, device_id, config, flavor):
            super().__init__(device_id, config)
            self.flavor = flavor

        @classmethod
        def schedule_length(cls, config, flavor):
            return len(flavor)

        def run(self):
            return
            yield

    fac = BoundFactory(Extra, flavor="abc")
    assert fac.schedule_length(cfg(4)) == 3
    assert fac(1, cfg(4)).flavor == "abc"


def test_run_programs_returns_program_objects():
    prog = make_script({1: [(0, Action("transmit", 1))]}, winners={1})
    report, programs = run_programs(prog, [1], cfg(4))
    assert set(programs) == {1}
    assert programs[1].device_id == 1
    assert report.leader == 1


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
        Partition(b=4, part_of=tuple((x * 7 + j * x * x) % 11 % 4 + 1
                                     for x in range(1, N + 1)))
        for j in range(3)
    )
    return PartitionFamily(
        N=N, b=4, K=3, epsilon_tilde=0.5, n_max=N, seed=0, c_const=8,
        partitions=partitions, certificate=Certificate("unverified"),
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
            for m in (CdModel.STRONG_CD, CdModel.RECEIVER_CD):
                yield f"binary_search {m.value}", \
                    partial(binary_search_election, ids, N, model=m)
            for k in (1, 2, 3):
                for inner in ("binary_search", "pairing"):
                    yield f"halving k={k} {inner}", partial(
                        halving_tradeoff_election, ids, N, k, inner_election=inner)
            if N in GOLDEN_TRADEOFF_K:
                params = choose_params(N, 2, GOLDEN_TRADEOFF_K[N], 0.5,
                                       family=_golden_family(N))
                for m in (CdModel.STRONG_CD, CdModel.SENDER_CD):
                    yield f"tradeoff {m.value}", \
                        partial(partition_tradeoff_election, ids, params, model=m)


def test_golden_transcripts():
    """One sha256 over the serialized transcripts, headers, leaders and rank
    maps of a fixed run matrix.  It hashes the serialized text rather than
    Transcript.hash64, so the hash format can change without touching it; a
    change of this literal is a change of simulated behaviour."""
    digest = hashlib.sha256()
    runs = 0
    for name, run in _golden_runs():
        try:
            report = run()
        except NoLeader as exc:
            report = exc.report
        t = report.transcript
        ids = ",".join(str(i) for i in t.device_ids)
        ranks = ",".join(f"{d}:{v.rank}" for d, v in sorted(report.verdicts.items())
                         if v.rank is not None)
        digest.update(
            f"# {name}\n{t.model.value} {t.N} {t.rounds} {ids}\n"
            f"leader={report.leader} ranks={ranks}\n{t.serialize()}".encode()
        )
        runs += 1
    assert runs == 698
    assert digest.hexdigest() == (
        "08309c3d0886572b1e069a36608b5e15ecfb73c9bb7605ef48d3ee2e9afd9164"
    )
