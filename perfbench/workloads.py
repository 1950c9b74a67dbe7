"""The workloads: cold-ladder, cold-safe-brute, workspace-stream and serve-mix.

Each workload is a closed loop of whole rounds: a round issues the same
operations (seeded targets, seeded order), and rounds repeat until the timed
operations have taken ``--seconds``.  Set-up runs ``SETUPS`` times per run
(see there).  Every answer is checked by the oracles outside
the timed region; in a traced run every answer is also compared bitwise with
the same computation made untraced.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from repro.api import AttributionSession, EngineConfig
from repro.counting import clear_caches
from repro.data import fact
from repro.data.atoms import Fact
from repro.engine import clear_engine_cache
from repro.errors import ReproError
from repro.serve import AdmissionPolicy, AttributionHTTPServer, AttributionService
from repro.workspace import AttributionWorkspace, DiskStore, MemoryStore

from perfbench import instances, oracles
from perfbench.tracing import Tracer, current_op

#: Set-ups per run; ``setup_s`` is their median.  The cold workloads cut
#: the timed phase into ``SETUPS`` segments of equal timed length, each
#: served by a fresh set-up, so the set-ups are spread over the run's life.
#: The stream and the service keep their first set-up's state for the whole
#: timed phase (a set-up clears the process-wide caches their operations
#: read, and starts a cold store); their other set-ups run after it, timed
#: and discarded.
SETUPS = 5
CONFIG = EngineConfig(on_hard="exact", workers=1)

#: A shared host may run the same pure-Python code at different speeds from
#: one second to the next (the 2-CPU host the bounds were set on has two
#: speeds about a half apart, each held for up to tens of seconds), so a
#: run's wall times follow the host more than the program.  Every timed
#: interval is therefore also reported at a reference speed: its wall time
#: scaled by ``REFERENCE_S`` over the mean time of the reference loop run
#: just before and just after it.
REFERENCE_LOOP = 100_000
REFERENCE_S = 8e-3


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


class Clock:
    """Times one interval, with the reference loop on either side of it."""

    def __init__(self):
        self.before = reference_loop()
        self.start = time.perf_counter()

    def stop(self) -> "tuple[float, float]":
        """The wall time, and the factor that scales it to the reference speed."""
        wall = time.perf_counter() - self.start
        return wall, 2 * REFERENCE_S / (self.before + reference_loop())


@dataclass
class Kind:
    """Accounting of one operation kind: latencies at the reference speed,
    and as measured on the wall clock."""

    latencies: "list[float]" = field(default_factory=list)
    wall: "list[float]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)

    def add(self, wall: float, factor: float) -> None:
        self.wall.append(wall)
        self.latencies.append(wall * factor)


class Recorder:
    """Times operations, counts attempts and failures per kind.

    ``busy_s`` is the timed phase's wall time, which decides when the run
    ends; ``timed_s`` is the same at the reference speed.
    """

    def __init__(self, tracer: "Tracer | None", seconds: float):
        self.tracer = tracer
        self.seconds = seconds
        self.kinds: "dict[str, Kind]" = {}
        self.busy_s = 0.0
        self.timed_s = 0.0
        self.ops = 0
        self.layer: Counter = Counter()
        self.setup_times: "list[float]" = []

    def segment_over(self) -> bool:
        """Whether the current segment's timed operations are done (asked
        between rounds: a fresh set-up is due)."""
        return self.busy_s >= len(self.setup_times) * self.seconds / SETUPS

    def setup(self, setup):
        """Run ``setup`` once, timed; return its state."""
        state, seconds = timed_setup(setup)
        self.setup_times.append(seconds)
        settle()
        return state

    def extra_setups(self, setup) -> None:
        """The remaining set-ups of a warm workload, after its timed phase."""
        while len(self.setup_times) < SETUPS:
            self.setup_times.append(timed_setup(setup)[1])

    def kind(self, name: str) -> Kind:
        return self.kinds.setdefault(name, Kind())

    def add_timed(self, wall: float, factor: float) -> None:
        self.busy_s += wall
        self.timed_s += wall * factor

    def run(self, kind: str, operation):
        """One timed operation; ``None`` if it failed with a ``ReproError``."""
        gc.collect()
        stats = self.kind(kind)
        stats.attempted += 1
        token = current_op.set(self.ops)
        self.ops += 1
        clock = Clock()
        if self.tracer is not None:
            self.tracer.active = True
        result = None
        try:
            result = operation()
        except ReproError as error:
            stats.failed += 1
            stats.errors[type(error).__name__] += 1
        finally:
            if self.tracer is not None:
                self.tracer.active = False
            wall, factor = clock.stop()
            self.add_timed(wall, factor)
            current_op.reset(token)
        if result is not None:
            stats.add(wall, factor)
        return result

    def count_route(self, reason: "str | None", patch_stats: "dict | None") -> None:
        """Which rung served a refresh, and how many islands it reused."""
        route = {"incremental-patch": "patch",
                 "out-of-support-reuse": "reuse"}.get(reason, "recompute")
        self.layer[f"workspace.route_{route}"] += 1
        if patch_stats and "islands" in patch_stats:
            self.layer["incremental.islands_reused"] += (
                patch_stats["pairs_hits"] + patch_stats["circuit_hits"])
            self.layer["incremental.islands_recompiled"] += (
                patch_stats["seeded_compiles"] + patch_stats["fresh_compiles"])

    def failure(self, kind: str, error: str) -> None:
        stats = self.kind(kind)
        stats.failed += 1
        stats.errors[error] += 1


def clear_all() -> None:
    clear_caches()
    clear_engine_cache()


def settle() -> None:
    """Collect, then freeze what set-up left, so the per-operation
    ``gc.collect()`` walks only what the operations allocate."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def timed_setup(setup):
    """Run ``setup`` once; its state and its time at the reference speed.

    The caller drops the previous state first, so it is collected here;
    everything alive is then frozen, so the collections inside the set-up
    walk only what it allocates, whatever ran before it.
    """
    settle()
    clock = Clock()
    state = setup()
    wall, factor = clock.stop()
    return state, wall * factor


def check_values(what: str, inst: instances.Instance, pdb, values) -> None:
    """Efficiency, null players, sign and symmetry of one value map."""
    query = instances.QUERIES[inst.query]
    oracles.check_efficiency(what, query, pdb, values)
    if inst.query in instances.QUERY_ATOMS:
        oracles.check_null_and_sign(what, instances.QUERY_ATOMS[inst.query], pdb, values)
    if inst.islands:
        oracles.check_islands(what, values, inst.islands, inst.iso, pdb)
    if inst.reflection is not None:
        oracles.check_reflection(what, values, inst.reflection)


# -- cold-ladder and cold-safe-brute -----------------------------------------------

#: The rungs of each cold workload, and the rung of its untimed warm-up
#: operation.  The circuit rungs and the safe and brute rungs are separate
#: workloads so that a 2x change of either route moves its workload's
#: ``ops_per_s`` by more than the bound.
COLD_RUNGS = {
    "cold-ladder": (("rst34", "rst48", "rst59", "rst66", "chain50", "islands12"),
                    "rst59"),
    "cold-safe-brute": (("hier18", "qneg12"), "qneg12"),
}
#: Rungs cheap enough on the recursive counter to cross-check once per run.
COUNTING_RUNGS = ("rst34", "islands12", "hier18")


def _cold_report(inst: instances.Instance):
    return AttributionSession(instances.QUERIES[inst.query], inst.pdb, CONFIG).report()


def cold_ladder(workload: str, seed: int, rec: Recorder) -> None:
    names, warm_up = COLD_RUNGS[workload]

    def setup():
        clear_all()
        rungs = {inst.name: inst for inst in instances.cold_ladder(seed)}
        _cold_report(rungs[warm_up])    # the untimed warm-up operation
        return [rungs[name] for name in names]

    rungs = rec.setup(setup)
    reference = {}
    for inst in rungs:
        clear_all()
        values = dict(_cold_report(inst).ranking)
        check_values(inst.name, inst, inst.pdb, values)
        query = instances.QUERIES[inst.query]
        if len(inst.pdb.endogenous) <= oracles.BRUTE_LIMIT:
            oracles.check_equal(f"{inst.name} brute", values,
                                oracles.brute_shapley(query, inst.pdb))
        if inst.name in COUNTING_RUNGS:
            oracles.check_equal(f"{inst.name} counting", values,
                                oracles.counting_values(query, inst.pdb))
        reference[inst.name] = values

    order = random.Random(seed * 7919 + 1)
    settle()
    while rec.busy_s < rec.seconds:
        if rec.segment_over():
            rungs = None
            rungs = rec.setup(setup)
        for inst in order.sample(rungs, len(rungs)):
            clear_all()
            report = rec.run(inst.name, lambda: _cold_report(inst))
            if report is None:
                continue
            values = dict(report.ranking)
            oracles.check_equal(inst.name, values, reference[inst.name])
            oracles.check_efficiency(inst.name, instances.QUERIES[inst.query],
                                     inst.pdb, values)


# -- workspace-stream --------------------------------------------------------------

#: Every how many rounds the stream is cross-checked against the counter.
CHECKPOINT_EVERY = 10


def _new_workspace(pdb) -> AttributionWorkspace:
    ws = AttributionWorkspace(pdb, config=CONFIG, store=MemoryStore())
    ws.register("rst", instances.QUERIES["q_RST"])
    ws.register("abc", instances.QUERIES["q_abc"])
    ws.refresh()
    return ws


class _Targets:
    """A seeded island order, walked cyclically.

    Islands are isomorphic and facts of one role symmetric within an island,
    so every seed touches the same number of distinct islands and facts in
    the same pattern: the seed changes which facts, not how much work.
    """

    def __init__(self, rng: random.Random, islands):
        self.islands = [islands[k] for k in rng.sample(range(len(islands)),
                                                       len(islands))]
        self.turn = 0

    def pick(self, role: str) -> Fact:
        n = len(self.islands)
        facts = [f for f in self.islands[self.turn % n] if f.relation == role]
        chosen = facts[(self.turn // n) % len(facts)]
        self.turn += 1
        return chosen


def _plan_round(rng: random.Random, targets: _Targets, round_no: int):
    """One round's units: toggles, flips, out-of-support pairs, a what-if batch."""
    pick = targets.pick
    units = [("toggle", pick(role)) for role in ("R", "S", "S", "T")]
    units += [("flip", pick(role)) for role in ("S", "R")]
    units += [("reuse", fact("Audit", f"probe{round_no:04d}x{k}")) for k in range(2)]
    units.append(("whatif", [pick(role) for role in ("R", "S", "S", "T")]))
    rng.shuffle(units)
    return units


def _pair_ops(unit):
    """The two single-fact deltas of a unit, as functions of a workspace."""
    kind, f = unit
    if kind == "toggle":
        return [lambda ws: ws.remove(f), lambda ws: ws.insert(f)]
    if kind == "flip":
        return [lambda ws: ws.make_exogenous(f), lambda ws: ws.make_endogenous(f)]
    return [lambda ws: ws.insert(f), lambda ws: ws.remove(f)]


def workspace_stream(seed: int, rec: Recorder, traced: bool) -> None:
    def setup():
        clear_all()
        inst, rng = instances.stream_database(seed)
        ws = _new_workspace(inst.pdb)
        warm = inst.islands[0][0]       # the untimed warm-up operation
        ws.remove(warm)
        ws.refresh()
        ws.insert(warm)
        ws.refresh()
        return inst, ws, rng

    inst, ws, rng = rec.setup(setup)
    second = instances.Instance("abc", "q_abc", inst.pdb)
    # A traced run replays every delta on an untraced twin and compares.
    twin = _new_workspace(inst.pdb) if traced else None
    stats_before = ws.store_stats()

    def observe(label, refresh, rankings):
        rst, abc = dict(rankings[0]), dict(rankings[1])
        check_values(label, inst, ws.pdb, rst)
        check_values(label, second, ws.pdb, abc)
        for delta in refresh.deltas:
            rec.count_route(delta.refresh_reason, delta.patch_stats)
        return rst

    def store_delta():
        nonlocal stats_before
        after = ws.store_stats()
        rec.layer["workspace.store_hits"] += after["hits"] - stats_before["hits"]
        rec.layer["workspace.store_misses"] += after["misses"] - stats_before["misses"]
        stats_before = after

    targets = _Targets(rng, inst.islands)
    settle()
    round_no = 0
    while rec.busy_s < rec.seconds:
        stream_check = whatif_check = round_no % CHECKPOINT_EVERY == 0
        for unit in _plan_round(rng, targets, round_no):
            kind = unit[0]
            if kind == "whatif":
                scenarios = [[f"-{f}"] for f in unit[1]]
                batch = rec.run("whatif", lambda: ws.what_if(scenarios, name="rst"))
                store_delta()
                if batch is None:
                    continue
                twin_batch = (twin.what_if(scenarios, name="rst")
                              if twin is not None else None)
                for k, (victim, result) in enumerate(zip(unit[1], batch.results)):
                    hypothetical = ws.pdb.without([victim])
                    values = dict(result.ranking)
                    check_values(f"what-if -{victim}", inst, hypothetical, values)
                    if whatif_check and k == 0:
                        oracles.check_equal(
                            f"what-if -{victim} counting", values,
                            oracles.counting_values(instances.QUERIES["q_RST"],
                                                    hypothetical))
                    if twin_batch is not None:
                        oracles.check_equal("traced what-if", values,
                                            dict(twin_batch.results[k].ranking))
                continue
            for step, apply in enumerate(_pair_ops(unit)):
                def operation():
                    apply(ws)
                    return ws.refresh(), (ws.ranking("rst"), ws.ranking("abc"))
                done = rec.run(kind, operation)
                store_delta()
                if done is None:
                    continue
                rst = observe(f"{kind} {unit[1]} step {step}", *done)
                if twin is not None:
                    apply(twin)
                    twin.refresh()
                    oracles.check_equal("traced refresh", rst, twin.values("rst"))
                if stream_check and kind == "toggle" and step == 0:
                    oracles.check_equal("stream checkpoint", rst, oracles.counting_values(
                        instances.QUERIES["q_RST"], ws.pdb))
                    stream_check = False
        round_no += 1
    oracles.check_equal("end of stream", ws.values("rst"), oracles.counting_values(
        instances.QUERIES["q_RST"], ws.pdb))
    oracles.check_equal("end of stream (q_abc)", ws.values("abc"),
                        oracles.counting_values(instances.QUERIES["q_abc"], ws.pdb))
    rec.extra_setups(setup)


# -- serve-mix ---------------------------------------------------------------------

#: (tenant, query) pairs the attribution requests draw from.
HOT = (("rst34", "q_RST"), ("rst48", "q_RST"), ("islands", "q_RST"),
       ("small", "q_RST"), ("small", "q_hier"))
#: Tenant whose deltas each client sends (one writer per tenant, so a
#: tenant's snapshot is always its base or its base minus one toggled fact).
DELTA_TENANT = ("rst34", "islands")
#: The what-if batch (4 removals, ~0.35 s of executor work) runs on the
#: largest q_RST tenant, in a phase of its own at the end of every round,
#: while the other client sends one attribution request for each q_RST
#: tenant, kind ``attribute_during_whatif``.  The batch outlasts those four
#: reads, so the same reads overlap it in every round: the stall they see
#: shows in their own median and in ``serve.queue_ms``, and does not move
#: the ``attribute`` median from run to run.
WHATIF_TENANT = "rst48"
STALLED = tuple(pair for pair in HOT if pair[1] == "q_RST")
ATTRIBUTE_KINDS = ("attribute", "attribute_during_whatif")
ATTRIBUTES_PER_PAIR = 4
#: Reference states whose values skip the recursive counter (1.5 s at
#: |Dn| = 48); efficiency, null players and sign still check them.  One
#: what-if scenario of ``rst48`` is cross-checked on the counter.
COUNTING_SKIP = ("rst48",)
#: Admission lanes that compute exact values.
EXACT_LANES = ("fast", "pooled")


async def _post(port: int, path: str, payload: dict) -> "tuple[int, dict]":
    """One HTTP/1.1 request on its own connection (the server closes it)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps(payload).encode()
        writer.write(f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     f"Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                     .encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _ranking(entries) -> "dict[Fact, Fraction]":
    return {fact(e["relation"], *e["args"]): Fraction(e["value"]["fraction"])
            for e in entries}


class _Served:
    """A running service behind its HTTP server, with a fresh disk store."""

    def __init__(self, tenants, out_dir: Path):
        self.directory = tempfile.mkdtemp(prefix="store-", dir=out_dir)
        self.service = AttributionService(
            store=DiskStore(self.directory), config=CONFIG,
            policy=AdmissionPolicy(exact_size_limit=256), executor_workers=2)
        for name, inst in tenants.items():
            self.service.register_tenant(name, inst.pdb).register(
                "q", instances.QUERIES["q_RST"])
        self.server = AttributionHTTPServer(self.service, host="127.0.0.1", port=0)

    async def start(self) -> None:
        await self.server.start()
        for tenant in DELTA_TENANT + (WHATIF_TENANT,):
            await _post(self.server.port, "/v1/deltas",
                        {"tenant": tenant, "deltas": []})
        for tenant, query in HOT:       # store priming, the warm-up requests
            await _post(self.server.port, "/v1/attribute",
                        {"tenant": tenant, "query": instances.QUERY_TEXT[query],
                         "allow_degraded": False})

    async def close(self) -> None:
        await self.server.stop()
        self.service.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def _spaced(facts: "list[Fact]", k: int) -> "list[Fact]":
    return [facts[(2 * i + 1) * len(facts) // (2 * k)] for i in range(k)]


def serve_mix(seed: int, rec: Recorder, out_dir: Path) -> None:
    tenants, rng = instances.serve_tenants(seed)
    relevant = {name: sorted(oracles.relevant_facts(instances.QUERY_ATOMS["q_RST"],
                                                    inst.pdb))
                for name, inst in tenants.items()}
    # Targets sit at fixed places of the sorted facts, which every seed
    # sorts alike: the seed renames them, it does not change the work.
    toggles = {tenant: _spaced(relevant[tenant], 2) for tenant in DELTA_TENANT}
    whatifs = _spaced(relevant[WHATIF_TENANT], 4)
    asyncio.run(_serve_mix(rec, out_dir, tenants, rng, toggles, whatifs))


async def _serve_mix(rec, out_dir, tenants, rng, toggles, whatifs):
    # -- reference values of every state a response can be computed on (untraced)
    reference: "dict[tuple, dict[Fact, Fraction]]" = {}
    states = {}

    def add_state(tenant, query, pdb, cross_check):
        inst = instances.Instance(tenant, query, pdb, tenants[tenant].islands,
                                  tenants[tenant].iso)
        clear_all()
        values = AttributionSession(instances.QUERIES[query], pdb, CONFIG).values()
        check_values(f"{tenant} {query}", inst, pdb, values)
        if cross_check:
            oracles.check_equal(f"{tenant} {query} counting", values,
                                oracles.counting_values(instances.QUERIES[query], pdb))
        key = (tenant, query, frozenset(pdb.endogenous))
        reference[key] = values
        states[key] = pdb

    for tenant, query in HOT:
        add_state(tenant, query, tenants[tenant].pdb, tenant not in COUNTING_SKIP)
    for tenant, facts in toggles.items():
        for f in facts:
            add_state(tenant, "q_RST", tenants[tenant].pdb.without([f]), True)
    for k, f in enumerate(whatifs):
        add_state(WHATIF_TENANT, "q_RST", tenants[WHATIF_TENANT].pdb.without([f]),
                  k == 0 or WHATIF_TENANT not in COUNTING_SKIP)

    async def timed_setup():
        settle()
        clock = Clock()
        clear_all()
        served = _Served(tenants, out_dir)
        await served.start()
        wall, factor = clock.stop()
        return served, wall * factor

    served, seconds = await timed_setup()
    rec.setup_times.append(seconds)
    port = served.server.port
    tracer = rec.tracer
    #: (kind, wall latency) of the phase running, scaled when it ends.
    pending: "list[tuple[str, float]]" = []

    def plan(client: int, round_no: int):
        """The mixed phase of one client's round: reads and a toggle pair."""
        units = [[("attribute", pair)] for pair in HOT
                 for _ in range(ATTRIBUTES_PER_PAIR)]
        tenant = DELTA_TENANT[client]
        f = toggles[tenant][round_no % 2]
        units.append([("deltas", (tenant, f"-{f}")), ("deltas", (tenant, f"+{f}"))])
        rng.shuffle(units)
        return [op for unit in units for op in unit]

    def stall_plan():
        """The what-if phase's reads, sent while the batch computes."""
        return [("attribute_during_whatif", pair)
                for pair in rng.sample(STALLED, len(STALLED))]

    async def request(kind, arg):
        if kind in ATTRIBUTE_KINDS:
            tenant, query = arg
            return await _post(port, "/v1/attribute", {
                "tenant": tenant, "query": instances.QUERY_TEXT[query],
                "allow_degraded": False})
        if kind == "deltas":
            return await _post(port, "/v1/deltas",
                               {"tenant": arg[0], "deltas": [arg[1]]})
        return await _post(port, "/v1/what-if", {
            "tenant": WHATIF_TENANT, "name": "q",
            "scenarios": [[f"-{f}"] for f in whatifs]})

    async def client(ops, responses):
        for kind, arg in ops:
            token = current_op.set(rec.ops)
            rec.ops += 1
            rec.kind(kind).attempted += 1
            start = time.perf_counter()
            status, payload = await request(kind, arg)
            latency = time.perf_counter() - start
            current_op.reset(token)
            if status != 200:
                rec.failure(kind, f"HTTP {status} {payload.get('error')}")
            elif kind in ATTRIBUTE_KINDS and payload["lane"] not in EXACT_LANES:
                rec.failure(kind, f"lane {payload['lane']}")
            else:
                pending.append((kind, latency))
                responses.append((kind, arg, payload))
            rec.layer["serve.round_trip_s"] += latency

    def check(kind, arg, payload):
        if kind in ATTRIBUTE_KINDS:
            rec.layer["serve.coalesced"] += bool(payload["coalesced"])
            answers = [(arg, _ranking(payload["report"]["ranking"]))]
        elif kind == "deltas":
            delta = payload["refresh"]["deltas"][0]
            rec.count_route(delta.get("refresh_reason"), delta.get("patch_stats"))
            answers = [((arg[0], "q_RST"), _ranking(delta["ranking"]))]
        else:
            answers = [((WHATIF_TENANT, "q_RST"), _ranking(result["ranking"]))
                       for result in payload["results"]]
        for (tenant, query), values in answers:
            key = (tenant, query, frozenset(values))
            if key not in reference:
                raise oracles.OracleError(f"served {kind} {arg}: values over an "
                                          "unknown snapshot")
            oracles.check_equal(f"served {kind} {arg}", values, reference[key])
            oracles.check_efficiency(f"served {kind} {arg}",
                                     instances.QUERIES[query], states[key], values)

    async def phase(*clients):
        """Run the clients together; the phase is timed between two runs of
        the reference loop, while the service is idle."""
        clock = Clock()
        if tracer is not None:
            tracer.active = True
        await asyncio.gather(*clients)
        if tracer is not None:
            tracer.active = False
        wall, factor = clock.stop()
        rec.add_timed(wall, factor)
        for kind, latency in pending:
            rec.kind(kind).add(latency, factor)
        pending.clear()

    settle()
    round_no = 0
    try:
        while rec.busy_s < rec.seconds:
            gc.collect()
            before = served.service.store_stats()
            responses: list = []
            await phase(client(plan(0, round_no), responses),
                        client(plan(1, round_no), responses))
            await phase(client(stall_plan(), responses),
                        client([("whatif", None)], responses))
            after = served.service.store_stats()
            rec.layer["workspace.store_hits"] += after["hits"] - before["hits"]
            rec.layer["workspace.store_misses"] += after["misses"] - before["misses"]
            for kind, arg, payload in responses:
                check(kind, arg, payload)
            round_no += 1
    finally:
        await served.close()
    while len(rec.setup_times) < SETUPS:
        other, seconds = await timed_setup()
        rec.setup_times.append(seconds)
        await other.close()
