"""The six end-to-end workloads (names are final; later issues cite them).

Every workload is a closed loop: a driver thread issues its next op only
after the previous one returned, through ``PPerfGridClient`` over the
in-process loopback transport (real SOAP bytes, real parsing, real
dispatch).  Five workloads use one driver; ``concurrent_fanout`` uses
two, the core count of the machine the suite was sized on.

All data and op sequences derive from the seed.  Datasets are *shape
stable*: the seed moves the values, never the number of executions that
qualify for a predicate, the planner's mode choice, or the row counts —
otherwise two seeds would measure two different workloads and no bound
could hold across them.  Synthetic values are multiples of 1/8, so sums
are exact in any order and result digests compare byte for byte.

Plan-cache misses are forced by a varying numeric literal in the query
text, chosen so that every literal selects the same rows.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import re
import tempfile
import time

from repro.core.client import PPerfGridClient
from repro.core.prcache import NullCache
from repro.core.semantic import UNDEFINED_TYPE, PerformanceResult
from repro.core.session import PPerfGridSite, SiteConfig
from repro.datastores.generators.hpl import generate_hpl
from repro.datastores.generators.presta import generate_presta
from repro.datastores.generators.smg98 import generate_smg98
from repro.datastores.textfiles import TextFileStore
from repro.experiments.common import TestGrid, build_synthetic_grid
from repro.fedquery import naive_query
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.mapping.rdbms import HplRdbmsWrapper, Smg98RdbmsWrapper
from repro.mapping.textfile import PrestaTextWrapper
from repro.ogsi.container import GridEnvironment
from repro.uddi.proxy import UddiClient
from repro.uddi.registry_server import UddiRegistryServer

from tracing import SpanRecorder, TimedDatabase, TimingTransport, Tracer

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
FED_AUTHORITY = "fed.pdx.edu:9090"

#: the public surface the suite is allowed to lean on; checked up front
#: so a simplification PR that drops one fails fast with its name
SURFACE = (
    (PPerfGridClient, (
        "bind", "query", "query_stream", "explain", "create_view", "get_view",
        "subscribe_view", "view_stats", "coherence_stats", "use_federation",
        "register_local_wrapper",
    )),
    (GridEnvironment, ("transport", "recorder", "containers", "close")),
    (TestGrid, ("deploy_federation", "execution_service", "bind")),
)


def check_surface() -> None:
    probe = GridEnvironment()
    for owner, names in SURFACE:
        target = probe if owner is GridEnvironment else owner
        for name in names:
            if not hasattr(target, name):
                raise SystemExit(
                    f"benchmarks/e2e: {owner.__name__}.{name} is gone; "
                    "the benchmark depends on it"
                )


def digest(packed: list[str]) -> tuple[int, str]:
    """(row count, sha256 of the packed rows) — the unit of verification."""
    sha = hashlib.sha256()
    for record in packed:
        sha.update(record.encode("utf-8"))
        sha.update(b"\n")
    return len(packed), sha.hexdigest()


def rows_digest(rows) -> tuple[int, str]:
    return digest([row.pack() for row in rows])


def rows_close(left, right) -> bool:
    """Same rows in the same order, floats to 1e-9 (SQL aggregates sum
    in store order, the naive oracle in arrival order)."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if a.columns != b.columns:
            return False
        for va, vb in zip(a.values, b.values):
            if isinstance(va, float) or isinstance(vb, float):
                if not math.isclose(float(va), float(vb), rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif va != vb:
                return False
    return True


class OracleMismatch(RuntimeError):
    """The system's warm-up answer disagrees with the independent path."""


def make_environment(tracer: Tracer | None, roles: dict[str, str]) -> GridEnvironment:
    """A fresh environment; traced when *tracer* is given."""
    if tracer is None:
        return GridEnvironment()
    environment = GridEnvironment(recorder=SpanRecorder(tracer))
    # before any container binds: containers and stubs capture the transport
    environment.transport = TimingTransport(environment.transport, tracer, roles)
    return environment


class Workload:
    """Set-up, one op, its verification, and the guards that prove the
    intended path ran.  ``guards`` bounds are (low, high), inclusive.
    Why each workload exists is recorded once, in ``BENCHMARK.json``."""

    name = ""
    drivers = 1
    #: literal used by warm-up ops, outside every timed op's range
    WARM_K = 900_000
    #: ops the set-up itself runs in sequence; timed ops continue after them
    WARM_OPS = 0
    guards: dict[str, tuple[float, float]] = {}
    #: the federated query one op runs; ``{k}`` is the cache-busting literal
    query_text: str | None = None
    #: view workloads: the subscribed replica, and ms samples per op step
    replica = None
    step_ms: dict[str, list[float]] = {}

    def __init__(self, seed: int, tracer: Tracer | None = None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.roles: dict[str, str] = {FED_AUTHORITY: "fed"}
        self.environment: GridEnvironment | None = None
        self.engine = None
        self.grid = None
        self.client: PPerfGridClient | None = None

    # -- lifecycle ---------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def oracle(self) -> None:
        raise NotImplementedError

    def op(self, driver: int, k: int):
        """Run op *k*; returns (result, time the first row was in hand or None)."""
        return self.client.query(self.query_text.format(k=k)), None

    def check(self, driver: int, k: int, result) -> bool:
        """Verify one timed op's result (called outside the op timer)."""
        return rows_digest(result) == self.expected

    def finish(self) -> int:
        """Deferred verification after the window; returns failures found."""
        return 0

    def guard_readings(self) -> dict[str, float]:
        """Guarded figures only the workload can read (lifetime counters)."""
        return {}

    def close(self) -> None:
        if self.environment is not None:
            self.environment.close()
        if self.grid is not None:
            self.grid.cleanup()

    # -- helpers -----------------------------------------------------------
    def local_members(self, wrappers: dict) -> dict:
        """Host-local bindings to *wrappers* (member name -> wrapper): the
        oracle reads the stores without touching the SOAP stack."""
        oracle_client = PPerfGridClient(self.environment)
        members = {}
        for name, wrapper in wrappers.items():
            url = self.grid.sites[name].factory_url
            oracle_client.register_local_wrapper(url, wrapper)
            members[name] = oracle_client.bind(url, name)
        return members

    def member_probe_bindings(self) -> list:
        """Remote bindings to every member Execution (for cacheStats SDEs)."""
        probe = PPerfGridClient(self.environment, self.grid.uddi_gsh)
        executions = []
        for organization in probe.discover_organizations("%"):
            for service in organization.services():
                executions.extend(probe.bind(service).all_executions())
        return executions


# --------------------------------------------------------------- three stores
#: numprocs of the six SMG98 executions, the same for every seed: four
#: qualify for ``numprocs >= 16`` in three groups
SMG98_NUMPROCS = (8, 8, 16, 16, 32, 64)
SMG98_INTERVALS = 300
SMG98_MESSAGES = 150
HPL_EXECUTIONS = 124
PRESTA_EXECUTIONS = 4


def generate_smg98_fixed_shape(seed: int):
    """An SMG98 dataset whose executions have exactly ``SMG98_NUMPROCS``.

    The public generator draws numprocs at random, so the number of
    executions a ``numprocs >= 16`` predicate selects would follow the
    seed.  Generate a pool and keep the first execution of each wanted
    size; retry with a derived seed in the rare pool that lacks one.
    """
    for attempt in range(64):
        pool = generate_smg98(
            seed=seed * 64 + attempt,
            num_executions=4 * len(SMG98_NUMPROCS),
            intervals_per_execution=SMG98_INTERVALS,
            messages_per_execution=SMG98_MESSAGES,
        )
        wanted = list(SMG98_NUMPROCS)
        keep: set[int] = set()
        for execution in pool.executions:
            if execution["numprocs"] in wanted:
                wanted.remove(execution["numprocs"])
                keep.add(execution["execid"])
        if wanted:
            continue
        for table in ("executions", "processes", "intervals", "messages"):
            setattr(pool, table, [r for r in getattr(pool, table) if r["execid"] in keep])
        return pool
    raise RuntimeError(f"no SMG98 pool with numprocs {SMG98_NUMPROCS} for seed {seed}")


class ThreeStoreWorkload(Workload):
    """HPL + SMG98 in minidb, PRESTA-RMA in text files, PR cache off."""

    def build_grid(self) -> None:
        roles = self.roles
        roles.update({
            "hpl.pdx.edu:8080": "member",
            "smg98.pdx.edu:8080": "member",
            "presta.pdx.edu:8080": "member",
        })
        environment = self.environment = make_environment(self.tracer, roles)
        registry = environment.create_container("registry.pdx.edu:9090")
        uddi_gsh = registry.deploy("services/uddi", UddiRegistryServer())
        uddi = UddiClient.connect(environment, uddi_gsh)
        org_key = uddi.publish_organization(
            "Portland State University", "pperfdb@cs.pdx.edu", "e2e benchmark data"
        )

        def site(authority: str, app: str, wrapper) -> PPerfGridSite:
            deployed = PPerfGridSite(
                environment,
                SiteConfig(authority=authority, app_name=app, cache_factory=NullCache),
                wrapper,
            )
            deployed.publish(uddi, org_key, f"{app} store")
            return deployed

        def served(generated):
            return generated if self.tracer is None else TimedDatabase(generated, self.tracer)

        #: the generated databases, untimed, for the oracles
        self.databases = {
            "HPL": generate_hpl(seed=self.seed, num_executions=HPL_EXECUTIONS).to_database(),
            "SMG98": generate_smg98_fixed_shape(self.seed + 1).to_database(),
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        tempdir = tempfile.TemporaryDirectory(prefix="presta-", dir=OUT_DIR)
        generate_presta(
            seed=self.seed + 2, num_executions=PRESTA_EXECUTIONS
        ).write_files(tempdir.name)
        sites = {
            "HPL": site(
                "hpl.pdx.edu:8080", "HPL", HplRdbmsWrapper(served(self.databases["HPL"]))
            ),
            "SMG98": site(
                "smg98.pdx.edu:8080", "SMG98", Smg98RdbmsWrapper(served(self.databases["SMG98"]))
            ),
            "PRESTA-RMA": site(
                "presta.pdx.edu:8080", "PRESTA-RMA",
                PrestaTextWrapper(TextFileStore(tempdir.name)),
            ),
        }
        self.client = PPerfGridClient(environment, uddi_gsh.url())
        self.grid = TestGrid(
            environment=environment,
            uddi=uddi,
            uddi_gsh=uddi_gsh.url(),
            hpl_site=sites["HPL"],
            smg98_site=sites["SMG98"],
            presta_site=sites["PRESTA-RMA"],
            client=self.client,
            scale=None,
            _tempdir=tempdir,
            sites=sites,
        )


class FocusedGetPr(ThreeStoreWorkload):
    """One ``get_pr`` per HPL execution, round-robin (Table 4's shape)."""

    name = "focused_getpr"
    # getTimeStartEnd + getPR
    guards = {"round_trips_per_op": (2.0, 2.0)}

    def setup(self) -> None:
        self.build_grid()
        self.executions = self.grid.bind("HPL").all_executions()
        for execution in self.executions:  # stub pool fill
            execution.get_pr("gflops", ["/Run"])

    def oracle(self) -> None:
        direct = HplRdbmsWrapper(self.databases["HPL"])
        self.expected = []
        for execution in self.executions:
            wrapper = direct.execution(execution.info()["runid"])
            start, end = wrapper.get_time_start_end()
            results = wrapper.get_pr("gflops", ["/Run"], start, end, UNDEFINED_TYPE)
            self.expected.append(digest([pr.pack() for pr in results]))

    def op(self, driver: int, k: int):
        return self.executions[k % len(self.executions)].get_pr("gflops", ["/Run"]), None

    def check(self, driver: int, k: int, result) -> bool:
        return digest([pr.pack() for pr in result]) == self.expected[k % len(self.expected)]


class PushdownAgg(ThreeStoreWorkload):
    """A grouped aggregate pushed into SMG98's 5-table join."""

    name = "pushdown_agg"
    guards = {
        "round_trips_per_op": (10.0, 30.0),
        "received_bytes_per_op": (1.0, 100_000.0),
    }
    query_text = (
        "SELECT mean(time_spent), count(time_spent) FROM SMG98 "
        "WHERE numprocs >= 16 AND value >= -{k}.5 GROUP BY numprocs"
    )

    def setup(self) -> None:
        self.build_grid()
        self.engine = self.grid.deploy_federation(FED_AUTHORITY)
        self.warm_rows = self.client.query(self.query_text.format(k=self.WARM_K))

    def oracle(self) -> None:
        # time_spent is never negative, so every literal selects every row
        members = self.local_members({"SMG98": Smg98RdbmsWrapper(self.databases["SMG98"])})
        reference = naive_query(self.query_text.format(k=0), members)
        if not reference or not rows_close(self.warm_rows, reference):
            raise OracleMismatch(f"{self.name}: planned rows differ from naive_query")
        self.expected = rows_digest(self.warm_rows)


# ------------------------------------------------------------------ synthetic
FOCI = 8


def stratified_values(rng: random.Random, count: int) -> list[float]:
    """*count* multiples of 1/8 spread evenly over [0, 1000), shuffled.

    One value per stratum keeps min, max and histogram — everything the
    cost model reads — the same for every seed.  The first stratum is
    narrowed to [0, 20) and nothing lands in [20, 21), the band the
    fan-out workload's literals move in: every literal is then a
    non-vacuous, satisfiable predicate that selects the same rows.
    """
    width = 1000.0 / count
    values = [int((i + rng.random()) * width * 8) / 8 for i in range(count)]
    values[0] = rng.randrange(160) / 8
    values = [v + 1.0 if 20.0 <= v < 21.0 else v for v in values]
    rng.shuffle(values)
    return values


def synthetic_wrappers(seed: int, members: int, executions: int, rows: int):
    rng = random.Random(seed)
    wrappers = {}
    for m in range(members):
        name = f"M{m:02d}"
        wrappers[name] = InMemoryWrapper(name, [
            InMemoryExecution(
                str(e),
                {"numprocs": str(2 ** (1 + e % 3))},
                [
                    PerformanceResult(
                        "m", f"/rank/{i % FOCI}", "synthetic", float(i), float(i + 1), value
                    )
                    for i, value in enumerate(stratified_values(rng, rows))
                ],
            )
            for e in range(executions)
        ])
    return wrappers


class SyntheticWorkload(Workload):
    """A federation of ``InMemoryWrapper`` members, default PR caching."""

    members = 0
    executions = 0
    rows = 0

    def build_grid(self) -> None:
        self.wrappers = synthetic_wrappers(self.seed, self.members, self.executions, self.rows)
        self.environment = make_environment(self.tracer, self.roles)
        self.grid = build_synthetic_grid(self.wrappers, self.environment)
        for site in self.grid.sites.values():
            self.roles[site.config.authority] = "member"
        self.engine = self.grid.deploy_federation(FED_AUTHORITY)
        self.client = self.grid.client


class RawBulk(SyntheticWorkload):
    """5,120 raw rows per query in one SOAP array."""

    name = "raw_bulk"
    members, executions, rows = 4, 2, 640
    guards = {"round_trips_per_op": (9.0, 40.0)}
    query_text = "SELECT m WHERE value >= -{k}.5"

    def setup(self) -> None:
        self.build_grid()
        self.warm_rows = self.client.query(self.query_text.format(k=self.WARM_K))

    def oracle(self) -> None:
        reference = naive_query(self.query_text.format(k=0), self.local_members(self.wrappers))
        self.expected = rows_digest(reference)
        if self.expected[0] != self.members * self.executions * self.rows:
            raise OracleMismatch(f"{self.name}: oracle returned {self.expected[0]} rows")
        if rows_digest(self.warm_rows) != self.expected:
            raise OracleMismatch(f"{self.name}: bulk rows differ from naive_query")


class RawStream(RawBulk):
    """The same rows drained through ``query_stream``."""

    name = "raw_stream"
    # 8 member cursors x (create + negotiate + 3 chunks + close) and the client's own
    guards = {"round_trips_per_op": (60.0, 120.0)}

    def setup(self) -> None:
        self.build_grid()
        self.warm_rows = list(self.client.query_stream(self.query_text.format(k=self.WARM_K)))

    def oracle(self) -> None:
        super().oracle()
        bulk = self.client.query(self.query_text.format(k=self.WARM_K + 1))
        if rows_digest(bulk) != self.expected:
            raise OracleMismatch(f"{self.name}: streamed and bulk digests differ")

    def op(self, driver: int, k: int):
        stream = self.client.query_stream(self.query_text.format(k=k))
        rows = [next(stream)]
        first_row_at = time.perf_counter()
        rows.extend(stream)
        return rows, first_row_at


class ConcurrentFanout(SyntheticWorkload):
    """Two tenants, unique-text aggregates over 24 small members."""

    name = "concurrent_fanout"
    drivers = 2
    members, executions, rows = 24, 2, 40
    guards = {"round_trips_per_op": (41.0, 200.0)}
    query_text = "SELECT count(m), mean(m) WHERE value >= 20.{k:06d} GROUP BY app"

    def setup(self) -> None:
        self.build_grid()
        self.clients = []
        for _ in range(self.drivers):
            tenant = PPerfGridClient(self.environment, self.grid.uddi_gsh)
            tenant.use_federation(self.grid.fed_gsh)
            self.clients.append(tenant)
        self.warm_rows = [
            tenant.query(self.query_text.format(k=self.WARM_K + index))
            for index, tenant in enumerate(self.clients)
        ]

    def oracle(self) -> None:
        members = self.local_members(self.wrappers)
        low = rows_digest(naive_query(self.query_text.format(k=0), members))
        high = rows_digest(naive_query(self.query_text.format(k=999_999), members))
        if low != high or low[0] != self.members:
            raise OracleMismatch(f"{self.name}: literals do not select the same rows")
        self.expected = low
        if any(rows_digest(rows) != low for rows in self.warm_rows):
            raise OracleMismatch(f"{self.name}: planned rows differ from naive_query")

    def op(self, driver: int, k: int):
        return self.clients[driver].query(self.query_text.format(k=k)), None


class ViewChurn(SyntheticWorkload):
    """Append, ``data_updated``, ``get_view``, invalidated re-query."""

    name = "view_churn"
    members, executions, rows = 3, 16, 200
    guards = {
        "round_trips_per_op": (50.0, 200.0),
        "views.deltas_applied_per_update": (1.0, 1.0),
    }
    query_text = "SELECT count(m), sum(m), mean(m) GROUP BY focus"
    WARM_OPS = 2

    def setup(self) -> None:
        self.build_grid()
        self.view_id = self.client.create_view(self.query_text)
        self.replica = self.client.subscribe_view(self.view_id)
        self.services = {
            (name, execution.exec_id): self.grid.execution_service(name, execution.exec_id)
            for name, wrapper in self.wrappers.items()
            for execution in wrapper.executions_data
        }
        self.update_rng = random.Random(self.seed * 7919 + 1)
        self.updates: list[tuple[str, int, PerformanceResult]] = []
        self.step_ms = {"maintain": [], "get_view": [], "requery": []}
        self.observed: list[tuple] = []
        self.client.query(self.query_text)
        for k in range(self.WARM_OPS):
            self.op(0, k)
        for samples in self.step_ms.values():
            samples.clear()

    def update(self, k: int) -> tuple[str, int, PerformanceResult]:
        """The k-th append; generated in order, so replayable."""
        while len(self.updates) <= k:
            rng = self.update_rng
            self.updates.append((
                f"M{rng.randrange(self.members):02d}",
                rng.randrange(self.executions),
                PerformanceResult(
                    "m", f"/rank/{rng.randrange(FOCI)}", "synthetic",
                    0.0, 1.0, rng.randrange(8000) / 8,
                ),
            ))
        return self.updates[k]

    def oracle(self) -> None:
        # an untouched copy of the seed data; finish() replays the updates on it
        self.replay_wrappers = synthetic_wrappers(
            self.seed, self.members, self.executions, self.rows
        )
        self.replay_members = self.local_members(self.replay_wrappers)

    def op(self, driver: int, k: int):
        app, execution, row = self.update(k)
        self.wrappers[app].executions_data[execution].results.append(row)
        t0 = time.perf_counter()
        self.services[app, str(execution)].data_updated(f"op {k}")
        t1 = time.perf_counter()
        _, view_rows = self.client.get_view(self.view_id)
        t2 = time.perf_counter()
        rows = self.client.query(self.query_text)
        t3 = time.perf_counter()
        self.step_ms["maintain"].append((t1 - t0) * 1e3)
        self.step_ms["get_view"].append((t2 - t1) * 1e3)
        self.step_ms["requery"].append((t3 - t2) * 1e3)
        return (view_rows, rows), t2

    def check(self, driver: int, k: int, result) -> bool:
        view_rows, rows = result
        self.observed.append(
            (k, rows_digest(view_rows), rows_digest(rows), rows_digest(self.replica.rows))
        )
        return True  # judged in finish(), against the replayed oracle

    def finish(self) -> int:
        """View, re-query and pushed replica == naive_query after every update."""
        failures = 0
        by_k = {k: rest for k, *rest in self.observed}
        for k in range(max(by_k, default=-1) + 1):
            app, execution, row = self.updates[k]
            self.replay_wrappers[app].executions_data[execution].results.append(row)
            if k in by_k:
                want = rows_digest(naive_query(self.query_text, self.replay_members))
                failures += any(got != want for got in by_k[k])
        return failures

    def guard_readings(self) -> dict[str, float]:
        applied = self.client.view_stats()["deltasApplied"]
        updates = self.client.coherence_stats()["notifications"]
        return {"views.deltas_applied_per_update": applied / max(1, updates)}

    def close(self) -> None:
        self.replica.close()
        super().close()


WORKLOADS = {
    cls.name: cls
    for cls in (FocusedGetPr, PushdownAgg, RawBulk, RawStream, ConcurrentFanout, ViewChurn)
}

_CACHE_FIELD = re.compile(r"(hits|lookups)\|(\d+)")


def prcache_counts(executions: list) -> tuple[int, int]:
    """(hits, lookups) summed over the members' ``cacheStats`` SDEs."""
    totals = {"hits": 0, "lookups": 0}
    for execution in executions:
        for field, value in _CACHE_FIELD.findall(
            execution.find_service_data("name:cacheStats")
        ):
            totals[field] += int(value)
    return totals["hits"], totals["lookups"]
