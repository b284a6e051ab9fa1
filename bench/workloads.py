"""The four benchmark workloads and the checks made on their outputs.

Each workload is a closed loop over rounds: one instance starts only after
the previous one ends, and every round runs the same operations on inputs
drawn afresh from (workload, seed, round index). A run repeats whole rounds
until its time is up. The program only ever receives the generated graphs
(or, for the ensemble, the seeded configuration its harness expands).

Program calls go through module attributes (`solver.run_mbea`, not a name
imported into this file) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import multiprocessing
import os
import random
import statistics
import time
from dataclasses import dataclass, field

from mbea import cli, experiments, graphs, oracle, solver, space

import reference as ref
from gauge import Gauge


class CheckFailed(Exception):
    """A program output disagrees with a reference computation."""


class KnownFault(Exception):
    """The output shows a known fault of the program on a fixed input: the
    instance counts as failed, but not as a wrong answer."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@contextlib.contextmanager
def call_timer(module, name: str, sink: list):
    """Append the wall time of each call of module.<name> to sink while active."""
    original = getattr(module, name)

    @functools.wraps(original)
    def timed_call(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)

    setattr(module, name, timed_call)
    try:
        yield sink
    finally:
        setattr(module, name, original)


@dataclass
class Tally:
    """What one run did: instances, failures, timings, covers and trace sums.
    busy_s, call_s and solve_s are in reference-speed seconds (see Gauge)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)
    prep_s: list = field(default_factory=list)
    busy_s: float = 0.0
    completed: int = 0
    call_s: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    x: list = field(default_factory=list)
    cover_total: int = 0
    ref_total: float = 0.0
    # trace mode only
    traced_s: float = 0.0
    untraced_s: float = 0.0
    traced_rounds: int = 0
    pool_work_s: float = 0.0
    pool_capacity_s: float = 0.0

    def note(self, message: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(message)

    @contextlib.contextmanager
    def instance(self, label: str):
        """Count one attempted instance; a raise in its program calls fails it."""
        self.attempted += 1
        try:
            yield
        except CheckFailed as exc:
            self.failed += 1
            self.wrong += 1
            self.note(f"{label}: wrong output: {exc}")
        except Exception as exc:  # a failing instance is counted and the run goes on
            self.failed += 1
            self.note(f"{label}: {type(exc).__name__}: {exc}")

    def done(self, busy: float, call: float | None, solve, factor: float) -> None:
        """One instance finished: its program calls took `busy` seconds, of
        which `call` in the workload's main call and `solve` in run_mbea;
        `factor` converts them to reference-speed seconds."""
        self.completed += 1
        self.busy_s += busy * factor
        if call is not None:
            self.call_s.append(call * factor)
        self.solve_s.extend(t * factor for t in solve)

    def cover(self, cover: int, n: int, reference: float) -> None:
        self.x.append(cover / n)
        self.cover_total += cover
        self.ref_total += reference

    def reject(self, label: str, message: str) -> None:
        """An output of instance `label` failed its check."""
        self.failed += 1
        self.wrong += 1
        self.note(f"{label}: wrong output: {message}")


def check_cover(edges, spins, size: int, label: str) -> None:
    """An emitted assignment is a vertex cover of the stated size."""
    covered = {i for i, s in enumerate(spins) if s == -1}
    check(len(covered) == size, f"{label}: assignment covers {len(covered)} nodes, expected {size}")
    check(ref.is_cover(edges, covered), f"{label}: assignment leaves an edge uncovered")


def check_lower_bounds(g, cover: int, label: str) -> tuple[int, int, list[int]]:
    """ceil(LP) <= cover, and cover == pendant-removal count when core-free.
    Returns ceil(LP), the pendant-removal count and the core it leaves."""
    lp = math.ceil(ref.lp_cover_bound(g.n, g.edges) - 1e-9)
    check(lp <= cover, f"{label}: cover {cover} below the LP bound {lp}")
    ks, core = ref.karp_sipser(g.n, g.edges)
    if not core:
        check(cover == ks, f"{label}: core-free cover {cover} != pendant-removal count {ks}")
    return lp, ks, core


def check_weigt_hartmann(tally: Tally, samples: dict, n: int) -> None:
    """Mean cover fraction per mean degree c < e against the closed form."""
    for c, xs in sorted(samples.items()):
        if not xs or c >= math.e:
            continue
        theory = ref.weigt_hartmann_x(c)
        mean = sum(xs) / len(xs)
        tol = ref.weigt_hartmann_tolerance(xs, n)
        if abs(mean - theory) > tol:
            tally.reject(
                f"c={c}", f"mean cover fraction {mean:.5f} is {mean - theory:+.5f} from "
                f"Weigt-Hartmann {theory:.5f}, tolerance {tol:.5f} over {len(xs)} instances"
            )


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.gauge = Gauge()
        self._checks: list = []

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def prepare(self, r: int):
        """Inputs of round r (timed as set-up)."""
        raise NotImplementedError

    def run(self, inputs, tally: Tally, traced: bool) -> float:
        """One pass of program calls over a round, queueing the checks of its
        outputs; returns the seconds spent in program calls."""
        raise NotImplementedError

    def later(self, label: str, fn, *args) -> None:
        """Queue fn(tally, *args) as the check of instance `label`."""
        self._checks.append((label, fn, args))

    def check_round(self, tally: Tally) -> None:
        """Make the checks queued by run(); a failed check fails its instance."""
        checks, self._checks = self._checks, []
        for label, fn, args in checks:
            try:
                fn(tally, *args)
            except CheckFailed as exc:
                tally.reject(label, str(exc))
            except KnownFault as exc:
                tally.failed += 1
                tally.note(f"{label}: known fault: {exc}")
            except Exception as exc:  # output too malformed to check is wrong too
                tally.reject(label, f"{type(exc).__name__}: {exc}")

    def finish(self, tally: Tally) -> None:
        """Checks that need the whole run."""

    def trace_round(self, inputs, tally: Tally, tracer, r: int) -> None:
        """An untraced and a traced pass over the same round, in alternating order."""
        for traced in (False, True) if r % 2 == 0 else (True, False):
            if traced:
                with tracer:
                    tally.traced_s += self.run(inputs, tally, traced=True)
                tally.traced_rounds += 1
            else:
                tally.untraced_s += self.run(inputs, tally, traced=False)
            self.check_round(tally)


class ErEnsemble(Workload):
    """Criterion 4 in miniature: one ensemble of G(N, M) instances at n=2000
    over c = 1..10 per round, through the harness and its worker pool."""

    name = "er-ensemble"

    def __init__(self, seed, workdir, n=2000, degrees=tuple(float(c) for c in range(1, 11)), instances=1):
        super().__init__(seed, workdir)
        self.n = n
        self.degrees = degrees
        self.instances = instances
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.samples: dict[float, list[float]] = {}

    def prepare(self, r):
        return experiments.ExperimentConfig(
            c_grid=self.degrees,
            n_grid=(self.n,),
            instances=self.instances,
            seed=self.rng(r).getrandbits(63),
            workers=self.workers,
        )

    def _pooled(self, cfg, tally: Tally):
        """Run the ensemble on the pool; returns (rows, wall seconds, summed
        instance seconds), or None when it raised."""
        tasks = len(cfg.c_grid) * len(cfg.n_grid) * cfg.instances
        label = f"ensemble seed={cfg.seed}"
        tally.attempted += tasks
        probe = InstanceProbe(self.gauge)
        try:
            with probe:
                rows, wall = timed(experiments.run_backbone_fractions, cfg)
        except Exception as exc:  # the pool fails the whole round
            tally.failed += tasks
            tally.note(f"{label}: {type(exc).__name__}: {exc}")
            return None
        records = probe.drain()
        for _, _, inst_s, solve_s, factor in records:
            tally.call_s.append(inst_s * factor)
            tally.solve_s.append(solve_s * factor)
        if records:  # the pool's wall time, at the workers' median speed
            tally.busy_s += wall * statistics.median(rec[4] for rec in records)
            tally.completed += tasks
        for record in records:
            task = record[0]
            self.later(f"ensemble c={task[0]} seed={task[2]}", self._check_instance, record)
        self.later(label, self._check_report, rows, records, tasks)
        return rows, wall, sum(rec[2] for rec in records)

    def _check_instance(self, tally, record) -> None:
        (c, n, seed, _, _), out, _, _, _ = record
        x = out[0]
        cover = round(x * n)
        check(abs(x * n - cover) < 1e-6, f"x*n = {x * n} is not a cover size")
        check(abs(out[1] + out[2] + out[3] - 1) < 1e-9, "state fractions do not sum to 1")
        g = graphs.generate_er(graphs.GenConfig(n=n, mean_degree=c, seed=seed))
        lp, _, core = check_lower_bounds(g, cover, f"c={c}")
        check(out[4] == (not core), f"core_empty={out[4]}, pendant removal leaves {len(core)} core nodes")
        tally.cover(cover, n, lp)
        self.samples.setdefault(c, []).append(x)

    @staticmethod
    def _check_report(tally, rows, records, tasks) -> None:
        check(len(records) == tasks, f"{len(records)} instance records for {tasks} tasks")
        per_c: dict[float, list] = {}
        for task, out, *_ in records:
            per_c.setdefault(task[0], []).append(out[0])
        for row in rows:
            xs = per_c.get(row.c, [])
            check(len(xs) == row.instances and abs(row.x_mean - sum(xs) / len(xs)) <= 1e-12,
                  f"report row c={row.c} disagrees with its instances")

    def run(self, cfg, tally, traced):
        out = self._pooled(cfg, tally)
        return out[1] if out else 0.0

    def trace_round(self, cfg, tally, tracer, r):
        """The pooled run (untraced), then its single-process replay traced;
        both must give the same report byte for byte."""
        pooled = self._pooled(cfg, tally)
        self.check_round(tally)
        if pooled is None:
            return
        rows, wall, work = pooled
        tally.untraced_s += work
        tally.pool_work_s += work
        tally.pool_capacity_s += cfg.workers * wall
        replay = dataclasses.replace(cfg, workers=1)
        tasks = len(cfg.c_grid) * len(cfg.n_grid) * cfg.instances
        tally.attempted += tasks
        try:
            with tracer:
                replayed, seconds = timed(experiments.run_backbone_fractions, replay)
        except Exception as exc:  # counted like any failing instance
            tally.failed += tasks
            tally.note(f"replay seed={cfg.seed}: {type(exc).__name__}: {exc}")
            return
        tally.traced_s += seconds
        tally.traced_rounds += 1
        if experiments.rows_to_csv(replayed) != experiments.rows_to_csv(rows):
            tally.failed += tasks
            tally.wrong += tasks
            tally.note(f"replay seed={cfg.seed}: report differs from the pooled run")

    def finish(self, tally):
        check_weigt_hartmann(tally, self.samples, self.n)


class InstanceProbe:
    """Times each ensemble instance inside the harness's pool workers.

    Replaces mbea.experiments._run_instance, and the run_mbea it calls, with
    timing wrappers before the pool forks, so the workers inherit them; each
    worker sends (task, outcome, instance seconds, run_mbea seconds, speed
    factor) back over a pipe, the factor from gauge sweeps made in the worker
    just before and after the instance. This relies on the fork start method
    the harness gets by default on Linux: under spawn the workers would send
    nothing, and the round fails its record count check.
    """

    def __init__(self, gauge: Gauge):
        self.gauge = gauge

    def __enter__(self):
        self.queue = queue = multiprocessing.SimpleQueue()
        self._saved = run_instance, run_mbea = experiments._run_instance, experiments.run_mbea
        last_solve = [0.0]
        gauge = self.gauge

        def timed_solve(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return run_mbea(*args, **kwargs)
            finally:
                last_solve[0] = time.perf_counter() - t0

        @functools.wraps(run_instance)  # pickled by name as mbea.experiments._run_instance
        def probe(task):
            gauge.factor()
            t0 = time.perf_counter()
            out = run_instance(task)
            seconds = time.perf_counter() - t0
            queue.put((task, out, seconds, last_solve[0], gauge.factor()))
            return out

        experiments._run_instance, experiments.run_mbea = probe, timed_solve
        return self

    def __exit__(self, *exc):
        experiments._run_instance, experiments.run_mbea = self._saved

    def drain(self) -> list:
        """Every record sent so far; the pool has returned, so all are in the pipe."""
        records = []
        while not self.queue.empty():
            records.append(self.queue.get())
        self.queue.close()
        return records


class Chains(Workload):
    """Paths and cycles, even and odd, in natural labelling: every node stays
    unfrozen on one long alternating chain, the closure sweep's worst case."""

    name = "chains"

    def __init__(self, seed, workdir, path_n=600, cycle_n=400):
        super().__init__(seed, workdir)
        self.sizes = (("path", path_n - path_n % 2), ("cycle", cycle_n - cycle_n % 2))

    def prepare(self, r):
        rng = self.rng(r)
        out = []
        for kind, base in self.sizes:
            make = graphs.path_graph if kind == "path" else graphs.cycle_graph
            even = base + 2 * rng.randint(-2, 2)
            for n in (even, even + 1):
                out.append((kind, n, make(n)))
        return out

    def run(self, inputs, tally, traced):
        busy = 0.0
        for kind, n, g in inputs:
            label = f"{kind} n={n}"
            with tally.instance(label):
                t0 = time.perf_counter()
                res, solve_s = timed(solver.run_mbea, g)
                assignment = solver.cover_from_rsg(res)
                represented = res.rsg.enumerate_assignments()
                call_s = time.perf_counter() - t0
                tally.done(call_s, call_s, [solve_s], self.gauge.factor())
                self.later(label, self._check, label, kind, g, res.cover_size, assignment, represented)
                busy += call_s
        return busy

    @staticmethod
    def _check(tally, label, kind, g, cover_size, assignment, represented) -> None:
        cover, count = ref.chain_expectation(kind, g.n)
        check(cover_size == cover, f"cover {cover_size}, closed form {cover}")
        check_cover(g.edges, assignment.spin, cover, label)
        if count is not None:
            check(len(represented.assignments) == count,
                  f"{len(represented.assignments)} represented covers, closed form {count}")
        check(bool(represented.assignments), "no represented cover")
        for a in represented.assignments:
            check_cover(g.edges, a.spin, cover, label)
        check_lower_bounds(g, cover, label)
        tally.cover(cover_size, g.n, cover)


# G(N,M) at n=24, c=2, seed 3731 is core-free, and its represented space holds
# 19 of its 21 minimum covers: criterion 1 fails on it. Random core-free
# instances fail so about once in 2000 (seeds 1237 and 3731 of the first 4000
# core-free ones), too rarely to keep as a steady count; this one runs in every
# round instead, fails every time, and is counted in `failed` as a known fault.
CORE_FREE_FAULT = graphs.GenConfig(n=24, mean_degree=2.0, seed=3731)


class OracleExact(Workload):
    """Small ER instances solved by the solver and by the exact oracle, plus
    the fixed core-free instance whose whole represented space is compared
    with the oracle's enumeration (criterion 1)."""

    name = "oracle-exact"
    POINTS = ((60, 4.0), (100, 6.0), (110, 6.0), (120, 6.0), (100, 7.0), (110, 7.0))
    ILP_MAX_N = 60  # HiGHS takes milliseconds here and seconds at n=150, c=8

    def __init__(self, seed, workdir, points=POINTS):
        super().__init__(seed, workdir)
        self.points = points
        self.fault_graph = graphs.generate_er(CORE_FREE_FAULT)
        self.ilp_pending: list = []

    def prepare(self, r):
        rng = self.rng(r)
        return [
            graphs.generate_er(graphs.GenConfig(n=n, mean_degree=c, seed=rng.getrandbits(63)))
            for n, c in self.points
        ]

    def run(self, inputs, tally, traced):
        busy = 0.0
        for g in inputs:
            label = f"er n={g.n} m={g.m}"
            with tally.instance(label):
                res, solve_s = timed(solver.run_mbea, g)
                assignment, cover_s = timed(solver.cover_from_rsg, res)
                exact, exact_s = timed(oracle.exact_min_cover, g)
                tally.done(solve_s + cover_s + exact_s, exact_s, [solve_s], self.gauge.factor())
                self.later(label, self._check_er, label, g, res.cover_size, assignment, exact)
                busy += solve_s + cover_s + exact_s
        g = self.fault_graph
        label = f"core-free n={g.n} m={g.m}"
        with tally.instance(label):
            self.gauge.factor()
            t0 = time.perf_counter()
            res, solve_s = timed(solver.run_mbea, g)
            mine = res.rsg.enumerate_assignments()
            true = oracle.enumerate_min_covers(g, budget=g.n)
            diff = space.diff_spaces(mine, true)
            call_s = time.perf_counter() - t0
            tally.done(call_s, None, [solve_s], self.gauge.factor())
            self.later(label, self._check_space, label, g, res.cover_size, mine, true, diff)
            busy += call_s
        return busy

    def _check_er(self, tally, label, g, cover_size, assignment, exact) -> None:
        check(exact <= cover_size, f"exact {exact} above the solver's {cover_size}")
        check_lower_bounds(g, exact, label)
        check_cover(g.edges, assignment.spin, cover_size, label)
        if g.n <= self.ILP_MAX_N:
            self.ilp_pending.append((label, g.n, g.edges, exact))
        tally.cover(cover_size, g.n, exact)

    @staticmethod
    def _check_space(tally, label, g, cover_size, mine, true, diff) -> None:
        ks, core = ref.karp_sipser(g.n, g.edges)
        check(not core, "instance has a core")
        check(cover_size == true.min_cover_size == ks,
              f"cover {cover_size}, oracle {true.min_cover_size}, pendant removal {ks}")
        for a in mine.assignments + true.assignments:
            check_cover(g.edges, a.spin, ks, label)
        mine_set = {a.covered() for a in mine.assignments}
        true_set = {a.covered() for a in true.assignments}
        check(diff.equal == (mine_set == true_set) and set(diff.missing) == true_set - mine_set
              and set(diff.extra) == mine_set - true_set, "diff_spaces misreports the two sets")
        tally.cover(cover_size, g.n, ks)
        if not diff.equal:
            check(diff.subset, f"{len(diff.extra)} represented covers are not minimum covers")
            raise KnownFault(
                f"represented space holds {len(mine_set)} of the {len(true_set)} minimum covers (criterion 1)"
            )

    def finish(self, tally):
        g = self.fault_graph
        pending = self.ilp_pending + [(f"core-free n={g.n}", g.n, g.edges, ref.karp_sipser(g.n, g.edges)[0])]
        for label, n, edges, exact in pending:
            ilp = ref.ilp_min_cover(n, edges)
            if ilp != exact:
                tally.reject(label, f"exact minimum {exact}, HiGHS ILP {ilp}")


class SparseCli(Workload):
    """ER below c = e at n = 20000, each instance through `mbea solve
    <edges> --json-out <file>` run in-process via cli.main."""

    name = "sparse-cli"

    def __init__(self, seed, workdir, n=20000, degrees=(1.0, 1.25, 1.5)):
        super().__init__(seed, workdir)
        self.n = n
        self.degrees = degrees
        self.samples: dict[float, list[float]] = {}
        self.core_pending: list = []

    def prepare(self, r):
        rng = self.rng(r)
        out = []
        for i, c in enumerate(self.degrees):
            g = graphs.generate_er(graphs.GenConfig(n=self.n, mean_degree=c, seed=rng.getrandbits(63)))
            path = os.path.join(self.workdir, f"g{i}.edges")
            with open(path, "w") as f:
                f.write(graphs.write_edge_list(g))
            out.append((c, g, path, os.path.join(self.workdir, f"g{i}.json")))
        return out

    def run(self, inputs, tally, traced):
        busy = 0.0
        for c, g, path, json_out in inputs:
            label = f"cli n={g.n} c={c}"
            with tally.instance(label):
                stdout = io.StringIO()
                solves: list = []
                timer = contextlib.nullcontext() if traced else call_timer(cli, "run_mbea", solves)
                with timer, contextlib.redirect_stdout(stdout):
                    code, call_s = timed(cli.main, ["solve", path, "--json-out", json_out])
                check(code == 0, f"exit code {code}")
                tally.done(call_s, call_s, solves, self.gauge.factor())
                self.later(label, self._check, label, c, g, stdout.getvalue(), json_out)
                busy += call_s
        return busy

    def _check(self, tally, label, c, g, text: str, json_out: str) -> None:
        """Printed summary and exported RSG JSON agree with the graph, each
        other and the reference bounds."""
        lines = text.splitlines()
        check(len(lines) >= 2 and lines[0].startswith("cover_size "), f"unexpected output {lines[:2]}")
        cover = int(lines[0].split()[1])
        cases = dict(item.split(":") for item in lines[1].split()[1:])
        check(sum(int(v) for v in cases.values()) == g.n, "case counts do not sum to n")
        with open(json_out) as f:
            doc = json.load(f)
        nodes, edges = doc["nodes"], doc["edges"]
        check(doc["n"] == g.n and len(nodes) == g.n, "JSON node count")
        check([(e["u"], e["v"]) for e in edges] == list(g.edges), "JSON edges differ from the input")
        check(all(nd["active"] for nd in nodes), "inactive node after the solve")
        state = [nd["state"] for nd in nodes]
        for e in edges:
            pair = {state[e["u"]], state[e["v"]]}
            check(pair != {"pos"}, f"edge ({e['u']},{e['v']}) has two uncovered endpoints")
            if e["kind"] == "double":
                check(pair in ({"unfrozen"}, {"pos", "neg"}), f"double edge with states {pair}")
        neg = state.count("neg")
        check(neg <= cover <= neg + state.count("unfrozen"), f"cover {cover} outside the frozen bounds")
        _, ks, core = check_lower_bounds(g, cover, label)
        self.samples.setdefault(c, []).append(cover / g.n)
        if not core:
            tally.cover(cover, g.n, ks)
            return
        index = {u: i for i, u in enumerate(core)}
        core_edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
        self.core_pending.append((label, cover, ks, len(core), core_edges, g.n))

    def finish(self, tally):
        for label, cover, ks, core_n, core_edges, n in self.core_pending:
            exact = ks + ref.ilp_min_cover(core_n, core_edges)
            if cover < exact:
                tally.reject(label, f"cover {cover} below the exact minimum {exact}")
            else:
                tally.cover(cover, n, exact)
        check_weigt_hartmann(tally, self.samples, self.n)


WORKLOADS = {w.name: w for w in (ErEnsemble, Chains, OracleExact, SparseCli)}
