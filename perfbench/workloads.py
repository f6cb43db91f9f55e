"""The four workloads, driven from the benchmark's process.

Every workload runs the program in child processes — the library workloads
through ``libwork.py``, the others through the ``repro-streaming`` CLI — so
``setup_s`` can be timed from process launch and ``peak_rss_mb`` is the
largest resident set of any process of the program, never the benchmark's own.
Every gated timing is taken between two reference-chunk timings on the cores
the child runs on and given at reference speed (``speed.py``).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import tracing
from measure import Ledger, Timing
from speed import SpeedProbe, all_cpus

#: launches per run behind ``setup_s`` (reported as their median).
SETUP_REPEATS = 5
#: wall-clock cap on any one child process.
PROCESS_TIMEOUT_S = 150.0
#: the load is sized for two cores: two pool workers, one service worker.
SUITE_JOBS = 2
SERVICE_WORKERS = 1
#: closed-loop poll interval of the service client.  It bounds the
#: resolution of every executed job's time; it sits well under the ~3 ms
#: replay median, and replays are answered on submit without polling.
POLL_INTERVAL_S = 0.001
SERVICE_JOB_TIMEOUT_S = 60.0
#: order of the untraced and traced passes of a traced run: a drift of the
#: machine's speed over the run cancels out of the overhead.
ALTERNATION = ("plain", "traced", "traced", "plain")
#: share of a suite-cli run spent on suite runs; the service takes the rest.
SUITE_SHARE = 0.8


@dataclass
class Report:
    """What one workload run measured."""

    metrics: dict[str, float]
    #: human-readable lines: the workload's own named metrics, with units.
    details: list[str] = field(default_factory=list)
    ledger: Ledger = field(default_factory=Ledger)


@dataclass
class Context:
    root: Path
    tmp: Path
    seed: int
    seconds: float
    trace: bool

    @property
    def bench_dir(self) -> Path:
        return Path(__file__).resolve().parent

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        # the CLI's default cache lives in the user's home; keep it in the checkout
        env["REPRO_CACHE_DIR"] = str(self.tmp / "default-cache")
        return env

    def cli(self, *args: str, trace_dir: Path | None = None) -> list[str]:
        if trace_dir is None:
            return [sys.executable, "-m", "repro", *args]
        return [
            sys.executable, str(self.bench_dir / "tracedcli.py"),
            "--trace-dir", str(trace_dir), "--", *args,
        ]

    def libwork(self, *args: str) -> list[str]:
        return [sys.executable, str(self.bench_dir / "libwork.py"), *args]

    def fresh_dir(self, name: str) -> Path:
        path = self.tmp / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def _stop(process: subprocess.Popen) -> None:
    """Kill the child's whole process group (pool workers too), then reap."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


class _Ready:
    """``done(wait)`` of :meth:`SpeedProbe.sample_until`: waits at most *wait*
    for *source* to turn readable — a child's stdout pipe, or a pidfd, which
    turns readable when its process exits — and records when it did."""

    def __init__(self, source, deadline: float):
        self.source, self.deadline, self.at = source, deadline, None

    def __call__(self, wait: float) -> bool:
        if select.select([self.source], [], [], wait)[0]:
            self.at = time.perf_counter()
            return True
        if time.perf_counter() > self.deadline:
            raise TimeoutError(f"no reply within {PROCESS_TIMEOUT_S:g} s")
        return False


def run_program(ctx: Context, argv: list[str], ledger: Ledger, what: str, probe=None):
    """Run a child to completion: ``(seconds, stdout)``, or ``None`` on failure.

    With a :class:`SpeedProbe` the child runs on the probe's cores, their
    speed is sampled while it runs, and its seconds are at reference speed."""
    samples = [probe.sample()] if probe else []
    with tempfile.TemporaryFile("w+", dir=ctx.tmp) as out, tempfile.TemporaryFile("w+", dir=ctx.tmp) as err:
        start = time.perf_counter()
        process = subprocess.Popen(
            argv, cwd=ctx.root, env=ctx.env(), stdout=out, stderr=err, text=True,
            start_new_session=True, preexec_fn=probe.pin if probe else None,
        )
        exited = _Ready(os.pidfd_open(process.pid), start + PROCESS_TIMEOUT_S)
        try:
            if probe:
                samples += probe.sample_until(exited)
            elif not exited(PROCESS_TIMEOUT_S):
                raise TimeoutError(f"no exit within {PROCESS_TIMEOUT_S:g} s")
        except TimeoutError:
            _stop(process)
            ledger.fail(f"{what}: timed out after {PROCESS_TIMEOUT_S:g} s")
            return None
        finally:
            os.close(exited.source)
        process.wait()
        seconds = exited.at - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if process.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
        ledger.fail(f"{what}: exit code {process.returncode}: {tail[0]}")
        return None
    if probe:
        seconds = probe.scaled(seconds, samples)
    return seconds, stdout


def time_to_line(ctx: Context, argv: list[str], marker: str, probe=None):
    """Launch *argv*, time until a stdout line starts with *marker*.

    Returns ``(seconds, process, line)``; the process keeps running.  With
    a :class:`SpeedProbe`, as in :func:`run_program`."""
    samples = [probe.sample()] if probe else []
    start = time.perf_counter()
    process = subprocess.Popen(
        argv, cwd=ctx.root, env=ctx.env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        preexec_fn=probe.pin if probe else None,
    )
    if probe:
        # the program prints nothing before the marker line
        readable = _Ready(process.stdout, start + PROCESS_TIMEOUT_S)
        try:
            samples += probe.sample_until(readable)
        except TimeoutError:
            _stop(process)
            raise
        line = process.stdout.readline()
        if line.startswith(marker):
            return probe.scaled(readable.at - start, samples), process, line
    else:
        for line in process.stdout:
            if line.startswith(marker):
                return time.perf_counter() - start, process, line
    _stop(process)
    raise RuntimeError(f"{' '.join(argv[1:3])} exited before printing {marker!r}")


def peak_rss_mb() -> float:
    """Largest resident set of any child process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def common_details(setups: list[float], ledger: Ledger) -> list[str]:
    return [
        f"setup_s               {statistics.median(setups):.4f} s  lower is better "
        f"(median of n={len(setups)} launches, at reference speed)",
        f"peak_rss_mb           {peak_rss_mb():.1f} MB  lower is better",
        f"failed_frac           {ledger.failed_frac:.4f}  lower is better "
        f"({ledger.failed} of {ledger.attempted} operations)",
    ]


# -------------------------------------------------------- library workloads
def library_workload(ctx: Context, name: str) -> Report:
    ledger = Ledger()
    if ctx.trace:
        trace_dir = ctx.fresh_dir("spans")
        seconds = {"plain": 0.0, "traced": 0.0}
        reference = None
        for k, tag in enumerate(ALTERNATION):
            argv = ctx.libwork("trace", name, "--seed", str(ctx.seed))
            if tag == "traced":
                (trace_dir / str(k)).mkdir()
                argv += ["--trace-dir", str(trace_dir / str(k))]
            out = run_program(ctx, argv, ledger, f"{name} {tag} pass {k}")
            if out is None:
                return Report({}, ledger=ledger)
            result = json.loads(out[1].strip().splitlines()[-1])
            _account(ledger, result)
            digests = {op["item"]: op["digest"] for op in result["ops"]}
            if reference is None:
                reference = digests
            else:
                ledger.check(digests == reference, f"{name}: {tag} pass {k} output differs from pass 0")
            seconds[tag] += sum(op["seconds"] for op in result["ops"])
        overhead = seconds["traced"] / seconds["plain"] - 1.0
        return Report(tracing.layer_metrics(tracing.load(trace_dir / "1"), overhead), ledger=ledger)

    # the child is single-threaded: time it, and the reference, on one core
    probe = SpeedProbe(all_cpus()[-1:])
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, process, _ = time_to_line(
            ctx, ctx.libwork("setup", name, "--seed", str(ctx.seed)), "ready", probe
        )
        process.wait()
        setups.append(seconds)
    out = library_run(ctx, name, ledger, probe)
    if out is None:
        return Report({}, ledger=ledger)
    ops, result = out
    _account(ledger, result)
    quality = result["quality"]
    # Instances run unequal numbers of times within the time limit: weigh
    # each once, by its mean time, so every run measures the same mix.
    by_item: dict[str, list[dict]] = {}
    for op in ops:
        by_item.setdefault(op["item"], []).append(op)
    units = sum(group[0]["units"] for group in by_item.values())
    means = {item: statistics.mean(op["scaled"] for op in group) for item, group in by_item.items()}
    raw_seconds = sum(statistics.mean(op["seconds"] for op in group) for group in by_item.values())
    timing = Timing.of(means.values())
    throughput = units / sum(means.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": throughput,
        "op_p50_ms": timing.p50 * 1e3,
        "latency_periods": quality["latency_periods"],
        "miss_frac": quality["miss_frac"],
    }
    details = common_details(setups, ledger) + [
        f"speed                 {probe.describe()}",
        f"wall_throughput_per_s {units / raw_seconds:.4g} 1/s  unscaled, for reference only",
    ]
    if name == "stream-saturated":
        details += [
            f"stream_datasets_per_s {throughput:.2f} 1/s  higher is better "
            f"({len(ops)} streams of {ops[0]['units']} data sets)",
            f"stream_wall_per_stream {timing.describe('ms', 1e3)} of the per-stream means",
            f"stream_latency_p95_periods {quality['latency_periods']:.3f} periods  lower is better "
            f"(paper bound (2S-1) is {quality['bound_periods']} periods by stream)",
            f"stream_period_ratio   {quality['period_ratio']:.4f}  lower is better",
            f"stream_loss_frac      {quality['loss_frac']:.5f}  lower is better",
            f"stream_miss_frac      {quality['miss_frac']:.4f}  lower is better "
            f"(lost, or later than (2S-1)·Δ)",
            f"faults                {quality['crash_tolerated']} crashes tolerated, "
            f"{quality['rebuilds']} rebuilds per pass",
        ]
    else:
        details += [
            f"schedules_per_s       {throughput:.4f} 1/s  higher is better",
            f"schedule_wall         {timing.describe('ms', 1e3)} of the per-instance means "
            f"({len(ops)} schedules)",
            f"schedule_latency_periods {quality['latency_periods']:.3f} periods  lower is better "
            f"(mean 2S-1)",
            f"schedule_eps_shortfall {quality['eps_shortfall']:.4f}  lower is better",
            f"schedule_period_ratio {quality['period_ratio']:.4f}  lower is better "
            f"(mean max cycle time / Δ)",
            f"schedule_failed_frac  {quality['invalid_frac']:.4f}  lower is better "
            f"(schedules validate_schedule rejects, a known R-LTF defect; gated "
            f"through miss_frac, while JSON 'failed' counts operations only)",
            *(f"  invalid: {line}" for line in quality["invalid"]),
        ]
    return Report(metrics, details, ledger)


def _read_line(process: subprocess.Popen) -> str:
    """The child's next reply line (it writes one line, then waits for input)."""
    ready, _, _ = select.select([process.stdout], [], [], PROCESS_TIMEOUT_S)
    if not ready:
        raise TimeoutError(f"no reply within {PROCESS_TIMEOUT_S:g} s")
    line = process.stdout.readline()
    if not line:
        raise EOFError(f"exited with code {process.wait()}")
    return line


def library_run(ctx: Context, name: str, ledger: Ledger, probe: SpeedProbe):
    """Drive ``libwork.py run`` one operation at a time for about ``ctx.seconds``.

    The speed of the child's core is sampled while each operation runs,
    which gets its time at reference speed as ``scaled``.  Every instance
    runs at least once and at least one repeats.  Returns ``(ops, result)``,
    or ``None`` when the child failed."""
    with (ctx.tmp / f"{name}.stderr").open("w") as stderr:
        process = subprocess.Popen(
            ctx.libwork("run", name, "--seed", str(ctx.seed)), cwd=ctx.root, env=ctx.env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr, text=True,
            start_new_session=True, preexec_fn=probe.pin,
        )
        try:
            items = json.loads(_read_line(process))["items"]
            ops: list[dict] = []
            samples = [probe.sample()]
            started = time.perf_counter()
            while len(ops) <= items or time.perf_counter() - started + ops[-1]["seconds"] <= ctx.seconds:
                process.stdin.write("op\n")
                process.stdin.flush()
                samples += probe.sample_until(
                    _Ready(process.stdout, time.perf_counter() + PROCESS_TIMEOUT_S)
                )
                op = json.loads(_read_line(process))
                op["scaled"] = probe.scaled(op["seconds"], samples)
                samples = samples[-1:]
                ops.append(op)
            process.stdin.write("end\n")
            process.stdin.close()
            result = json.loads(_read_line(process))
            process.wait(timeout=PROCESS_TIMEOUT_S)
        except (OSError, ValueError, EOFError, subprocess.TimeoutExpired) as exc:
            ledger.fail(f"{name} run: {type(exc).__name__}: {exc}")
            return None
        finally:
            if process.poll() is None:
                _stop(process)
    if process.returncode != 0:
        ledger.fail(f"{name} run: exit code {process.returncode}")
        return None
    return ops, result


def _account(ledger: Ledger, result: dict) -> None:
    ledger.attempted += result["attempted"]
    ledger.failed += result["failed"]
    ledger.reasons.extend(result["failures"])


# ------------------------------------------------------------------ suite-cli
_EXECUTED = re.compile(r"executed (\d+) of (\d+) points")


def _result_table(stdout: str) -> list[str]:
    """The ``grid points`` table without its run/cache ``source`` column."""
    lines = stdout.splitlines()
    start = lines.index("grid points") + 1
    table = []
    for line in lines[start:]:
        if not line.strip():
            break
        table.append(line.rsplit("|" if "|" in line else "+", 1)[0].rstrip())
    return table


def _suite_call(ctx, ledger, suite_path, cache_dir, cold_table=None, trace_dir=None, what="",
                probe=None):
    """One ``suite run``: ``(seconds, table)``, or ``None`` when it failed.

    Without *cold_table* it must execute every point; with it, none, and
    print the same table.  With *probe*, seconds are at reference speed."""
    argv = ctx.cli(
        "suite", "run", str(suite_path), "--jobs", str(SUITE_JOBS), "--no-plot",
        "--cache-dir", str(cache_dir), trace_dir=trace_dir,
    )
    out = run_program(ctx, argv, ledger, what, probe)
    if out is None:
        return None
    seconds, stdout = out
    match = _EXECUTED.search(stdout)
    points = inputs.SUITE_POINTS
    if not match or int(match.group(2)) != points:
        ledger.fail(f"{what}: no 'executed N of {points} points' line")
        return None
    executed, table = int(match.group(1)), _result_table(stdout)
    want = points if cold_table is None else 0
    ok = ledger.check(
        executed == want and (cold_table is None or table == cold_table),
        f"{what}: executed {executed} of {points} (expected {want}), or its table differs",
    )
    return (seconds, table) if ok else None


def suite_cycle(ctx, ledger, suite_path, tag, warm_runs, trace_dir=None, probes=(None, None)):
    """A cold run into an empty cache, then fully cached warm runs, timed by
    the cold and the warm one of *probes*."""
    cache_dir = ctx.fresh_dir(f"suite-cache-{tag}")
    cold = _suite_call(
        ctx, ledger, suite_path, cache_dir, None, trace_dir, f"cold suite run {tag}", probes[0]
    )
    warms = []
    if cold is not None:
        for k in range(warm_runs):
            warm = _suite_call(
                ctx, ledger, suite_path, cache_dir, cold[1], trace_dir, f"warm suite run {tag}.{k}",
                probes[1],
            )
            if warm is not None:
                warms.append(warm[0])
    return cold, warms, cache_dir


def suite_quality(ctx, ledger, suite_path, cache_dir) -> dict | None:
    """Paper-level quality of the suite's points, from the cached JSON document."""
    out = run_program(
        ctx, ctx.cli("suite", "report", str(suite_path), "--json", "--cache-dir", str(cache_dir)),
        ledger, "suite report --json",
    )
    if out is None:
        return None
    document = json.loads(out[1])
    if not ledger.check(document["executed_points"] == 0, "suite report re-executed points"):
        return None
    stats = [point["stats"] for point in document["points"]]
    period = inputs.PIPELINE_PERIOD
    return {
        "latency_periods": statistics.mean(s["p95_latency"] for s in stats) / period,
        "miss_frac": statistics.mean(s["mean_loss_rate"] for s in stats),
        "period_ratio": statistics.mean(s["mean_achieved_period"] for s in stats) / period,
    }


def suite_cli(ctx: Context) -> Report:
    ledger = Ledger()
    suite_path = ctx.tmp / "suite.json"
    suite_path.write_text(json.dumps(inputs.suite_document(ctx.seed), indent=2))
    if ctx.trace:
        trace_dir = ctx.fresh_dir("spans")
        seconds = {"plain": 0.0, "traced": 0.0}
        for k, tag in enumerate(ALTERNATION):
            spans = trace_dir / f"suite{k}" if tag == "traced" else None
            if spans is not None:
                spans.mkdir()
            cold, warms, _ = suite_cycle(ctx, ledger, suite_path, f"{tag}{k}", 1, spans)
            if cold is None or not warms:
                return Report({}, ledger=ledger)
            seconds[tag] += cold[0] + warms[0]
        client_samples = service_traced(ctx, ledger, trace_dir, seconds)
        if client_samples is None:
            return Report({}, ledger=ledger)
        # the ledger describes one cold and one warm suite run and one service
        # round: the spans of the first traced cycle and the first traced round
        recorder = tracing.load(trace_dir / "suite1", trace_dir / "service1")
        for key, values in client_samples.items():
            recorder.samples[key].extend(values)
        overhead = seconds["traced"] / seconds["plain"] - 1.0
        return Report(tracing.layer_metrics(recorder, overhead), ledger=ledger)

    # `--version` and a warm (fully cached) `suite run` are one process each,
    # timed on one core; a cold `suite run --jobs 2` spreads over every core,
    # so its reference is their mean
    one_core, every_core = SpeedProbe(all_cpus()[-1:]), SpeedProbe(all_cpus())
    setups = []
    for _ in range(SETUP_REPEATS):
        out = run_program(
            ctx, ctx.cli("--version"), ledger, "repro-streaming --version", one_core
        )
        if out is not None and ledger.check("repro-streaming" in out[1], "--version printed no version"):
            setups.append(out[0])
    colds, warms, quality = [], [], None
    started = time.perf_counter()
    cycle = 0
    while cycle < 2 or time.perf_counter() - started < SUITE_SHARE * ctx.seconds:
        cold, cycle_warms, cache_dir = suite_cycle(
            ctx, ledger, suite_path, str(cycle), 2, probes=(every_core, one_core)
        )
        if cold is not None:
            colds.append(cold[0])
        warms += cycle_warms
        if quality is None and cold is not None:
            quality = suite_quality(ctx, ledger, suite_path, cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        cycle += 1
    service_details = service_phase(ctx, ledger, started + ctx.seconds)
    if not colds or not warms or quality is None or not setups or service_details is None:
        return Report({}, ledger=ledger)
    points = inputs.SUITE_POINTS
    cold_t, warm_t = Timing.of(colds), Timing.of(warms)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": points / cold_t.p50,
        "op_p50_ms": warm_t.p50 * 1e3,
        "latency_periods": quality["latency_periods"],
        "miss_frac": quality["miss_frac"],
    }
    details = common_details(setups, ledger) + [
        f"speed                 {one_core.describe()}; {every_core.describe()}",
        f"suite_cold_s          {cold_t.p50:.4f} s  lower is better ({cold_t.describe('s')}; "
        f"{points} points, jobs {SUITE_JOBS})",
        f"suite_warm_s          {warm_t.p50:.4f} s  lower is better ({warm_t.describe('s')})",
        f"suite_latency_p95_periods {quality['latency_periods']:.4f} periods  lower is better",
        f"suite_loss_frac       {quality['miss_frac']:.5f}  lower is better",
        f"suite_period_ratio    {quality['period_ratio']:.4f}  lower is better",
    ] + service_details
    return Report(metrics, details, ledger)


# ----------------------------------------------- suite-cli: the service phase
class Client:
    """Closed-loop JSON client on one connection at a time."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def call(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body)
        self.connection.request(method, path, body=data, headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        payload = response.read()
        if response.will_close:
            self.connection.close()
        return response.status, json.loads(payload) if payload else {}

    def close(self) -> None:
        self.connection.close()


class Server:
    """One ``repro-streaming serve`` process; ``setup_s`` is launch → first 200."""

    def __init__(self, ctx: Context, cache_dir: Path, trace_dir: Path | None = None):
        argv = ctx.cli(
            "serve", "--port", "0", "--workers", str(SERVICE_WORKERS),
            "--cache-dir", str(cache_dir), trace_dir=trace_dir,
        )
        start = time.perf_counter()
        _, self.process, line = time_to_line(ctx, argv, "repro-streaming serve: http://")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = start + PROCESS_TIMEOUT_S
        while True:
            try:
                status, _ = Client(self.port).call("GET", "/v1/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("service never answered /v1/healthz")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - start

    def stop(self) -> None:
        """SIGTERM drains like Ctrl-C (and lets a traced server dump its spans)."""
        self.process.terminate()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            _stop(self.process)


def service_op(client: Client, ledger: Ledger, body: dict, cold: dict | None, samples=None):
    """Submit → (poll) → fetch one result; returns ``(seconds, job, document)``."""
    try:
        return _service_op(client, ledger, body, cold, samples)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        client.close()
        ledger.fail(f"{'replay' if cold else 'execute'}: {type(exc).__name__}: {exc}")
        return None


def _service_op(client, ledger, body, cold, samples):
    what = "replay" if cold else "execute"
    start = time.perf_counter()
    status, job = client.call("POST", "/v1/scenarios", body)
    submitted = time.perf_counter()
    if status not in (200, 202):
        ledger.fail(f"{what}: submit answered {status}")
        return None
    polls = 0
    while job.get("state") not in ("done", "failed"):
        if time.perf_counter() - start > SERVICE_JOB_TIMEOUT_S:
            ledger.fail(f"{what}: job {job.get('job')} timed out")
            return None
        time.sleep(POLL_INTERVAL_S)
        status, job = client.call("GET", f"/v1/jobs/{job['job']}")
        polls += 1
        if status != 200:
            ledger.fail(f"{what}: poll answered {status}")
            return None
    if job["state"] != "done":
        ledger.fail(f"{what}: job failed")
        return None
    fetch = time.perf_counter()
    status, document = client.call("GET", job["result_url"])
    seconds = time.perf_counter() - start
    if status != 200:
        ledger.fail(f"{what}: result fetch answered {status}")
        return None
    if cold is None:
        ok = ledger.check(job["executed"] > 0 and not job["cached"], "execute: served from cache")
    else:
        ok = ledger.check(
            job["executed"] == 0 and job["cached"]
            and job["result_key"] == cold["job"]["result_key"]
            and document == cold["document"],
            "replay: re-executed, or differs from the executed result",
        )
    if samples is not None:
        samples["service.submit_ms"].append((submitted - start) * 1e3)
        samples["service.result_get_ms"].append((time.perf_counter() - fetch) * 1e3)
        if cold is None:
            samples["service.polls"].append(polls)
    return (seconds, job, document) if ok else None


def service_round(server: Server, ledger: Ledger, bodies: list[dict], samples=None):
    """Execute every body once, then replay each: ``(exec_s, replay_s, docs)``."""
    client = Client(server.port)
    try:
        executed = [service_op(client, ledger, body, None, samples) for body in bodies]
        replays = [
            service_op(client, ledger, body, {"job": done[1], "document": done[2]}, samples)
            for body, done in zip(bodies, executed)
            if done is not None
        ]
    finally:
        client.close()
    return (
        [op[0] for op in executed if op is not None],
        [op[0] for op in replays if op is not None],
        [op[2] for op in executed if op is not None],
    )


def service_quality(documents: list[dict]) -> dict:
    summaries = [doc["summary"] for doc in documents]
    return {
        "latency_periods": statistics.mean(s["p95_latency"] for s in summaries)
        / inputs.PIPELINE_PERIOD,
        "miss_frac": sum(s["lost"] for s in summaries) / sum(s["datasets"] for s in summaries),
    }


def service_traced(ctx: Context, ledger: Ledger, trace_dir: Path, seconds: dict):
    """Plain, traced, traced, plain service rounds; returns the client samples
    of the first traced round (``None`` when a round failed)."""
    bodies = inputs.service_round(ctx.seed, 0)
    client_samples = tracing.Recorder().samples
    client_samples["service.poll_interval_ms"].append(POLL_INTERVAL_S * 1e3)
    for k, tag in enumerate(ALTERNATION):
        spans = trace_dir / f"service{k}" if tag == "traced" else None
        if spans is not None:
            spans.mkdir()
        server = Server(ctx, ctx.fresh_dir(f"service-cache-{k}"), spans)
        try:
            executed, replayed, _ = service_round(
                server, ledger, bodies, client_samples if k == 1 else None
            )
        finally:
            server.stop()
        if not executed or not replayed:
            return None
        seconds[tag] += sum(executed) + sum(replayed)
    return client_samples


def service_phase(ctx: Context, ledger: Ledger, deadline: float) -> list[str] | None:
    """Serve rounds of distinct scenarios until *deadline* (at least one round);
    returns the service's named metrics as printed lines."""
    setups, server = [], None
    for k in range(SETUP_REPEATS):
        server = Server(ctx, ctx.fresh_dir(f"service-cache-{k}"))
        setups.append(server.setup_s)
        if k < SETUP_REPEATS - 1:
            server.stop()
    exec_s, replay_s, quality = [], [], None
    try:
        round_index = 0
        while round_index == 0 or time.perf_counter() < deadline:
            executed, replayed, documents = service_round(
                server, ledger, inputs.service_round(ctx.seed, round_index)
            )
            exec_s += executed
            replay_s += replayed
            if round_index == 0 and documents:
                quality = service_quality(documents)
            round_index += 1
    finally:
        server.stop()
    if not exec_s or not replay_s or quality is None:
        return None
    # the service's named tail is p90: service_exec_p90_ms, service_replay_p90_ms
    exec_t, replay_t = Timing.of(exec_s, (90.0,)), Timing.of(replay_s, (90.0,))
    return [
        f"service_setup_s       {statistics.median(setups):.4f} s  lower is better "
        f"(launch to first 200 from /v1/healthz, median of n={len(setups)})",
        f"service_exec          {exec_t.describe('ms', 1e3)}  lower is better",
        f"service_replay        {replay_t.describe('ms', 1e3)}  lower is better",
        f"service_jobs_per_s    {len(exec_s) / sum(exec_s):.3f} 1/s  higher is better "
        f"(executed jobs, closed loop, one connection, {SERVICE_WORKERS} worker)",
        f"poll_interval         {POLL_INTERVAL_S * 1e3:g} ms (bounds the resolution of executed jobs)",
        f"service_latency_p95_periods {quality['latency_periods']:.4f} periods  lower is better",
        f"service_loss_frac     {quality['miss_frac']:.5f}  lower is better",
    ]


WORKLOADS = {
    "stream-saturated": lambda ctx: library_workload(ctx, "stream-saturated"),
    "schedule-large": lambda ctx: library_workload(ctx, "schedule-large"),
    "suite-cli": suite_cli,
}
