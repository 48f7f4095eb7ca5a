#!/usr/bin/env python3
"""The repo benchmark: a cold local reproduction and a cold 3-shard
fleet reproduction, each with a separate traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload repro_cold --seed 1 --seconds 10 --trace 0

The first run builds the repo's library and tools in Release (into
$CARGO_TARGET_DIR, default .bench_build) and then perfbench-driver
against them. Every run checks the program's output, prints each
metric on its own line, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. perfbench/README.md
defines every metric and workload.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

REPRO_THREADS = 3
FLEET_POOL = 1
FLEET_SHARDS = 3
# setup_s is the fastest of a run's set-ups, which take a few
# milliseconds each: this many run just before the timed phase and as
# many just after it, so that a slow spell of a shared host does not set
# the figure.
TOOL_SETUP_REPEATS = 20
DAEMON_SETUP_REPEATS = 8
RUN_BUDGET_S = 170.0

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("sched.schedule_s", "s"), ("sched.chains_s", "s"), ("sched.ddgt_s", "s"),
    ("sim.simulate_s", "s"), ("sim.host_ns_per_dyn_op", "ns"),
    ("profile.profile_s", "s"), ("workloads.build_loop_s", "s"),
    ("ir.ddg_s", "s"), ("alias.disambiguate_s", "s"),
    ("alias.specialize_s", "s"),
    ("sched.schedule_calls", "count"), ("sched.ii_above_mii", "count"),
    ("sched.placement_failures", "count"),
    ("sched.copy_window_failures", "count"), ("sched.bus_failures", "count"),
    ("sched.unscheduled", "count"),
    ("sim.dyn_ops", "count"), ("sim.mem_accesses", "count"),
    ("sim.cycles", "count"), ("sim.stall_cycles", "count"),
    ("pipeline.runloop_calls", "count"), ("pipeline.cache_hit_ratio", "fraction"),
    ("pipeline.item_max_s", "s"), ("pipeline.engine_lookup_s", "s"),
    ("pipeline.render_s", "s"),
    ("replay.span_sum_s", "s"), ("replay.engine_cpu_s", "s"),
    ("replay.attribution_error", "fraction"), ("replay.matched", "count"),
    ("net.client.submit_s", "s"), ("net.client.wait_s", "s"),
    ("net.client.take_s", "s"),
    ("pipeline.service.request_total_us", "us"),
    ("pipeline.service.request_decode_us", "us"),
    ("pipeline.service.grid_expand_us", "us"),
    ("pipeline.service.cache_lookup_us", "us"),
    ("pipeline.service.row_encode_us", "us"),
    ("pipeline.service.writer_wait_us", "us"),
    ("pipeline.service.socket_send_us", "us"),
    ("pipeline.service.frames_per_writev", "ratio"),
    ("net.wire.bytes_per_row", "ratio"),
    ("net.wire.rows_per_frame", "ratio"),
    ("pipeline.shard.runloop_calls", "count"),
    ("pipeline.shard.busy_max_s", "s"), ("pipeline.shard.busy_imbalance", "ratio"),
]

# Daemon histogram -> per-layer metric (p50, microseconds).
SERVICE_STAGES = [
    ("stage.request_total", "pipeline.service.request_total_us"),
    ("stage.request_decode", "pipeline.service.request_decode_us"),
    ("stage.grid_expand", "pipeline.service.grid_expand_us"),
    ("stage.cache_lookup", "pipeline.service.cache_lookup_us"),
    ("stage.writer_wait", "pipeline.service.writer_wait_us"),
    ("stage.socket_send", "pipeline.service.socket_send_us"),
]


class Outcome:
    """What a workload run produced: its metrics, how many operations it
    attempted and how many failed, what went wrong, and report lines."""

    def __init__(self, metrics, attempted, failed, problems, info):
        self.metrics = metrics
        self.attempted = attempted
        self.failed = failed
        self.problems = problems
        self.info = info


class BenchError(Exception):
    """A failure of the benchmark itself (build, start-up, protocol):
    the run stops without a result."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --- processes -------------------------------------------------------


class Processes:
    """Every process the run starts; stop_all() kills and reaps what is
    still alive, on every exit path."""

    def __init__(self):
        self.live = []

    def spawn(self, args, **kwargs):
        proc = subprocess.Popen([str(a) for a in args], **kwargs)
        self.live.append(proc)
        return proc

    def reap(self, proc, timeout):
        """Waits for proc (killing it after timeout seconds); returns
        (exit status, rusage, timed_out)."""
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timed_out = not timer.is_alive()
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage, timed_out

    def kill(self, proc):
        proc.kill()
        return self.reap(proc, 5.0)

    def stop_all(self):
        for proc in list(self.live):
            try:
                self.kill(proc)
            except (OSError, ValueError):
                pass


def stop_stale_daemons(daemon_binary):
    """Kills daemons of this build that a killed earlier run left
    behind: they would hold the workloads' fixed ports."""
    stale = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            if os.readlink(f"/proc/{pid}/exe") == str(daemon_binary):
                os.kill(int(pid), signal.SIGKILL)
                stale.append(pid)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while stale and time.monotonic() < deadline:
        stale = [p for p in stale if os.path.exists(f"/proc/{p}")]
        time.sleep(0.05)


def proc_cpu_seconds(pid):
    """user + system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid):
    """A live process's peak resident set (VmHWM) in MiB, or None once it
    has exited. Unlike ru_maxrss, VmHWM starts afresh at exec, so it
    does not count the image of the Python process the child was forked
    from."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


class PeakRssWatch:
    """Polls a child's VmHWM until it exits; peak() is the last value."""

    def __init__(self, pid):
        self.pid = pid
        self.peak_mb = 0.0
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._poll, daemon=True)
        self.thread.start()

    def _poll(self):
        while not self.done.is_set():
            value = peak_rss_mb(self.pid)
            if value is None:
                return
            self.peak_mb = max(self.peak_mb, value)
            self.done.wait(0.02)

    def peak(self):
        self.done.set()
        self.thread.join()
        return self.peak_mb


class LineReader:
    """Reads lines from a child's pipe with a deadline."""

    def __init__(self, stream, what):
        self.fd = stream.fileno()
        self.what = what
        self.buffer = b""

    def readline(self, timeout):
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buffer:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"{self.what}: no answer in {timeout:.0f} s")
            ready, _, _ = select.select([self.fd], [], [], left)
            if ready:
                chunk = os.read(self.fd, 1 << 16)
                if not chunk:
                    raise BenchError(f"{self.what} exited unexpectedly")
                self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line.decode()


def tail(path, lines=15):
    try:
        return "".join(Path(path).read_text().splitlines(True)[-lines:])
    except OSError:
        return ""


# --- the run context -------------------------------------------------


class Run:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.build_dir = (ROOT / build_root).resolve()
        self.procs = Processes()
        self.run_dir = (self.build_dir / "runs" /
                        f"{args.workload}-{args.seed}-{os.getpid()}")
        self.tools = self.build_dir / "repo" / "tools"
        self.driver = self.build_dir / "perfbench" / "perfbench-driver"
        self.goldens = []

    def left(self):
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    def tool(self, name):
        return self.tools / name

    # Building -----------------------------------------------------------

    def build(self):
        """Configures and builds the library, the tools and the driver
        in Release; refuses any other build type."""
        for needed in ("CMakeLists.txt", "src", "include", "tools",
                       "tests/golden"):
            if not (ROOT / needed).exists():
                raise BenchError(f"{ROOT / needed} is missing; run from a "
                                 "full checkout of the repository")
        repo_build = self.build_dir / "repo"
        bench_build = self.build_dir / "perfbench"
        jobs = str(min(4, os.cpu_count() or 1))
        build_log = self.build_dir / "build.log"
        self.build_dir.mkdir(parents=True, exist_ok=True)
        steps = []
        if not (repo_build / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", ROOT, "-B", repo_build,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DCVLIW_BUILD_TESTS=OFF",
                          "-DCVLIW_BUILD_BENCH=OFF",
                          "-DCVLIW_BUILD_EXAMPLES=OFF"])
        steps.append(["cmake", "--build", repo_build, "-j", jobs, "--target",
                      "cvliw", "cvliw-bench", "cvliw-sweepd",
                      "cvliw-sweep-client"])
        if not (bench_build / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", BENCH_DIR, "-B", bench_build,
                          "-DCMAKE_BUILD_TYPE=Release",
                          f"-DCVLIW_LIBRARY={repo_build / 'src' / 'libcvliw.a'}"])
        steps.append(["cmake", "--build", bench_build, "-j", jobs])
        # The compiler's temporary files stay inside the checkout too.
        tmp = self.build_dir / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, TMPDIR=str(tmp))
        with open(build_log, "w") as out:
            for step in steps:
                rc = subprocess.call([str(s) for s in step], stdout=out,
                                     stderr=subprocess.STDOUT, env=env)
                if rc != 0:
                    raise BenchError(f"build step failed: {' '.join(map(str, step))}\n"
                                     + tail(build_log))
        build_type = self.cache_var(repo_build, "CMAKE_BUILD_TYPE")
        if build_type != "Release":
            raise BenchError(f"refusing a {build_type or 'untyped'} build in "
                             f"{repo_build}: the benchmark measures Release")
        self.build_type = build_type

    @staticmethod
    def cache_var(build, name):
        text = (build / "CMakeCache.txt").read_text()
        match = re.search(rf"^{name}:\w+=(.*)$", text, re.M)
        return match.group(1) if match else ""

    def load_goldens(self):
        names = subprocess.run([str(self.tool("cvliw-bench")), "--list-names"],
                               capture_output=True, text=True, check=True,
                               timeout=30).stdout.split()
        self.goldens = [(n, (ROOT / "tests" / "golden" / f"{n}.golden").read_text())
                        for n in names]

    def stamp(self):
        """nproc, CPU model, build type, commit and seed of the report."""
        model = platform.processor() or platform.machine()
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
        except OSError:
            pass
        commit = ""
        if (ROOT / ".git").exists():
            try:
                commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                         "HEAD"], capture_output=True,
                                        text=True, timeout=10).stdout.strip()
            except (OSError, subprocess.SubprocessError):
                pass
        commit = commit or "source-digest:" + source_digest()
        return {"workload": self.args.workload, "seed": self.args.seed,
                "trace": self.args.trace, "nproc": os.cpu_count(),
                "cpu_model": model, "build_type": self.build_type,
                "commit": commit}

    # Daemons and the client ------------------------------------------

    def start_daemon(self, addr, pool):
        host, port = addr.rsplit(":", 1)
        args = [self.tool("cvliw-sweepd"), "--host", host, "--port", port,
                "--threads", pool]
        err = self.run_dir / f"sweepd-{port}.log"
        proc = self.procs.spawn(args, stdout=subprocess.PIPE,
                                stderr=open(err, "a"))
        proc.addr, proc.err = addr, err
        proc.reader = LineReader(proc.stdout, f"cvliw-sweepd {addr}")
        return proc

    def wait_listening(self, proc):
        """Blocks until the daemon prints its listening line; a daemon
        that exits first (a failed bind) fails the run."""
        while True:
            try:
                line = proc.reader.readline(min(30.0, self.left()))
            except BenchError as error:
                raise BenchError(f"{error}; could not start on {proc.addr}:\n"
                                 + tail(proc.err)) from None
            if line.startswith("sweepd: listening on "):
                bound = line.split()[3]
                if bound != proc.addr:
                    raise BenchError(f"daemon bound {bound}, not {proc.addr}")
                return

    def start_client(self):
        proc = self.procs.spawn([self.driver, "client"], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE,
                                stderr=open(self.run_dir / "client.log", "w"))
        proc.reader = LineReader(proc.stdout, "perfbench-driver client")
        self.client = proc
        self.reply(60.0)

    def reply(self, timeout):
        reply = json.loads(self.client.reader.readline(min(timeout, self.left())))
        if not reply.get("ok"):
            raise BenchError(f"client: {reply.get('error')}")
        return reply

    def command(self, line, timeout=30.0):
        self.client.stdin.write(f"{line}\n".encode())
        self.client.stdin.flush()
        return self.reply(timeout)

    def set_up(self, addrs, pool):
        """Starts the daemons and connects the client to them; returns
        (the daemons, seconds taken)."""
        t0 = time.perf_counter()
        daemons = [self.start_daemon(a, pool) for a in addrs]
        for daemon in daemons:
            self.wait_listening(daemon)
        self.command("connect " + ",".join(addrs))
        return daemons, time.perf_counter() - t0

    def set_up_times(self, addrs, pool):
        """Seconds of DAEMON_SETUP_REPEATS set-ups, each torn down again."""
        times = []
        for _ in range(DAEMON_SETUP_REPEATS):
            daemons, seconds = self.set_up(addrs, pool)
            times.append(seconds)
            self.command("close")
            for daemon in daemons:
                self.procs.kill(daemon)
        return times

    def daemon_metrics(self, addr):
        """The daemon's metrics registry through its public metrics
        request: (Prometheus series, histogram table)."""
        client = str(self.tool("cvliw-sweep-client"))
        prom = subprocess.run([client, addr, "metrics", "--prometheus"],
                              capture_output=True, text=True, timeout=30)
        table = subprocess.run([client, addr, "metrics"],
                               capture_output=True, text=True, timeout=30)
        if prom.returncode or table.returncode:
            raise BenchError(f"metrics request to {addr} failed: "
                             f"{prom.stderr}{table.stderr}")
        return (harness.parse_prometheus(prom.stdout),
                harness.parse_histogram_table(table.stdout))

    def shut_down(self, daemons):
        """Clean shutdown through the client; returns the daemons' peak
        RSS in MiB (the client holds benchmark-only state, so it does
        not count)."""
        daemon_rss = [peak_rss_mb(daemon.pid) for daemon in daemons]
        self.command("shutdown")
        for daemon in daemons:
            rc, _, _ = self.procs.reap(daemon, min(30.0, self.left()))
            if rc != 0:
                raise BenchError(f"daemon {daemon.addr} exited {rc}:\n"
                                 + tail(daemon.err))
        return daemon_rss

    def quit_client(self):
        self.client.stdin.write(b"quit\n")
        self.client.stdin.close()
        self.procs.reap(self.client, 30.0)

    def workload_addrs(self, name, count):
        """The fixed daemon addresses the workload's entry in
        BENCHMARK.json records."""
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
        addrs = re.findall(r"127\.0\.0\.1:\d+", why)
        if len(addrs) != count:
            raise BenchError(f"BENCHMARK.json must record {count} address(es) "
                             f"for {name}, found {addrs}")
        return addrs


def source_digest():
    """A digest of the sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "tools", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts)
        for file in files:
            digest.update(str(file.relative_to(ROOT)).encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()[:16]


# --- repro_cold -------------------------------------------------------


def tool_start_times(run):
    """Seconds of TOOL_SETUP_REPEATS `cvliw-bench --list-names` runs:
    process start-up and the experiment registry."""
    times = []
    for _ in range(TOOL_SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = run.procs.spawn([run.tool("cvliw-bench"), "--list-names"],
                               stdout=subprocess.DEVNULL)
        rc, _, _ = run.procs.reap(proc, 30.0)
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise BenchError("cvliw-bench --list-names failed")
    return times


def repro_cold(run):
    if run.args.trace:
        return repro_cold_traced(run)
    bench = run.tool("cvliw-bench")
    setups = tool_start_times(run)
    out_path = run.run_dir / "all.out"
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        proc = run.procs.spawn([bench, "--all", "--threads", REPRO_THREADS,
                                "--base-seed", run.args.seed], stdout=out,
                               stderr=open(run.run_dir / "all.err", "w"))
        watch = PeakRssWatch(proc.pid)
        rc, usage, timed_out = run.procs.reap(proc, run.left())
        wall = time.perf_counter() - t0
        peak_rss = watch.peak()
    if timed_out:
        raise BenchError("cvliw-bench --all ran out of time")
    setups += tool_start_times(run)
    output = out_path.read_text()
    problems = harness.golden_failures(output, run.goldens)
    if rc != 0:
        problems.append(f"cvliw-bench exited {rc}")
    info = [f"{len(run.goldens)} experiments run one after another on "
            f"{REPRO_THREADS} threads"]
    metrics = {
        "setup_s": min(setups),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": peak_rss,
    }
    return Outcome(metrics, len(run.goldens), len(problems), problems, info)


def repro_cold_traced(run):
    tables = run.run_dir / "replay.tables"
    spans_path = run.run_dir / "replay.spans"
    proc = run.procs.spawn([run.driver, "replay", "--threads", REPRO_THREADS,
                            "--base-seed", run.args.seed, "--tables", tables,
                            "--spans", spans_path], stdout=subprocess.PIPE,
                           stderr=open(run.run_dir / "replay.log", "w"))
    reader = LineReader(proc.stdout, "perfbench-driver replay")
    summary = json.loads(reader.readline(run.left()))
    run.procs.reap(proc, 30.0)
    engine, replay = summary["engine"], summary["replay"]
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    self_s = harness.self_times(spans)
    roots = [s for s in spans if s["name"] == "runLoop"]
    sched = [s["args"] for s in spans if s["name"] == "ModuloScheduler::run"]
    sim = [s["args"] for s in spans if s["name"] == "simulateKernel"]
    span_sum = sum((s["end_ns"] - s["start_ns"]) for s in roots) * 1e-9
    dyn_ops = sum(a["dyn_ops"] for a in sim)
    m = {
        "sched.schedule_s": self_s.get("ModuloScheduler::run", 0.0),
        "sched.chains_s": self_s.get("MemoryChains", 0.0),
        "sched.ddgt_s": self_s.get("applyDDGT", 0.0),
        "sim.simulate_s": self_s.get("simulateKernel", 0.0),
        "profile.profile_s": self_s.get("profileLoop", 0.0),
        "workloads.build_loop_s": self_s.get("buildLoop", 0.0),
        "ir.ddg_s": self_s.get("buildRegisterFlowDDG", 0.0),
        "alias.disambiguate_s": self_s.get("MemoryDisambiguator::addMemoryEdges", 0.0),
        "alias.specialize_s": self_s.get("applyCodeSpecialization", 0.0),
        "sched.schedule_calls": len(sched),
        "sched.ii_above_mii": sum(a["ii"] - a["mii"] for a in sched if a["scheduled"]),
        "sched.placement_failures": sum(a["placement_failures"] for a in sched),
        "sched.copy_window_failures": sum(a["copy_window_failures"] for a in sched),
        "sched.bus_failures": sum(a["bus_failures"] for a in sched),
        "sched.unscheduled": sum(1 for a in sched if not a["scheduled"]),
        "sim.dyn_ops": dyn_ops,
        "sim.mem_accesses": sum(a["mem_accesses"] for a in sim),
        "sim.cycles": sum(a["cycles"] for a in sim),
        "sim.stall_cycles": sum(a["stall_cycles"] for a in sim),
        "pipeline.runloop_calls": engine["misses"],
        "pipeline.cache_hit_ratio": engine["hits"] / engine["lookups"],
        "pipeline.item_max_s": max((s["end_ns"] - s["start_ns"]) for s in roots) * 1e-9,
        "pipeline.engine_lookup_s": engine["lookup_us"] * 1e-6,
        "pipeline.render_s": engine["render_s"],
        "replay.span_sum_s": span_sum,
        "replay.engine_cpu_s": engine["cpu_s"],
        "replay.attribution_error": (engine["cpu_s"] - span_sum) / engine["cpu_s"],
        "replay.matched": replay["matched"],
    }
    m["sim.host_ns_per_dyn_op"] = m["sim.simulate_s"] * 1e9 / dyn_ops if dyn_ops else 0.0
    problems = harness.golden_failures(tables.read_text(), run.goldens)
    failed = len(problems) + engine["render_failures"]
    bad = replay["mismatched"] + replay["missing"]
    failed += bad
    if engine["render_failures"]:
        problems.append(f"{engine['render_failures']} renderers reported a "
                        "failed invariant")
    if bad:
        problems.append(f"{bad} replayed runLoop results differ from the cache")
    if replay["items"] != engine["misses"] or replay["key_mismatches"]:
        failed += 1
        problems.append(f"the replay covers {replay['items']} runLoop calls, "
                        f"the engine made {engine['misses']}; "
                        f"{replay['key_mismatches']} route-key mismatches")
    split = {name: m[key] / span_sum for name, key in (
        ("schedule", "sched.schedule_s"), ("simulate", "sim.simulate_s"),
        ("profile", "profile.profile_s"))}
    split["everything else"] = 1.0 - sum(split.values())
    info = [
        f"replayed {replay['items']} runLoop calls, {replay['matched']} equal "
        "to the untraced engine's cached results",
        "phase split of the replay: " + ", ".join(
            f"{name} {share:.1%}" for name, share in split.items())
        + f" of {span_sum:.1f} s",
        f"replay span sum {span_sum:.2f} s vs untraced engine pass CPU "
        f"{engine['cpu_s']:.2f} s (engine wall {engine['wall_s']:.2f} s)",
    ]
    attempted = len(run.goldens) + replay["items"]
    return Outcome(m, attempted, failed, problems, info)


def fleet_layers(result, spans_path, snapshots):
    """Per-layer metrics of the fleet: client spans, wire ratios and the
    shards' own stage histograms and counters."""
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    dur = harness.durations(spans)
    m = {
        "net.client.submit_s": dur.get("submit", 0.0),
        "net.client.wait_s": dur.get("wait", 0.0),
        "net.client.take_s": dur.get("take", 0.0),
        "net.wire.bytes_per_row": result["bytes"] / max(result["rows"], 1),
        "net.wire.rows_per_frame": result["rows"] / max(result["frames"], 1),
        "pipeline.render_s": result["render_s"],
    }
    proms = [p for p, _ in snapshots]
    tables = [t for _, t in snapshots]

    def total(series):
        return sum(p.get(series, 0.0) for p in proms)

    def p50(hist):
        """Count-weighted mean of the shards' p50s of one histogram."""
        counts = [t.get(hist, {}).get("count", 0) for t in tables]
        if not sum(counts):
            return 0.0
        return sum(t[hist]["p50"] * c for t, c in zip(tables, counts) if c) / sum(counts)

    for hist, name in SERVICE_STAGES:
        m[name] = p50(hist)
    encode = max(("stage.row_encode_binary", "stage.row_encode_json"),
                 key=lambda h: sum(t.get(h, {}).get("count", 0) for t in tables))
    m["pipeline.service.row_encode_us"] = p50(encode)
    m["pipeline.service.frames_per_writev"] = (
        total("cvliw_frames_sent_total") / max(total("cvliw_writev_calls_total"), 1))
    hits, misses = total("cvliw_cache_hits"), total("cvliw_cache_misses")
    busy = [p.get("cvliw_stage_loop_simulate_us_sum", 0.0) * 1e-6 for p in proms]
    m["pipeline.runloop_calls"] = misses
    m["pipeline.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["pipeline.item_max_s"] = max(t.get("stage.loop_simulate", {}).get("max", 0)
                                   for t in tables) * 1e-6
    m["pipeline.shard.runloop_calls"] = misses
    m["pipeline.shard.busy_max_s"] = max(busy)
    m["pipeline.shard.busy_imbalance"] = (max(busy) / statistics.mean(busy)
                                          if sum(busy) else 0.0)
    return m


# --- fleet_cold ------------------------------------------------------


def fleet_cold(run):
    addrs = run.workload_addrs("fleet_cold", FLEET_SHARDS)
    stop_stale_daemons(run.tool("cvliw-sweepd").resolve())
    run.start_client()
    setups = [] if run.args.trace else run.set_up_times(addrs, FLEET_POOL)
    daemons, seconds = run.set_up(addrs, FLEET_POOL)
    setups.append(seconds)

    tables = run.run_dir / "fleet.tables"
    spans_path = run.run_dir / "fleet.spans"
    cpu0 = [proc_cpu_seconds(d.pid) for d in daemons]
    result = run.command(
        f"cold {run.args.seed} {tables} {spans_path if run.args.trace else '-'}",
        timeout=run.left())
    daemon_cpu = sum(proc_cpu_seconds(d.pid) - c for d, c in zip(daemons, cpu0))
    snapshots = [run.daemon_metrics(a) for a in addrs] if run.args.trace else None
    daemon_rss = run.shut_down(daemons)
    if not run.args.trace:
        setups += run.set_up_times(addrs, FLEET_POOL)
    run.quit_client()

    problems = list(result["failed_names"])
    problems += [n for n in harness.golden_failures(tables.read_text(), run.goldens)
                 if n not in problems]
    requests = len(run.goldens)
    info = [f"{len(addrs)} shards {','.join(addrs)}, pool {FLEET_POOL} each, "
            f"{requests} run_experiment requests pipelined"]
    if result["first_error"]:
        info.append(f"first error: {result['first_error']}")
    if run.args.trace:
        m = fleet_layers(result, spans_path, snapshots)
        busy = [p.get("cvliw_stage_loop_simulate_us_sum", 0.0) * 1e-6
                for p, _ in snapshots]
        calls = [int(p.get("cvliw_cache_misses", 0)) for p, _ in snapshots]
        info.append("per shard: runLoop calls " + "/".join(map(str, calls))
                    + ", busy " + "/".join(f"{b:.2f}" for b in busy) + " s")
        return Outcome(m, requests, len(problems), problems, info)

    metrics = {
        "setup_s": min(setups),
        "wall_s": result["wall_s"],
        "cpu_s": daemon_cpu + result["client_cpu_s"],
        "peak_rss_mb": max(daemon_rss),
    }
    return Outcome(metrics, requests, len(problems), problems, info)


WORKLOADS = {"repro_cold": repro_cold, "fleet_cold": fleet_cold}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def on_signal(signum, _frame):
        raise BenchError(f"stopped by signal {signum}")
    signal.signal(signal.SIGTERM, on_signal)

    run = Run(args)
    try:
        run.build()
        run.start = time.monotonic()  # the budget excludes the build
        run.load_goldens()
        run.run_dir.mkdir(parents=True, exist_ok=True)
        outcome = WORKLOADS[args.workload](run)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as error:
        log(f"error: {error}")
        return 2
    finally:
        run.procs.stop_all()

    declared = PER_LAYER if args.trace else END_TO_END
    report = {name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
              for name, unit in declared}
    print("perfbench: " + json.dumps(run.stamp()))
    for line in outcome.info:
        print(f"perfbench: {line}")
    for name, unit in declared:
        value = report[name]["value"]
        shown = f"{value:.0f}" if unit == "count" else f"{value:.6g}"
        print(f"perfbench: {name} = {shown} {unit}")
    for problem in outcome.problems:
        print(f"perfbench: FAILED: {problem}")
    print(f"perfbench: error_rate = {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} operations failed or wrong)")
    correct = outcome.failed == 0 and not outcome.problems
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": report}))
    if correct:
        shutil.rmtree(run.run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
