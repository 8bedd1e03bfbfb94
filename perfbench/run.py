#!/usr/bin/env python3
"""End-to-end benchmark of qqo_serve and the qqo CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library, both entry
points and the helper `qqo_bench` into $CARGO_TARGET_DIR (default
.bench_build). Each run:

  1. generates the workload's inputs from --seed (qqo_bench gen), before any
     clock starts;
  2. sets the system under test up several times and keeps the median
     (setup_s);
  3. drives it in a closed loop for --seconds: every caller waits for its
     reply, with a fixed window of outstanding requests and a fixed
     QQO_THREADS per workload;
  4. checks every output against the inputs (qqo_bench check) and exits 1
     on any mismatch;
  5. with --trace 1, replays the first ops layer by layer with spans
     (qqo_bench trace), checks the replay against the entry point's output,
     and calibrates the host.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones; the lines before it are a readable table.
"""

import argparse
import fcntl
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

# QQO_THREADS and window are fixed per workload (see BENCHMARK.json "why").
# The daemon keeps one request per pool worker (QQO_THREADS=3 is the
# caller plus 2 workers) and leaves a vCPU to its request-parsing thread
# and the client: on a 4-vCPU host, serve_repeat's throughput spread
# across seeds (with 10x10 batches) was 5% at QQO_THREADS=3 / window 2
# against 30% at 4 / 3. A cache hit spends most of its time parsing the
# request, which the daemon does on one thread, so a second outstanding
# hit only queues behind the first: serve_repeat keeps one request out
# (QQO_THREADS=2, one worker), and its latency is the hit's own.
# A qqo process per op leaves the host idle between ops, and an idle vCPU
# wakes late: one decomposed join took 440-860 ms at QQO_THREADS=2 but
# 800-870 ms at 1, so the CLI workloads run serially.
#
# The serve workloads run for --seconds. The CLI workloads cycle through a
# fixed mix of input shapes whose solves differ up to 10x in cost, so they
# run whole cycles, as many as fit --seconds at `cycle_s` seconds per
# cycle: every run measures the same mix, and the percentiles stay put.
WORKLOADS = {
    "serve_fresh": dict(kind="serve", threads=3, window=2, setups=5,
                        inputs_per_s=25, trace_ops=6),
    "serve_repeat": dict(kind="serve", threads=2, window=1, setups=5,
                         inputs_per_s=0, trace_ops=96),
    "join_decompose": dict(kind="cli", threads=1, window=1, setups=5,
                           cycle_s=3.7, trace_ops=3),
    "device_paths": dict(kind="cli", threads=1, window=1, setups=5,
                         cycle_s=6.5, trace_ops=2),
}

# (name, unit, better); the order is the output order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (name, unit, better, the end-to-end metric and workload it should move).
PER_LAYER = [
    ("serve.parse_ms", "ms", "lower", "latency_p50_ms on serve_repeat"),
    ("serve.render_ms", "ms", "lower", "latency_p50_ms on serve_repeat"),
    ("serve.wait_ms", "ms", "lower", "latency_p50_ms on serve_repeat"),
    ("cache.lookup_ms", "ms", "lower", "latency_p50_ms on serve_repeat"),
    ("cache.insert_ms", "ms", "lower", "cpu_ms_per_op on serve_fresh"),
    ("cache.hit_ratio", "ratio", "higher", "latency_p50_ms on serve_repeat"),
    ("cache.evictions", "count", "lower", "cpu_ms_per_op on serve_fresh"),
    ("cache.rejections", "count", "lower", "latency_p50_ms on serve_repeat"),
    ("qubo.signature_ms", "ms", "lower", "throughput_ops_s on serve_repeat"),
    ("qubo.verify_ms", "ms", "lower", "throughput_ops_s on serve_repeat"),
    ("mqo.encode_ms", "ms", "lower", "latency_p50_ms on serve_repeat"),
    ("mqo.decode_ms", "ms", "lower", "latency_p50_ms on serve_repeat"),
    ("mqo.qubo_terms", "count", "lower", "latency_p50_ms on serve_repeat"),
    ("joinorder.encode_ms", "ms", "lower", "latency_p50_ms on join_decompose"),
    ("joinorder.decode_ms", "ms", "lower", "latency_p50_ms on join_decompose"),
    ("joinorder.qubo_vars", "count", "lower",
     "latency_p50_ms on join_decompose"),
    ("joinorder.valid_ratio", "ratio", "higher",
     "valid_plan_rate on join_decompose"),
    ("anneal.solve_ms", "ms", "lower", "throughput_ops_s on serve_fresh"),
    ("anneal.proposals", "count", "lower", "cpu_ms_per_op on serve_fresh"),
    ("anneal.ns_per_proposal", "ns", "lower",
     "throughput_ops_s and cpu_ms_per_op on serve_fresh"),
    ("anneal.best_read_ratio", "ratio", "higher",
     "throughput_ops_s on serve_fresh"),
    ("embed.ms", "ms", "lower", "latency_p50_ms on device_paths"),
    ("embed.attempts", "count", "lower", "latency_p50_ms on device_paths"),
    ("embed.success_ratio", "ratio", "higher",
     "latency_p50_ms on device_paths"),
    ("embed.physical_qubits", "count", "lower",
     "latency_p50_ms on device_paths"),
    ("embed.max_chain", "count", "lower", "latency_p50_ms on device_paths"),
    ("transpile.ms", "ms", "lower", "latency_p50_ms on device_paths"),
    ("transpile.trials", "count", "lower", "latency_p50_ms on device_paths"),
    ("transpile.routed_depth", "count", "lower",
     "latency_p50_ms on device_paths"),
    ("variational.qaoa_ms", "ms", "lower",
     "latency_p50_ms and cpu_ms_per_op on device_paths"),
    ("variational.evaluations", "count", "lower",
     "latency_p50_ms and cpu_ms_per_op on device_paths"),
    ("circuit.ms_per_evaluation", "ms", "lower",
     "latency_p50_ms and cpu_ms_per_op on device_paths"),
    ("decompose.self_ms", "ms", "lower",
     "latency_p50_ms and latency_tail_ms on join_decompose"),
    ("decompose.block_ms", "ms", "lower",
     "latency_p50_ms and latency_tail_ms on join_decompose"),
    ("decompose.rounds", "count", "lower",
     "latency_p50_ms and latency_tail_ms on join_decompose"),
    ("decompose.subproblems", "count", "lower",
     "latency_p50_ms and latency_tail_ms on join_decompose"),
    ("decompose.improving_round_ratio", "ratio", "higher",
     "latency_p50_ms and latency_tail_ms on join_decompose"),
    ("decompose.parallel_efficiency", "ratio", "higher",
     "latency_p50_ms and latency_tail_ms on join_decompose"),
    ("core.dispatch_overhead_ms", "ms", "lower",
     "flat on every workload"),
    ("pool.utilization", "ratio", "higher",
     "throughput_ops_s on serve_fresh and join_decompose"),
    ("io.load_ms", "ms", "lower",
     "latency_p50_ms on join_decompose and device_paths"),
    ("trace.overhead_ms", "ms", "lower", "none (tracing cost)"),
    ("host.calib_wall_ms", "ms", "lower", "none (host calibration)"),
    ("host.calib_cpu_ms", "ms", "lower", "none (host calibration)"),
    ("host.steal_share", "ratio", "lower", "none (host calibration)"),
    ("host.scaling", "x", "higher", "none (host calibration)"),
    ("quality.error_rate", "ratio", "lower", "every workload"),
    ("quality.valid_plan_rate", "ratio", "higher", "every workload"),
    ("quality.plan_cost_gap", "ratio", "lower", "every workload"),
]

CALIB_ITERATIONS = 40_000_000
F_SETPIPE_SZ = getattr(fcntl, "F_SETPIPE_SZ", 1031)
BUILD_TARGETS = ["qqo_cli", "qqo_serve_bin", "qqo_bench"]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"]
                 + BUILD_TARGETS)
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=880)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(step)}")
    return {
        "qqo": os.path.join(out, "tools", "qqo"),
        "serve": os.path.join(out, "tools", "qqo_serve"),
        "bench": os.path.join(out, "qqo_bench"),
    }


def run_json(argv, env=None, timeout=170):
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=timeout)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def proc_stat_cpu():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields


def steal_share(before, after):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def process_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def process_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def percentile(sorted_values, p):
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n):
    """Highest whole percentile with at least 10 samples beyond it, between
    p50 and p90. The cap matters only for serve_repeat (about 1000 ops):
    there p99 is set by vCPU preemption on a shared host (with 10x10
    batches it spread 61% across five seeds, p90 23%)."""
    return min(90, max(50, 100 * (n - 10) // n))


# ---------------------------------------------------------------------------
# qqo_serve workloads
# ---------------------------------------------------------------------------


class Daemon:
    """qqo_serve on one stdin/stdout connection."""

    def __init__(self, binary, env):
        self.proc = subprocess.Popen(
            [binary], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env, bufsize=1 << 20)
        # A request (about 85 KB) then fits the pipe whole, so sending it
        # never waits for the daemon to start reading.
        try:
            fcntl.fcntl(self.proc.stdin.fileno(), F_SETPIPE_SZ, 1 << 20)
        except OSError:
            pass

    def send(self, request_id, body):
        self.proc.stdin.write(b'{"id":"' + request_id.encode() + b'",'
                              + body[1:] + b"\n")
        self.proc.stdin.flush()

    def receive(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("qqo_serve closed its output")
        return line.decode().rstrip("\n")

    def call(self, request_id, body):
        self.send(request_id, body)
        return self.receive()

    def stats(self, request_id):
        response = json.loads(self.call(request_id, b'{"type":"stats"}'))
        return response["result"]["cache"]

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def closed_loop(daemon, bodies, ids, window, seconds, min_ops, on_done):
    """Keeps `window` requests outstanding until `seconds` have passed and
    `min_ops` were sent; responses come back in request order. Returns the
    (start, end) of the loop."""
    gc.disable()  # no collector pauses inside measured latencies
    start = time.perf_counter()
    deadline = start + seconds
    sent_at = []
    done = 0

    def send_next():
        if len(sent_at) >= len(bodies):
            raise BenchError("ran out of generated inputs")
        daemon.send(ids(len(sent_at)), bodies[len(sent_at)])
        sent_at.append(time.perf_counter())

    while len(sent_at) < min(window, max(min_ops, 1)):
        send_next()
    while done < len(sent_at):
        response = daemon.receive()
        now = time.perf_counter()
        on_done(done, response, (now - sent_at[done]) * 1000.0)
        done += 1
        if now < deadline or len(sent_at) < min_ops:
            send_next()
    end = time.perf_counter()
    gc.enable()
    return start, end


def run_serve(cfg, manifest, bins, env, args, workdir, rows):
    warm = [item["line"].encode() for item in manifest["warm"]]
    items = manifest["ops"]
    bodies = [item["line"].encode() for item in items]
    if manifest["cycle"]:
        repeats = max(1, math.ceil(args.seconds * 2000 / len(bodies)))
        bodies = bodies * repeats
    window = cfg["window"]
    setups = []
    first_warm = None
    daemon = None
    try:
        for attempt in range(cfg["setups"]):
            begin = time.perf_counter()
            daemon = Daemon(bins["serve"], env)
            pong = json.loads(daemon.call("ping", b'{"type":"ping"}'))
            if not pong.get("ok"):
                raise BenchError("qqo_serve did not answer ping")
            warm_rows = []
            closed_loop(daemon, warm, lambda i: f"w{i}", window, 0.0,
                        len(warm),
                        lambda i, r, ms: warm_rows.append(r))
            setups.append(time.perf_counter() - begin)
            if first_warm is None:
                first_warm = warm_rows
            elif warm_rows != first_warm:
                raise BenchError("set-up responses differ between set-ups")
            if attempt + 1 < cfg["setups"]:
                daemon.close()
        for i, response in enumerate(first_warm):
            rows.append({"phase": "warm", "index": i, "response": response})
        stats_before = daemon.stats("s0") if args.trace else None
        cpu_before = process_cpu_s(daemon.proc.pid)
        latencies = []

        def on_done(i, response, ms):
            latencies.append(ms)
            rows.append({"phase": "op", "index": i, "response": response,
                         "latency_ms": ms})

        start, end = closed_loop(daemon, bodies, lambda i: f"o{i}", window,
                                 args.seconds, manifest["prefix_ops"], on_done)
        cpu = process_cpu_s(daemon.proc.pid) - cpu_before
        rss = process_peak_rss_mb(daemon.proc.pid)
        cache = None
        if args.trace:
            after = daemon.stats("s1")
            cache = {k: after[k] - stats_before[k] for k in
                     ("hits_exact", "hits_isomorphic", "misses",
                      "evictions", "rejections")}
    finally:
        if daemon is not None:
            daemon.close()
    return dict(setups=setups, latencies=latencies, wall=end - start,
                cpu=cpu, rss=rss, cache=cache)


# ---------------------------------------------------------------------------
# qqo CLI workloads
# ---------------------------------------------------------------------------


def run_cli_op(item, bins, env, cwd):
    """Runs one op's qqo invocations; returns (runs, cpu_s, peak_rss_mb)."""
    runs = []
    cpu = 0.0
    rss = 0.0
    for argv in item["runs"]:
        proc = subprocess.Popen([bins["qqo"]] + argv, cwd=cwd, env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss / 1024.0)
        runs.append({"exit": proc.returncode, "stdout": out.decode()})
    return runs, cpu, rss


def cli_cycles(cfg, seconds):
    return max(1, round(seconds / cfg["cycle_s"]))


def cli_ops(cfg, manifest, seconds):
    return max(manifest["prefix_ops"],
               cli_cycles(cfg, seconds) * manifest["period"])


def run_cli(cfg, manifest, bins, env, args, workdir, rows):
    setups = []
    first = None
    for _ in range(cfg["setups"]):
        begin = time.perf_counter()
        runs, _, _ = run_cli_op(manifest["warm"][0], bins, env, workdir)
        setups.append(time.perf_counter() - begin)
        if first is None:
            first = runs
        elif runs != first:
            raise BenchError("set-up outputs differ between set-ups")
    rows.append({"phase": "warm", "index": 0, "runs": first})
    items = manifest["ops"]
    latencies = []
    cpu = 0.0
    rss = 0.0
    start = time.perf_counter()
    for i in range(cli_ops(cfg, manifest, args.seconds)):
        begin = time.perf_counter()
        runs, op_cpu, op_rss = run_cli_op(items[i], bins, env, workdir)
        ms = (time.perf_counter() - begin) * 1000.0
        latencies.append(ms)
        cpu += op_cpu
        rss = max(rss, op_rss)
        rows.append({"phase": "op", "index": i, "runs": runs,
                     "latency_ms": ms})
    end = time.perf_counter()
    return dict(setups=setups, latencies=latencies, wall=end - start,
                cpu=cpu, rss=rss, cache=None)


# ---------------------------------------------------------------------------
# Host calibration
# ---------------------------------------------------------------------------


def calibrate(bins, steal):
    argv = [bins["bench"], "calib", str(CALIB_ITERATIONS)]
    single = [run_json(argv) for _ in range(3)]
    wall1 = statistics.median(r["wall_ms"] for r in single)
    copies = os.cpu_count() or 1
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
             for _ in range(copies)]
    walls = []
    for proc in procs:
        out, _ = proc.communicate(timeout=120)
        walls.append(json.loads(out)["wall_ms"])
    return {
        "host.calib_wall_ms": wall1,
        "host.calib_cpu_ms": statistics.median(r["cpu_ms"] for r in single),
        "host.steal_share": steal,
        "host.scaling": copies * wall1 / statistics.median(walls),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def end_to_end(measured):
    latencies = sorted(measured["latencies"])
    n = len(latencies)
    p_tail = tail_percentile(n)
    return {
        "setup_s": statistics.median(measured["setups"]),
        "throughput_ops_s": n / measured["wall"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": percentile(latencies, p_tail),
        "cpu_ms_per_op": measured["cpu"] * 1000.0 / n,
        "peak_rss_mb": measured["rss"],
    }, p_tail


def run(args):
    cfg = WORKLOADS[args.workload]
    stat_before = proc_stat_cpu()
    bins = build(build_dir())
    env = dict(os.environ, QQO_THREADS=str(cfg["threads"]))
    for name in ("QQO_DISPATCH", "QQO_DECOMPOSE", "QQO_FAULTS", "QQO_SIMD",
                 "QQO_SERVE_CACHE", "QQO_SERVE_QUEUE"):
        env.pop(name, None)
    workdir = args.workdir or tempfile.mkdtemp(
        prefix=f"run-{args.workload}-", dir=build_dir())
    try:
        if cfg["kind"] == "serve":
            count = max(64, int(args.seconds * cfg["inputs_per_s"]) + 32)
        else:
            # Whole cycles of at most 16 input shapes.
            count = 16 * cli_cycles(cfg, args.seconds)
        # Any integer seed, taken modulo 2**64.
        seed = str(args.seed % (1 << 64))
        subprocess.run([bins["bench"], "gen", args.workload, seed,
                        str(count), workdir], check=True, timeout=170)
        with open(os.path.join(workdir, "manifest.json")) as f:
            manifest = json.load(f)
        rows = []
        runner = run_serve if cfg["kind"] == "serve" else run_cli
        measured = runner(cfg, manifest, bins, env, args, workdir, rows)
        with open(os.path.join(workdir, "results.jsonl"), "w") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")
        check = run_json([bins["bench"], "check", workdir])
        correct = check["correct"]
        for mismatch in check["mismatches"]:
            log(f"MISMATCH {mismatch}")
        e2e, p_tail = end_to_end(measured)
        attempted = check["attempted"]
        quality = {
            "quality.error_rate": check["failed"] / attempted,
            "quality.valid_plan_rate": check["valid_plan_rate"],
            "quality.plan_cost_gap": check["plan_cost_gap"],
        }
        if args.trace:
            traced = run_json([bins["bench"], "trace", workdir,
                               str(cfg["trace_ops"])], env=env)
            for mismatch in traced["mismatches"]:
                log(f"MISMATCH {mismatch}")
            correct = correct and traced["correct"]
            metrics = dict(traced["metrics"])
            cache = measured["cache"] or {}
            hits = cache.get("hits_exact", 0) + cache.get("hits_isomorphic", 0)
            lookups = hits + cache.get("misses", 0)
            metrics["cache.hit_ratio"] = hits / lookups if lookups else 0.0
            metrics["cache.evictions"] = cache.get("evictions", 0)
            metrics["cache.rejections"] = cache.get("rejections", 0)
            metrics["pool.utilization"] = measured["cpu"] / (
                measured["wall"] * cfg["threads"])
            metrics.update(calibrate(bins, steal_share(stat_before,
                                                       proc_stat_cpu())))
            metrics.update(quality)
            if metrics["quality.plan_cost_gap"] is None:
                metrics["quality.plan_cost_gap"] = 0.0
            if set(metrics) != {row[0] for row in PER_LAYER}:
                raise BenchError("per-layer metrics differ from PER_LAYER")
            table = [(n, u, metrics[n], f"moves {m}")
                     for n, u, _, m in PER_LAYER]
        else:
            metrics = e2e
            table = [(n, u, metrics[n], "") for n, u, _ in END_TO_END]
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}: QQO_THREADS={cfg['threads']} "
          f"window={cfg['window']} seed={args.seed} ops={attempted} "
          f"nproc={os.cpu_count()} tail=p{p_tail:g} "
          f"trace={args.trace}")
    for name, unit, value, note in table:
        print(f"  {name:34s} {value:14.6f} {unit:6s} {note}")
    print("quality " + json.dumps({
        "error_rate": check["failed"] / attempted,
        "valid_plan_rate": check["valid_plan_rate"],
        "plan_cost_gap": check["plan_cost_gap"],
        "digest": check["digest"]}))
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": check["failed"],
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", help="keep the run's inputs and "
                        "results in this directory")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        return run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        log(f"error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
