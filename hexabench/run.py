#!/usr/bin/env python3
"""hexabench: end-to-end and per-layer benchmark of hexastore_server.

Run from the repository root:

    python3 hexabench/run.py --workload analytic --seed 1 --seconds 10 --trace 0

Builds hexastore_server and the hexabench load generator (CMake, Release,
into .bench_build/), generates a 200k-triple LUBM file from --seed, starts
the real server on it several times to time set-up, drives the last one
with the workload's seeded request streams for --seconds, checks every
answer against an oracle, and prints one JSON result as the last line of
stdout. With --trace 1 it also replays the same streams in-process with
spans around each module's public calls and prints the per-layer
metrics instead. README.md in this directory describes every metric.
"""

import argparse
import hashlib
import http.client
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
SERVER_BIN = os.path.join(BUILD, "hexastore", "src", "server", "hexastore_server")
BENCH_BIN = os.path.join(BUILD, "hexabench")

WORKLOADS = ("analytic", "mixed", "ingest")
SETUPS = 3  # server start-ups per run; setup_s is their median
SERVER_START_LIMIT_S = 120
# The workload's closed-loop requests: reads on analytic and mixed,
# /insert and /erase on ingest.
CLOSED = {"analytic": "reads", "mixed": "reads", "ingest": "writes"}
# Every --trace 1 metric with its unit (README.md defines each).
PER_LAYER_UNITS = {
    "server.transport_us": "us",
    "server.handle_write_ms": "ms",
    "server.write_met_share": "ratio",
    "query.parse_us": "us",
    "query.plan_ms": "ms",
    "query.plan_cache_hit_rate": "ratio",
    "query.plan_cache_invalidations": "count",
    "query.eval_ms": "ms",
    "query.bgp_rows_per_result": "ratio",
    "query.modifiers_ms": "ms",
    "query.render_us_per_row": "us",
    "query.engine_over_paper": "ratio",
    "delta.pin_us": "us",
    "delta.stage_ns_per_op": "ns",
    "delta.compact_ms": "ms",
    "delta.compact_max_ms": "ms",
    "delta.compactions": "count",
    "delta.base_merges": "count",
    "delta.write_amp": "ratio",
    "dict.encode_ns_per_triple": "ns",
    "rdf.parse_ns_per_triple": "ns",
    "wal.log_ns_per_op": "ns",
    "wal.fsyncs_per_1k_ops": "count",
    "wal.bytes_per_triple": "B",
    "trace.unattributed_share": "ratio",
    "trace.overhead_req_per_s": "req/s",
    "trace.accounting_errors": "count",
}


class Abort(Exception):
    """Raised by the signal handler so cleanup runs on SIGTERM/SIGINT."""


def log(msg):
    print("hexabench: " + msg, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "hexastore_server", "hexabench"])
    with open(os.path.join(BUILD_ROOT, "build.log"), "ab") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise RuntimeError("build failed; see .bench_build/build.log")


def provenance():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "?"
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    sanitizer = any(cache.get(k, "OFF").upper() in ("ON", "1", "TRUE")
                    for k in ("HEXA_SANITIZE", "HEXA_TSAN"))
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "compiler": version,
        "build_type": build_type,
        "flagged": sanitizer or build_type in ("", "Debug"),
    }


def server_env(wal_dir):
    # StoreOptions::FromEnv() defaults: drop every inherited HEXA_* knob.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HEXA_")}
    if wal_dir:
        env["HEXA_WAL_DIR"] = wal_dir
    env["HEXA_PORT"] = "0"  # kernel-assigned, read back from the log
    return env


def http_get(port, path, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class ServerProcess:
    """One hexastore_server over the data file, with a private WAL dir."""

    def __init__(self, run_dir, index, data):
        self.wal = os.path.join(run_dir, "wal%d" % index)
        os.makedirs(self.wal)
        self.err_path = os.path.join(run_dir, "server%d.log" % index)
        self.port = None
        self.proc = None
        self.data = data

    def start(self):
        """Spawns the server; returns seconds until /healthz answers 200."""
        err = open(self.err_path, "wb")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen([SERVER_BIN, self.data],
                                         stdout=subprocess.DEVNULL, stderr=err,
                                         env=server_env(self.wal))
        finally:
            err.close()
        while time.perf_counter() - t0 < SERVER_START_LIMIT_S:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited: " + self.log_tail())
            if self.port is None:
                with open(self.err_path, "rb") as f:
                    m = re.search(rb"listening on http://127\.0\.0\.1:(\d+)/",
                                  f.read())
                if m:
                    self.port = int(m.group(1))
            if self.port is not None:
                try:
                    status, _ = http_get(self.port, "/healthz", timeout=5)
                    if status == 200:
                        return time.perf_counter() - t0
                except OSError:
                    pass
            time.sleep(0.002)
        raise RuntimeError("server did not become healthy")

    def log_tail(self):
        with open(self.err_path, "rb") as f:
            return f.read()[-400:].decode(errors="replace")

    def metrics(self):
        status, body = http_get(self.port, "/metrics.json")
        if status != 200:
            raise RuntimeError("/metrics.json answered %d" % status)
        doc = json.loads(body)
        flat = {}
        for section in ("counters", "gauges"):
            for k, v in doc.get(section, {}).items():
                if isinstance(v, (int, float)):
                    flat[k] = v
        return flat

    def status_bytes(self, field):
        """A byte-sized field of /proc/<pid>/status, such as VmHWM."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) * 1024
        raise RuntimeError("no %s" % field)

    def stop(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        shutil.rmtree(self.wal, ignore_errors=True)


def run_json(cmd, timeout, env=None):
    """Runs a hexabench subcommand; returns (exit code, last stdout JSON)."""
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          env=env)
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("%s printed nothing (exit %d)" % (cmd[1], done.returncode))
    return done.returncode, json.loads(lines[-1])


def ratio(num, den):
    return num / den if den else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "server"))):
        log("no hexastore sources next to %s; run from a full checkout" % HERE)
        return 2

    def on_signal(signum, frame):
        raise Abort("signal %d" % signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    build()
    prov = provenance()
    if prov["flagged"]:
        log("WARNING: %s build with sanitizers=%s; figures are not "
            "comparable" % (prov["build_type"] or "untyped", prov["flagged"]))

    run_dir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    servers = []
    try:
        return measure(args, prov, run_dir, servers)
    finally:
        for s in servers:
            s.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, prov, run_dir, servers):
    data = os.path.join(run_dir, "data.nt")
    subprocess.run([BENCH_BIN, "gen", "--seed", str(args.seed), "--out", data],
                   check=True, timeout=120)
    with open(data, "rb") as f:
        data_sha = hashlib.sha256(f.read()).hexdigest()

    # Set-up: spawn to first healthy /healthz, several times; the last
    # server stays up for the workload. The resident size right after
    # set-up is the space metric: the loaded store's footprint. Sizes
    # under load (the VmHWM peak, printed in the report) depend on which
    # transient buffers overlap and on allocator retention during
    # compactions, and vary too much from run to run to carry a bound.
    setups = []
    loaded_rss = []
    for i in range(SETUPS):
        server = ServerProcess(run_dir, i, data)
        servers.append(server)
        setups.append(server.start())
        loaded_rss.append(server.status_bytes("VmRSS"))
        if i + 1 < SETUPS:
            server.stop()
    server = servers[-1]
    before = server.metrics()
    rss = ratio(statistics.median(loaded_rss),
                before.get("hexa_delta_size_triples", 0))

    code, drive = run_json(
        [BENCH_BIN, "drive", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--data", data,
         "--port", str(server.port)],
        timeout=args.seconds + 100)
    after = server.metrics()
    peak_rss = server.status_bytes("VmHWM")
    server.stop()
    counters = {k: after[k] - before.get(k, 0) for k in after}
    live = after.get("hexa_delta_size_triples", 0)

    closed = drive[CLOSED[args.workload]]
    write_ops = drive["triples_inserted"] + drive["triples_erased"]
    attempted = drive["attempted"]
    failed = drive["failed"]
    correct = code == 0 and drive["wrong"] == 0
    if drive["error"]:
        log("drive: " + drive["error"])

    # Everything the workload measures, under its design names
    # (README.md); the end-to-end metrics below are drawn from it.
    reads, writes = drive["reads"], drive["writes"]
    report = {
        "setup_s": [statistics.median(setups), "s"],
        "failed_share": [ratio(failed, attempted), "ratio"],
        "rss_bytes_per_triple": [rss, "B", "after load, before the workload"],
        "peak_rss_bytes_per_triple": [ratio(peak_rss, live), "B",
                                      "VmHWM at the end of the run"],
    }
    if args.workload != "ingest":
        report["read_qps"] = [reads["per_s"], "req/s"]
        report["read_p50_ms"] = [reads["p50_ms"], "ms"]
        report["read_tail_ms"] = [reads["tail_ms"], "ms",
                                  "p%g, %d samples beyond, n=%d" % (
                                      reads["tail_pct"], reads["tail_beyond"],
                                      reads["ok"])]
    if args.workload != "analytic":
        report["write_tps"] = [drive["write_triples_per_s"], "triples/s"]
        report["write_p50_ms"] = [writes["p50_ms"], "ms"]
        report["write_tail_ms"] = [writes["tail_ms"], "ms",
                                   "p%g, %d samples beyond, n=%d; %d over "
                                   "100 ms taking %.2f s" % (
                                       writes["tail_pct"], writes["tail_beyond"],
                                       writes["ok"], writes["over_100ms"],
                                       writes["over_100ms_s"])]
    if args.workload == "mixed":
        report["write_met_share"] = [drive["write_met_share"], "ratio",
                                     "%d of %d offered writes acked within "
                                     "100 ms of due" % (drive["met_writes"],
                                                        drive["offered_writes"])]
        report["write_lag_p50_ms"] = [drive["write_lag_p50_ms"], "ms",
                                      "due time to ack, acked writes only"]
    print("workload %s seed %d seconds %g" % (args.workload, args.seed,
                                              args.seconds))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("inputs data_sha256=%s stream_hash=%s preload_live_triples=%d"
          % (data_sha, drive["stream_hash"], live))
    print("setup_s samples " + " ".join("%.4f" % s for s in setups))
    for name, entry in report.items():
        print("%-22s %14.6g %-10s %s" % (name, entry[0], entry[1],
                                         entry[2] if len(entry) > 2 else ""))
    print("classes " + json.dumps(drive["classes"], sort_keys=True))

    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "req_per_s": (closed["per_s"], "req/s"),
            "req_p50_ms": (closed["p50_ms"], "ms"),
            "req_tail_ms": (closed["tail_ms"], "ms"),
            "rss_bytes_per_triple": (rss, "B"),
        }
    else:
        trace_dir = os.path.join(run_dir, "trace")
        os.makedirs(trace_dir)
        tcode, traced = run_json(
            [BENCH_BIN, "trace", "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--data", data,
             "--dir", trace_dir],
            timeout=args.seconds + 120, env=server_env(None))
        keep = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(keep, exist_ok=True)
        shutil.copyfile(os.path.join(trace_dir, "spans.tsv"),
                        os.path.join(keep, args.workload + ".spans.tsv"))
        attempted += traced["attempted"]
        failed += traced["failed"]
        correct = correct and tcode == 0 and traced["wrong"] == 0 \
            and traced["accounting_errors"] == 0
        if traced["error"]:
            log("trace: " + traced["error"])
        hits = counters.get("hexa_plan_cache_hits", 0)
        misses = counters.get("hexa_plan_cache_misses", 0)
        layer = dict(traced["metrics"])
        layer.update({
            "query.plan_cache_hit_rate": ratio(hits, hits + misses),
            "query.plan_cache_invalidations":
                counters.get("hexa_plan_cache_invalidations", 0),
            "delta.write_amp": ratio(
                counters.get("hexa_delta_merge_run_ops_total", 0)
                + counters.get("hexa_delta_base_rebuild_triples_total", 0),
                counters.get("hexa_delta_staged_ops_total", 0)),
            "delta.compactions": counters.get("hexa_delta_compactions_total", 0),
            "delta.base_merges": counters.get("hexa_delta_base_merges_total", 0),
            "wal.fsyncs_per_1k_ops": 1000 * ratio(
                counters.get("hexa_wal_fsyncs_total", 0), write_ops),
            "wal.bytes_per_triple": ratio(
                counters.get("hexa_wal_appended_bytes", 0), write_ops),
            "server.write_met_share": drive["write_met_share"],
            "trace.overhead_req_per_s": closed["per_s"] - traced["traced_req_per_s"],
            "trace.accounting_errors": traced["accounting_errors"],
        })
        missing = set(PER_LAYER_UNITS) ^ set(layer)
        if missing:
            raise RuntimeError("per-layer metrics out of sync: %s" % sorted(missing))
        metrics = {name: (layer[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
        print("traced spans=%d traced_req_per_s=%g (untraced %g)" % (
            traced["spans"], traced["traced_req_per_s"], closed["per_s"]))

    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Abort as e:
        log("aborted: %s" % e)
        sys.exit(1)
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log("error: %s" % e)
        sys.exit(1)
