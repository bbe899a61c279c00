#!/usr/bin/env python3
"""End-to-end benchmark of colscope on generated corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the Release CLI and the
benchmark harness into .bench_build/ (only when a source changed), makes
the workload's corpora from --seed with `colscope gen-corpus`, does the
set-up and one untimed warm-up, then repeats the workload's operation for
S seconds. Every output is checked against the oracle in oracle.cc and
the property checks below. The last line of stdout is one JSON object:
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 reports the per-layer metrics of a traced run and
writes its spans as a Chrome trace to .bench_build/traces/. See README.md.
"""

import argparse
import concurrent.futures
import ctypes
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

T0 = time.monotonic()

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
CLI = os.path.join(BUILD_DIR, "colscope")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
NPROC = os.cpu_count() or 1

WORKLOADS = {
    # Serial CLI defaults: no pool, no exchange, no cache.
    "scope-serial": {"kind": "batch", "schemas": 32, "threads": 1,
                     "exchange": False},
    # Keep-all exchange over the fault-free in-memory transport on a pool.
    "federated-pool": {"kind": "batch", "schemas": 24,
                       "threads": min(4, NPROC), "exchange": True},
    # Resident daemon with a warm cache, two closed-loop clients.
    "serve-warm": {"kind": "serve", "schemas": 12, "clients": 2,
                   "variant_corpora": 4, "variant_schemas": 64},
}
VARIANT_SEED_OFFSET = 1000003


class BenchError(Exception):
    """Infrastructure failure: no result line is printed."""


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def source_files():
    files = [os.path.join(ROOT, "tools", "colscope_cli.cc")]
    for base in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, _, names in os.walk(base):
            files += [os.path.join(dirpath, n) for n in names
                      if n.endswith((".cc", ".h", ".txt"))]
    return sorted(files)


def ensure_built():
    """Builds the CLI and harness when any source changed; returns the
    seconds spent building (0 when the build was current)."""
    for needed in ("src", os.path.join("tools", "colscope_cli.cc")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} not found: run from a colscope "
                             "source checkout")
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    stamp = digest.hexdigest()
    stamp_path = os.path.join(BUILD_DIR, "source.sha256")
    if (os.path.exists(CLI) and os.path.exists(HARNESS)
            and os.path.exists(stamp_path)
            and open(stamp_path).read() == stamp):
        return 0.0
    started = time.monotonic()
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_ROOT, "build.log")
    with open(build_log, "w") as out:
        for cmd in (["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD_DIR, "-j", str(min(4, NPROC))]):
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                raise BenchError(f"build failed; see {build_log}")
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return time.monotonic() - started


# -------------------------------------------------------------- processes

_libc = ctypes.CDLL(None, use_errno=True)


def _die_with_parent():
    # PR_SET_PDEATHSIG: the daemon gets SIGTERM if this process dies
    # first. Only used before any client thread exists.
    _libc.prctl(1, signal.SIGTERM, 0, 0, 0)


def run_op(cmd, out_path, err_path):
    """Runs one program invocation with stdout to `out_path`. Returns
    (wall seconds, exit code, peak RSS in MiB) of that process alone."""
    with open(out_path, "wb") as out, open(err_path, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def gen_corpus(out_dir, schemas, seed):
    subprocess.run([CLI, "gen-corpus", "--out", out_dir, "--schemas",
                    str(schemas), "--seed", str(seed)], check=True,
                   stdout=subprocess.DEVNULL)
    return sorted(glob.glob(os.path.join(out_dir, "*.sql")))


def ddl_flags(paths):
    flags = []
    for path in paths:
        flags += ["--ddl", path]
    return flags


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Daemon:
    """One `colscope serve` process; stop() always ends and reaps it."""

    def __init__(self, workdir, cache_dir):
        self.port_file = os.path.join(workdir, "port")
        self.log_path = os.path.join(workdir, "serve.log")
        self.proc = None
        self.usage = None
        self.exit_code = None
        with open(self.log_path, "wb") as err:
            self.proc = subprocess.Popen(
                [CLI, "serve", "--listen", "127.0.0.1:0", "--port-file",
                 self.port_file, "--cache-dir", cache_dir,
                 "--log-level", "warn"],
                stdout=subprocess.DEVNULL, stderr=err,
                preexec_fn=_die_with_parent)
        self.endpoint = None
        deadline = time.monotonic() + 30
        while self.endpoint is None:
            text = ""
            if os.path.exists(self.port_file):
                text = open(self.port_file).read().strip()
            if text:
                self.endpoint = f"127.0.0.1:{int(text)}"
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("colscope serve did not start")
            else:
                time.sleep(0.005)

    def _reap(self, timeout):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                self.usage = usage
                self.exit_code = os.waitstatus_to_exitcode(status)
                self.proc.returncode = self.exit_code
                return True
            time.sleep(0.01)
        return False

    def stop(self):
        """Shutdown RPC, then SIGTERM, then SIGKILL; always reaps."""
        if self.proc is None or self.exit_code is not None:
            return
        if self.endpoint is not None:
            try:
                subprocess.run([CLI, "shutdown", "--connect", self.endpoint],
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, timeout=30)
            except subprocess.TimeoutExpired:
                pass
            if self._reap(20):
                return
        self.proc.send_signal(signal.SIGTERM)
        if self._reap(10):
            return
        self.proc.kill()
        self._reap(3600)

    def drain_line(self):
        for line in open(self.log_path, errors="replace"):
            if "colscoped drained:" in line:
                return dict(kv.split("=") for kv in line.split(":", 1)[1].split())
        return None


# ----------------------------------------------------------------- checks

def load_report(path):
    with open(path) as f:
        return json.load(f)


def property_problems(report):
    """Checks every linkage joins two kept elements of different schemas
    and of one kind, and that the counts agree with the element list."""
    problems = []
    if report.get("status") != "ok":
        problems.append(f"status {report.get('status')}")
    elements = {e["name"]: e for e in report["elements"]}
    kept = sum(1 for e in report["elements"] if e["linkable"])
    if kept != report["num_kept"] or len(elements) != report["num_elements"]:
        problems.append("element counts disagree with the element list")
    for link in report["linkages"]:
        a, b = elements.get(link["a"]), elements.get(link["b"])
        if a is None or b is None:
            problems.append(f"linkage names an unknown element: {link}")
        elif not (a["linkable"] and b["linkable"]):
            problems.append(f"linkage joins a pruned element: {link}")
        elif link["a"].split(".")[0] == link["b"].split(".")[0]:
            problems.append(f"linkage within one schema: {link}")
        elif a["kind"] != b["kind"]:
            problems.append(f"linkage joins a table to an attribute: {link}")
        if len(problems) > 5:
            break
    return problems


def oracle_problems(report, ddl, workdir):
    """Runs the independent oracle over `report` for the corpus `ddl`."""
    tsv = os.path.join(workdir, "report.tsv")
    with open(tsv, "w") as f:
        for e in report["elements"]:
            f.write(f"E\t{e['name']}\t{e['kind']}\t{int(bool(e['linkable']))}\n")
        for link in report["linkages"]:
            f.write(f"L\t{link['a']}\t{link['b']}\n")
    out = subprocess.run(
        [HARNESS, "oracle", "--report-tsv", tsv] + ddl_flags(ddl), check=True, capture_output=True, text=True)
    verdict = json.loads(out.stdout.strip().splitlines()[-1])
    log(f"oracle: {json.dumps(verdict)}")
    return [] if verdict["ok"] else verdict["problems"] or ["oracle rejected"]


def check_report(report, ddl, workdir):
    return property_problems(report) + oracle_problems(report, ddl, workdir)


# -------------------------------------------------------------- workloads

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_s, latencies, timed_s, peak_rss_mib):
    """The metrics every workload reports with --trace 0. A match is one
    `colscope match` the user runs: a CLI process on the batch workloads,
    a client-timed request to the daemon on serve-warm."""
    return {
        "setup_s": metric(setup_s, "s"),
        "match_p50_s": metric(statistics.median(latencies), "s"),
        "requests_per_s": metric(len(latencies) / timed_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_mib, "MiB"),
    }


class Run:
    def __init__(self, args, workdir, build_s):
        self.args = args
        self.cfg = WORKLOADS[args.workload]
        self.workdir = workdir
        self.build_s = build_s
        self.err_path = os.path.join(workdir, "stderr.log")
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def setup_s(self):
        """Seconds from process start to now, less any build."""
        return time.monotonic() - T0 - self.build_s

    def timed_loop(self, op):
        """Repeats `op` (a whole round) until --seconds have passed;
        returns the seconds the timed phase took."""
        started = time.monotonic()
        while True:
            op()
            elapsed = time.monotonic() - started
            if elapsed >= self.args.seconds:
                return elapsed


class BatchRun(Run):
    """scope-serial and federated-pool: one `colscope match` per op."""

    def command(self, ddl, exchange=None, threads=None):
        cfg = self.cfg
        exchange = cfg["exchange"] if exchange is None else exchange
        threads = cfg["threads"] if threads is None else threads
        cmd = [CLI, "match"] + ddl_flags(ddl) + ["--matcher", "sim", "--json"]
        if threads != 1:
            cmd += ["--threads", str(threads)]
        if exchange:
            cmd += ["--exchange-policy", "keep-all"]
        return cmd

    def run(self):
        ddl = gen_corpus(os.path.join(self.workdir, "corpus"),
                         self.cfg["schemas"], self.args.seed)
        cmd = self.command(ddl)
        ref_path = os.path.join(self.workdir, "warmup.json")
        _, rc, _ = run_op(cmd, ref_path, self.err_path)
        if rc != 0:
            raise BenchError(f"warm-up match exited {rc}")
        setup_s = self.setup_s()
        ref_hash = sha256_file(ref_path)

        times, rss = [], []
        op_path = os.path.join(self.workdir, "op.json")

        def op():
            elapsed, code, peak = run_op(cmd, op_path, self.err_path)
            self.attempted += 1
            if code != 0:
                self.failed += 1
                return
            times.append(elapsed)
            rss.append(peak)
            if sha256_file(op_path) != ref_hash:
                self.problems.append("a timed report differs from the warm-up")

        timed_s = None
        if self.args.trace:
            for _ in range(3):  # the untraced operation time
                op()
        else:
            timed_s = self.timed_loop(op)

        report = load_report(ref_path)
        self.problems += check_report(report, ddl, self.workdir)
        if self.cfg["exchange"]:
            plain = os.path.join(self.workdir, "no_exchange.json")
            _, rc, _ = run_op(self.command(ddl, exchange=False, threads=1),
                              plain, self.err_path)
            if rc != 0 or ([e["linkable"] for e in load_report(plain)["elements"]]
                           != [e["linkable"] for e in report["elements"]]):
                self.problems.append("exchange keep mask differs from the "
                                     "no-exchange mask")
        log("operation seconds: " + " ".join(f"{x:.3f}" for x in times))
        if not times:
            raise BenchError("no operation succeeded")
        if self.args.trace:
            mode = "federated" if self.cfg["exchange"] else "serial"
            return traced_layers(self, mode, ddl, [], statistics.median(times),
                                 ref_path)
        return end_to_end(setup_s, times, timed_s, max(rss))


class ServeRun(Run):
    """serve-warm: two closed-loop clients against one warm daemon."""

    def run(self):
        cfg = self.cfg
        base = gen_corpus(os.path.join(self.workdir, "base"), cfg["schemas"],
                          self.args.seed)
        variants = []
        var_dir = os.path.join(self.workdir, "variants")
        os.makedirs(var_dir)
        for k in range(cfg["variant_corpora"]):
            for path in gen_corpus(os.path.join(self.workdir, f"vc{k}"),
                                   cfg["variant_schemas"],
                                   self.args.seed + VARIANT_SEED_OFFSET + k):
                # A distinct schema name per variant: no request carries
                # two sources of one name.
                dest = os.path.join(var_dir, f"VAR{len(variants):04d}.sql")
                shutil.copyfile(path, dest)
                variants.append(dest)
        self.requests = []  # (ddl list, reply path)
        daemon = Daemon(self.workdir, os.path.join(self.workdir, "cache"))
        try:
            return self.serve(daemon, base, variants)
        finally:
            daemon.stop()

    def request_corpus(self, base, variants, index):
        ddl = list(base)
        ddl[index % len(base)] = variants[index]
        return ddl

    def send(self, daemon, ddl, tag):
        out = os.path.join(self.workdir, f"reply_{tag}.json")
        cmd = [CLI, "match", "--connect", daemon.endpoint, "--json"] + ddl_flags(ddl)
        elapsed, code, _ = run_op(cmd, out, self.err_path)
        self.requests.append((ddl, out, code))
        return elapsed, code

    def serve(self, daemon, base, variants):
        # Set-up: fill the cache with the base corpus, then one warm-up.
        for tag, ddl in (("fill", base),
                         ("warmup", self.request_corpus(base, variants, 0))):
            _, code = self.send(daemon, ddl, tag)
            if code != 0:
                raise BenchError(f"{tag} request exited {code}")
        setup_s = self.setup_s()

        lock = threading.Lock()
        stop = threading.Event()
        state = {"next": 1, "latencies": [], "last_done": 0.0}
        started = time.monotonic()
        rounds = 3 if self.args.trace else None

        def client():
            while True:
                with lock:
                    index = state["next"]
                    done = (stop.is_set() or index >= len(variants)
                            or (rounds is not None and index > rounds)
                            or (rounds is None
                                and time.monotonic() - started >= self.args.seconds))
                    if done:
                        return
                    state["next"] += 1
                elapsed, code = self.send(
                    daemon, self.request_corpus(base, variants, index), index)
                with lock:
                    self.attempted += 1
                    if code != 0:
                        self.failed += 1
                    else:
                        state["latencies"].append(elapsed)
                    state["last_done"] = time.monotonic()

        clients = 1 if self.args.trace else self.cfg["clients"]
        threads = [threading.Thread(target=client) for _ in range(clients)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            stop.set()
            for t in threads:
                if t.is_alive():
                    t.join()
        if state["next"] >= len(variants):
            log("warning: variants ran out before the timed phase ended")
        timed_s = state["last_done"] - started

        daemon.stop()
        drained = daemon.drain_line() or {}
        if daemon.exit_code != 0:
            self.problems.append(f"daemon exited {daemon.exit_code}")
        if (int(drained.get("completed", -1)) != len(self.requests) - self.failed
                or drained.get("failed") != "0"):
            self.problems.append(f"daemon drain accounting {drained} does not "
                                 f"match {len(self.requests)} requests")
        peak_rss = daemon.usage.ru_maxrss / 1024.0

        self.problems += check_report(load_report(self.requests[0][1]), base,
                                      self.workdir)
        self.problems += self.compare_with_cold()
        latencies = state["latencies"]
        log("request seconds: " + " ".join(f"{x:.3f}" for x in latencies))
        if not latencies:
            raise BenchError("no request succeeded")
        if self.args.trace:
            return traced_layers(self, "serve", base, variants[1:],
                                 statistics.median(latencies), None)
        return end_to_end(setup_s, latencies, timed_s, peak_rss)

    def compare_with_cold(self):
        """Every reply must equal a cold CLI report of the same corpus."""
        def cold(item):
            index, (ddl, reply, code) = item
            if code != 0:
                return None
            out = os.path.join(self.workdir, f"cold_{index}.json")
            cmd = [CLI, "match", "--json"] + ddl_flags(ddl)
            _, rc, _ = run_op(cmd, out, self.err_path)
            same = rc == 0 and sha256_file(out) == sha256_file(reply)
            problems = [] if same else [f"reply {index} differs from the cold CLI report"]
            problems += property_problems(load_report(reply))
            os.remove(out)
            return problems

        problems = []
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=min(4, NPROC))
        try:
            for result in pool.map(cold, enumerate(self.requests)):
                problems += result or []
        finally:
            pool.shutdown(cancel_futures=True)
        return problems


def cache_bytes_by_kind(cache_dir):
    """On-disk bytes of each artifact kind (the key's first field)."""
    kinds = {"sig": 0, "model": 0, "keep": 0, "simblock": 0}
    for dirpath, _, names in os.walk(os.path.join(cache_dir, "objects")):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                f.readline()
                key = f.readline().decode(errors="replace")
            kind = key[4:].split("|", 1)[0] if key.startswith("key ") else ""
            if kind in kinds:
                kinds[kind] += os.path.getsize(path)
    return kinds


# ------------------------------------------------------------- traced run

# Per-layer metric -> unit. Each is the harness series of the same name,
# except exchange.ms, the "exchange" span's series exchange_ms.
LAYER_METRICS = {
    "schema.parse_ms": "ms",
    "embed.signatures_ms": "ms",
    "scoping.fit_ms": "ms",
    "scoping.assess_ms": "ms",
    "scoping.assess_sparse_ms": "ms",
    "scoping.streamline_ms": "ms",
    "scoping.checkpoint_payload_ms": "ms",
    "scoping.checkpoint_payload_bytes": "bytes",
    "exchange.ms": "ms",
    "exchange.model_encode_ms": "ms",
    "exchange.model_decode_ms": "ms",
    "exchange.bytes_fetched": "bytes",
    "matching.sim_ms": "ms",
    "matching.pairs_compared": "count",
    "matching.linkages": "count",
    "pipeline.report_ms": "ms",
    "pipeline.report_bytes": "bytes",
    "cache.signatures_hit_ms": "ms",
    "cache.signatures_recompute_ms": "ms",
    "cache.models_hit_ms": "ms",
    "cache.models_recompute_ms": "ms",
    "cache.keep_hit_ms": "ms",
    "cache.keep_recompute_ms": "ms",
    "cache.simblocks_hit_ms": "ms",
    "cache.simblocks_recompute_ms": "ms",
    "server.request_codec_ms": "ms",
    "server.request_bytes": "bytes",
    "server.response_bytes": "bytes",
}
CACHE_KINDS = {"signatures": "sig", "models": "model", "keep": "keep",
               "simblocks": "simblock"}


def traced_layers(run, mode, ddl, variants, untraced_op_s, expected_report):
    """Runs the harness's traced repetitions of the operation for
    --seconds and turns its medians into the per-layer metrics."""
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(
        trace_dir, f"{run.args.workload}-seed{run.args.seed}.trace.json")
    report_path = os.path.join(run.workdir, "traced_report.json")
    work = os.path.join(run.workdir, "harness")
    os.makedirs(work)
    threads = run.cfg.get("threads", 1)
    cmd = [HARNESS, "layers", "--mode", mode, "--seconds",
           str(run.args.seconds), "--threads", str(threads), "--work-dir",
           work, "--trace-out", trace_path, "--report-out", report_path]
    cmd += ddl_flags(ddl)
    for path in variants:
        cmd += ["--variant", path]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    run.attempted += result["passes"]
    series = result["metrics"]
    log(f"traced passes: {result['passes']}, trace: {trace_path}")

    # The traced operation's report must equal the program's own.
    if expected_report is None:
        expected_report = os.path.join(run.workdir, "traced_cold.json")
        pass0 = list(ddl)
        pass0[0] = variants[0]
        run_op([CLI, "match", "--json"] + ddl_flags(pass0), expected_report,
               run.err_path)
    if sha256_file(report_path) != sha256_file(expected_report):
        run.problems.append("traced report differs from the CLI report")

    metrics = {}
    for name, unit in LAYER_METRICS.items():
        key = "exchange_ms" if name == "exchange.ms" else name
        if key not in series:
            raise BenchError(f"harness did not report {key}")
        metrics[name] = metric(series[key], unit)
    untraced_ms = untraced_op_s * 1000.0
    metrics["pipeline.unattributed_ms"] = metric(
        untraced_ms - series["op.layers_ms"], "ms")
    metrics["pipeline.trace_overhead_ms"] = metric(
        series["op.root_ms"] - series["op.untraced_ms"], "ms")
    by_kind = cache_bytes_by_kind(os.path.join(work, "cache"))
    for kind, prefix in CACHE_KINDS.items():
        metrics[f"cache.{kind}_bytes"] = metric(by_kind[prefix], "bytes")
    return metrics


# ------------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def on_term(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_term)

    try:
        build_s = ensure_built()
    except BenchError as e:
        log(str(e))
        return 1
    workdir = os.path.join(BUILD_ROOT, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    kind = WORKLOADS[args.workload]["kind"]
    run = (BatchRun if kind == "batch" else ServeRun)(args, workdir, build_s)
    try:
        metrics = run.run()
    except (BenchError, subprocess.CalledProcessError) as e:
        log(f"error: {e}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.problems:
        log(f"check failed: {problem}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
