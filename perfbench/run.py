#!/usr/bin/env python3
"""End-to-end benchmark of the `ldiv` binary.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oneshot_csv_1m --seed 1 --seconds 15 --trace 0

It builds `ldiv` and perfbench's helper (ldiv_benchtool) from source into
.bench_build/, generates the workload's inputs with the program's own
generator from --seed, drives the real binary (one-shot processes or
`ldiv serve` over its unix socket) in a closed loop for --seconds, checks
every output, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a separate traced replay (see perfbench/README.md).
Scratch files live in .bench_work/ and are removed on exit; Chrome
trace-event files of traced runs are kept in .bench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

ALL_ALGOS = ["tp", "tp+", "hilbert", "mondrian", "anatomy", "tds"]
SETUP_REPS = 3
L = 4


class BenchError(Exception):
    """A failure that leaves no result to report (build, setup)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- build ------------------------------------------------------------------


def build():
    """Configures and builds ldiv + ldiv_benchtool; returns their paths."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ldiv", "ldiv_benchtool", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            raise BenchError("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "tools", "ldiv"), os.path.join(BUILD_DIR, "ldiv_benchtool")


# ---- helpers ----------------------------------------------------------------


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_files(stem):
    suffixes = (".csv", "_sa.csv", ".json", "_metrics.csv")
    return [stem + s for s in suffixes if os.path.exists(stem + s)]


def remove_outputs(stem):
    if not stem:
        return
    for path in output_files(stem):
        os.remove(path)


def run_process(argv, err_path):
    """Runs argv to completion; returns (wall seconds, exit code, peak RSS MiB)."""
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def read_report(stem):
    """The job entries of <stem>.json, or None when missing or malformed."""
    try:
        with open(stem + ".json") as f:
            report = json.load(f)
        return report["jobs"], report["tables"]
    except (OSError, ValueError, KeyError):
        return None


def report_digest(stem):
    """Digest of a report with its timing fields dropped (they vary by run)."""
    with open(stem + ".json") as f:
        report = json.load(f)
    report.pop("threads", None)
    for job in report["jobs"]:
        job.pop("seconds", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def schema_spec(table):
    """'Age(79),Gender(2)|Income(50)' -> 'Age:79,Gender:2|Income:50'."""
    return table["schema"].replace("(", ":").replace(")", "")


def flags_to_payload(flags):
    """`ldiv` flags -> the daemon's JobSpec payload (engine/job_spec.h)."""
    lines = ["version = 1"]
    for flag in flags:
        if flag == "--no-timings":
            lines.append("timings = false")
        elif flag == "--sweep":
            lines.append("sweep = true")
        else:
            key, value = flag[2:].split("=", 1)
            lines.append("%s = %s" % (key, value))
    return "\n".join(lines) + "\n"


def daemon_request(sock_path, verb, payload="", timeout=150):
    """One request over the ldivd protocol: `ldiv1 <verb> <n>\\n<payload>`."""
    data = payload.encode()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall(b"ldiv1 %s %d\n" % (verb.encode(), len(data)) + data)
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(4096)
            if not chunk:
                raise OSError("daemon closed the connection")
            buf += chunk
        header, body = buf.split(b"\n", 1)
        magic, reply_verb, size = header.decode().split(" ")
        if magic != "ldiv1":
            raise OSError("bad reply header")
        while len(body) < int(size):
            chunk = s.recv(1 << 16)
            if not chunk:
                raise OSError("daemon closed the connection mid-reply")
            body += chunk
    kv = {}
    for line in body.decode().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            kv[key.strip()] = value.strip()
    return reply_verb, kv


def percentile(values, q):
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def run_record(ldiv_tool, benchtool, args, workload):
    """Where and how the numbers were taken."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = json.loads(
        subprocess.run([benchtool, "info"], stdout=subprocess.PIPE, check=True).stdout)
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(("CMAKE_BUILD_TYPE:", "CMAKE_CXX_COMPILER:")):
                key, value = line.split("=", 1)
                cache[key.split(":")[0]] = value.strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
    if version.returncode == 0:
        compiler = version.stdout.decode().splitlines()[0]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        if head.returncode == 0:
            commit = head.stdout.decode().strip()
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "simd": info["simd"], "thread_budget": info["thread_budget"],
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"), "compiler": compiler,
        "commit": commit, "ldiv": os.path.relpath(ldiv_tool, ROOT),
    }


# ---- one-shot workloads -----------------------------------------------------


class OneShotWorkload:
    """Fresh `ldiv` processes over one seeded coded CSV, cycling algorithms."""

    def __init__(self, name, rows, tiny_rows, algos, kl, cycle_s, budget=None, tiny_budget=None):
        self.name = name
        self.cycle_s = cycle_s  # nominal seconds of one cycle on the reference host
        self.rows_full, self.tiny_rows = rows, tiny_rows
        self.algos, self.kl = algos, kl
        self.budget_full, self.tiny_budget = budget, tiny_budget

    def configure(self, ctx):
        self.ctx = ctx
        self.rows = self.tiny_rows if ctx.tiny else self.rows_full
        self.budget = self.tiny_budget if ctx.tiny else self.budget_full
        self.input = os.path.join(ctx.work, "input.csv")
        self.schema = None

    def budget_flags(self):
        return ["--memory-budget=" + self.budget] if self.budget else []

    def job_flags(self, algo, out):
        flags = ["--input=" + self.input, "--schema=" + self.schema, "--algo=" + algo, "--l=%d" % L]
        if not self.kl:
            flags.append("--kl=false")
        return flags + self.budget_flags() + ["--out=" + out]

    def setup_once(self, rep):
        """Generates the input with ldiv's generator. (No warm-up job: every
        timed job is a fresh process, and generation leaves the input file in
        the OS page cache as a warm-up would.)"""
        ctx = self.ctx
        path = os.path.join(ctx.work, "input_%d.csv" % rep)
        gen = [ctx.ldiv, "--dataset=sal", "--n=%d" % self.rows, "--d=4",
               "--seed=%d" % ctx.data_seed, "--emit-input=" + path, "--algo=tp", "--sweep",
               "--kl=false", "--no-timings",
               "--out=" + os.path.join(ctx.work, "gen")] + self.budget_flags()
        _, code, _ = run_process(gen, os.path.join(ctx.work, "gen.err"))
        parsed = read_report(os.path.join(ctx.work, "gen"))
        if code != 0 or parsed is None:
            raise BenchError("input generation failed (exit %d)" % code)
        self.schema = schema_spec(parsed[1][0])
        os.replace(path, self.input)

    def setup(self, reps):
        times, digests = [], set()
        for rep in range(reps):
            start = time.perf_counter()
            self.setup_once(rep)
            times.append(time.perf_counter() - start)
            digests.add(sha256(self.input))
        self.ctx.inputs.append({"name": "input.csv", "bytes": os.path.getsize(self.input),
                                "sha256": sorted(digests)[0], "rows": self.rows})
        if len(digests) != 1:
            self.ctx.problems.append("the generator wrote different inputs for one seed")
        return times

    def measure(self, seconds):
        ctx = self.ctx
        stem = os.path.join(ctx.work, "job")
        jobs, refs = [], {}
        timed = 0.0
        # A fixed number of whole cycles, so every run of a given length does
        # the same work and each algorithm contributes equally many jobs.
        cycles = 1 if ctx.tiny else max(1, math.ceil(seconds / self.cycle_s))
        for _ in range(cycles):
            for algo in self.algos:
                wall, code, rss = run_process([ctx.ldiv] + self.job_flags(algo, stem),
                                              os.path.join(ctx.work, "job.err"))
                timed += wall
                job = {"algo": algo, "wall": wall, "code": code, "rss": rss, "ok": code == 0,
                       "first": algo not in refs}
                jobs.append(job)
                parsed = read_report(stem) if code == 0 else None
                if parsed is None:
                    job["ok"] = False
                    continue
                entry = parsed[0][0]
                job.update(stars=entry["stars"], suppressed=entry["suppressed_tuples"],
                           kl=entry["kl_divergence"], feasible=entry["feasible"])
                job["ok"] = entry["feasible"]
                # Outside the timed region: the first job of each algorithm
                # keeps its outputs for the full check; repeats must match
                # them byte for byte (reports up to their timing fields).
                digest = [sha256(p) for p in output_files(stem)
                          if not p.endswith(("json", "metrics.csv"))]
                digest.append(report_digest(stem))
                if job["first"]:
                    ref = os.path.join(ctx.work, "ref_" + algo.replace("+", "plus"))
                    for path in output_files(stem):
                        os.replace(path, ref + path[len(stem):])
                    refs[algo] = (ref, digest, job)
                elif digest != refs[algo][1]:
                    job["ok"] = False
                    ctx.problems.append("%s output changed between identical jobs" % algo)
                remove_outputs(stem)

        manifest = []
        for algo, (ref, _, job) in refs.items():
            kind = "bucketization" if algo == "anatomy" else "suppression"
            manifest.append([algo, str(L), str(job["stars"]), str(job["suppressed"]), kind, ref]
                            + self.job_flags(algo, ref))
        verdicts = ctx.verify(manifest)
        for job in jobs:
            if job["ok"] and not verdicts.get(job["algo"], False):
                job["ok"] = False
        for ref, _, _ in refs.values():
            remove_outputs(ref)

        ok = [j for j in jobs if j["ok"]]
        first = [j for j in jobs if j["first"] and j["ok"]]
        stars_jobs = [j for j in first if j["algo"] != "anatomy"]
        kl_jobs = first if self.kl else []
        per_algo = [statistics.median(j["wall"] for j in jobs if j["algo"] == a)
                    for a in self.algos]
        return {
            "walls": [j["wall"] for j in jobs],
            # Median of the per-algorithm medians: the algorithms' walls form
            # separate clusters, and a pooled median jumps between them.
            "p50": statistics.median(per_algo),
            "record": {"per_algo_p50_s": dict(zip(self.algos, per_algo))},
            "cycles": cycles,
            "attempted": len(jobs), "failed": len(jobs) - len(ok),
            "throughput": self.rows * len(ok) / timed,
            "peak_rss_mb": max(j["rss"] for j in jobs),
            "stars_per_row": (sum(j["stars"] for j in stars_jobs) / (self.rows * len(stars_jobs))
                              if stars_jobs else 0.0),
            "kl_mean": statistics.fmean(j["kl"] for j in kl_jobs) if kl_jobs else None,
        }

    def trace(self):
        """Replays one cycle: the CLI (--no-timings) and, in-process, the layers."""
        ctx = self.ctx
        manifest, cli_walls = [], []
        for algo in self.algos:
            ref = os.path.join(ctx.work, "cli_" + algo.replace("+", "plus"))
            flags = self.job_flags(algo, ref) + ["--no-timings"]
            wall, code, _ = run_process([ctx.ldiv] + flags, os.path.join(ctx.work, "cli.err"))
            if code != 0:
                ctx.problems.append("ldiv %s exited %d" % (algo, code))
            cli_walls.append(wall)
            manifest.append(["job", ref] + flags)
        records, final = ctx.run_trace("oneshot", manifest)
        for algo in self.algos:
            remove_outputs(os.path.join(ctx.work, "cli_" + algo.replace("+", "plus")))
        return records, final, cli_walls


# ---- daemon workload --------------------------------------------------------


class DaemonWorkload:
    """`ldiv serve` with 2 workers and 3 closed-loop client connections."""

    name = "daemon_mixed"
    # Fixed (dataset, rows, d) shapes; the seed picks the data, the order,
    # which requests name a fresh dataset, and nothing about the mix.
    POOL = [("sal", 50000, 3), ("occ", 100000, 4), ("sal", 200000, 5),
            ("occ", 50000, 6), ("sal", 100000, 6), ("occ", 200000, 3)]
    CLIENTS = 3
    WORKERS = 2
    BLOCK = 24          # 18 single jobs + 6 sweeps
    NEW_PER_BLOCK = 5   # about one request in five names a new dataset
    BLOCK_S = 5.5       # nominal seconds of one block on the reference host
    QUALITY_BLOCKS = 2  # two blocks pair every algorithm with every shape

    def configure(self, ctx):
        self.ctx = ctx
        self.scale = 25 if ctx.tiny else 1
        self.sock = os.path.relpath(os.path.join(ctx.work, "d.sock"), ROOT)
        self.proc = None
        self.blocks = []
        self.fresh_seed = ctx.data_seed * 1000 + 100

    def block(self, b):
        """Block b of the request list: each shape swept once, and each
        algorithm run on the three shapes of one parity (alternating by
        block), so two consecutive blocks run every algorithm on every shape
        once. The order and the positions of new datasets are a fixed
        shuffle; the seed picks the data. (A seeded order changes which
        requests queue behind which sweeps, and the median latency with it,
        by more than the host's own noise.)"""
        while len(self.blocks) <= b:
            n = len(self.blocks)
            rng = random.Random("daemon_mixed/%d" % n)
            shapes = len(self.POOL)
            requests = [(algo, (i + n + 2 * k) % shapes) for i, algo in enumerate(ALL_ALGOS)
                        for k in range(shapes // 2)]
            requests += [("all", e) for e in range(shapes)]
            rng.shuffle(requests)
            fresh = set(rng.sample(range(len(requests)), self.NEW_PER_BLOCK))
            block = []
            for i, (algo, entry) in enumerate(requests):
                seed = self.ctx.data_seed + entry
                if i in fresh:
                    self.fresh_seed += 1
                    seed = self.fresh_seed
                block.append((algo, entry, seed))
            self.blocks.append(block)
        return self.blocks[b]

    def request_flags(self, index, out):
        algo, entry, seed = self.block(index // self.BLOCK)[index % self.BLOCK]
        return self.spec_flags(algo, entry, seed, out)

    def spec_flags(self, algo, entry, seed, out):
        dataset, rows, d = self.POOL[entry]
        ls = "2,4,6" if algo == "all" else str(L)
        flags = ["--dataset=" + dataset, "--n=%d" % (rows // self.scale), "--d=%d" % d,
                 "--seed=%d" % seed, "--algo=" + algo, "--l=" + ls]
        return flags + ["--out=" + out]

    def warm_flags(self, entry):
        # Loads the dataset and builds both artifacts (grouping, Hilbert order).
        return self.spec_flags("tp,hilbert", entry, self.ctx.data_seed + entry,
                               os.path.join(self.ctx.work, "warm_%d" % entry))

    def rows_of(self, flags):
        return int(next(f for f in flags if f.startswith("--n=")).split("=")[1])

    def start_daemon(self):
        err = open(os.path.join(self.ctx.work, "serve.err"), "a")
        self.proc = subprocess.Popen(
            [self.ctx.ldiv, "serve", "--socket=" + self.sock, "--workers=%d" % self.WORKERS],
            stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        err.close()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("ldiv serve exited with %d" % self.proc.returncode)
            try:
                if daemon_request(self.sock, "ping", timeout=5)[0] == "ok":
                    return
            except OSError:
                time.sleep(0.01)
        raise BenchError("ldiv serve did not answer ping")

    def stop_daemon(self):
        if self.proc is None:
            return
        try:
            daemon_request(self.sock, "shutdown", timeout=10)
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def setup(self, reps):
        times = []
        for rep in range(reps):
            self.stop_daemon()
            start = time.perf_counter()
            self.start_daemon()
            for entry in range(len(self.POOL)):
                payload = flags_to_payload(self.warm_flags(entry))
                verb, kv = daemon_request(self.sock, "job", payload)
                if verb != "ok" or kv.get("exit-code") != "0":
                    raise BenchError("warm-up request failed: %s" % kv.get("error"))
            times.append(time.perf_counter() - start)
        for entry in range(len(self.POOL)):
            remove_outputs(os.path.join(self.ctx.work, "warm_%d" % entry))
        self.ctx.inputs.append({"name": "pool", "shapes": [list(p) for p in self.POOL],
                                "scale": 1.0 / self.scale, "seed": self.ctx.data_seed})
        return times

    def closed_loop(self, requests, stem, extra_flags=()):
        """CLIENTS threads, each sending its next request after the last reply."""
        lock = threading.Lock()
        state = {"next": 0}
        results = []

        def client():
            while True:
                with lock:
                    i = state["next"]
                    if i >= requests:
                        return
                    state["next"] += 1
                flags = self.request_flags(i, "%s_%d" % (stem, i)) + list(extra_flags)
                payload = flags_to_payload(flags)
                sent = time.perf_counter()
                try:
                    verb, kv = daemon_request(self.sock, "job", payload)
                except OSError as error:
                    verb, kv = "error", {"error": str(error)}
                done = time.perf_counter()
                with lock:
                    results.append({"i": i, "flags": flags, "wall": done - sent, "sent": sent,
                                    "done": done, "verb": verb, "kv": kv})

        threads = [threading.Thread(target=client) for _ in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results.sort(key=lambda r: r["i"])
        return results

    def check_requests(self, results):
        """Outside the timed region: every reply, report and release."""
        ctx = self.ctx
        manifest = []
        for r in results:
            r["ok"] = r["verb"] == "ok" and r["kv"].get("exit-code") == "0"
            stem = r["kv"].get("out", "")
            parsed = read_report(stem) if r["ok"] else None
            if parsed is None:
                r["ok"] = False
                continue
            cells = parsed[0]
            algo = next(f for f in r["flags"] if f.startswith("--algo=")).split("=")[1]
            expected = 18 if algo == "all" else 1
            r["cells"] = cells
            r["rows"] = parsed[1][0]["rows"]
            if len(cells) != expected or r["rows"] != self.rows_of(r["flags"]):
                r["ok"] = False
            elif expected == 1:
                if not cells[0]["feasible"]:
                    r["ok"] = False
                    continue
                kind = "bucketization" if algo == "anatomy" else "suppression"
                manifest.append([str(r["i"]), str(L), str(cells[0]["stars"]),
                                 str(cells[0]["suppressed_tuples"]), kind, stem] + r["flags"])
        verdicts = ctx.verify(manifest)
        for r in results:
            if r["ok"] and len(r["cells"]) == 1 and not verdicts.get(str(r["i"]), False):
                r["ok"] = False
            remove_outputs(r["kv"].get("out", ""))

    def measure(self, seconds):
        ctx = self.ctx
        block_len = self.BLOCK * self.QUALITY_BLOCKS
        # A fixed number of whole blocks, so the request mix is the same in
        # every run of a given length.
        blocks = self.QUALITY_BLOCKS
        if not ctx.tiny:
            blocks = max(blocks, math.ceil(seconds / self.BLOCK_S))
        results = self.closed_loop(blocks * self.BLOCK, os.path.join(ctx.work, "req"))
        run_wall = max(r["done"] for r in results) - min(r["sent"] for r in results)
        stats = daemon_request(self.sock, "stats")[1]
        with open("/proc/%d/status" % self.proc.pid) as f:
            hwm = next(int(line.split()[1]) for line in f if line.startswith("VmHWM"))
        self.stop_daemon()
        self.check_requests(results)
        if stats.get("failed") != "0" or stats.get("rejected-busy") != "0":
            ctx.problems.append("daemon stats report failed or busy jobs: %s" % stats)

        ok = [r for r in results if r["ok"]]
        solved = sum(r["rows"] * sum(1 for c in r["cells"] if c["feasible"]) for r in ok)
        # Quality over the first blocks, which every run completes.
        window = [(r["rows"], c) for r in ok if r["i"] < block_len
                  for c in r["cells"] if c["feasible"]]
        if sum(1 for r in ok if r["i"] < block_len) < block_len:
            ctx.problems.append("the first blocks did not complete cleanly")
        starred = [(rows, c) for rows, c in window if c["algorithm"] != "Anatomy"]
        star_rows = sum(rows for rows, _ in starred)
        return {
            "walls": [r["wall"] for r in results],
            "p50": statistics.median(r["wall"] for r in results),
            "record": {"daemon_stats": stats},
            "cycles": blocks,
            "attempted": len(results), "failed": len(results) - len(ok),
            "throughput": solved / run_wall,
            "peak_rss_mb": hwm / 1024.0,
            "stars_per_row": sum(c["stars"] for _, c in starred) / star_rows if star_rows else 0.0,
            "kl_mean": statistics.fmean(c["kl_divergence"] for _, c in window) if window else None,
        }

    def trace(self):
        """Replays the warm-ups and the first two blocks through the daemon and in-process."""
        ctx = self.ctx
        requests = self.BLOCK * self.QUALITY_BLOCKS
        manifest = [["warm", "-"] + self.warm_flags(e) for e in range(len(self.POOL))]
        for i in range(requests):
            manifest.append(["job", "-"] + self.request_flags(i, os.path.join(ctx.work, "t_%d" % i))
                            + ["--no-timings"])
        records, final = ctx.run_trace("daemon", manifest, self.sock)
        # The same block again from CLIENTS connections, for the daemon's
        # queueing counters under its real concurrency.
        before = daemon_request(self.sock, "stats")[1]
        results = self.closed_loop(requests, os.path.join(ctx.work, "q"))
        after = daemon_request(self.sock, "stats")[1]
        self.stop_daemon()
        for r in results:
            remove_outputs(r["kv"].get("out", ""))
        if any(r["verb"] != "ok" for r in results):
            ctx.problems.append("a daemon request failed during the queueing pass")
        delta = {k: int(after[k]) - int(before[k]) for k in ("rejected-busy", "failed")}
        delta["max-queue-depth"] = int(after["max-queue-depth"])
        return records, final, delta


# ---- context ----------------------------------------------------------------


class Context:
    def __init__(self, args, ldiv_tool, benchtool, work):
        self.ldiv, self.benchtool, self.work = ldiv_tool, benchtool, work
        self.seed = args.seed
        self.data_seed = args.seed % (1 << 40) + 1  # ldiv reads seed 0 as "default"
        self.tiny = args.tiny
        self.inputs = []
        self.problems = []
        self.trace_path = None
        self.workload = args.workload

    def verify(self, manifest):
        """Runs ldiv_benchtool verify; returns {id: ok}."""
        if not manifest:
            return {}
        path = os.path.join(self.work, "verify.tsv")
        with open(path, "w") as f:
            for fields in manifest:
                f.write("\t".join(fields) + "\n")
        done = subprocess.run([self.benchtool, "verify", path], stdout=subprocess.PIPE, cwd=ROOT)
        verdicts = {}
        for line in done.stdout.decode().splitlines():
            entry = json.loads(line)
            verdicts[entry["id"]] = entry["ok"]
            if not entry["ok"]:
                self.problems.append("output check %s: %s" % (entry["id"], entry["error"]))
        return verdicts

    def run_trace(self, mode, manifest, sock=None):
        path = os.path.join(self.work, "trace.tsv")
        with open(path, "w") as f:
            for fields in manifest:
                f.write("\t".join(fields) + "\n")
        os.makedirs(OUT_DIR, exist_ok=True)
        self.trace_path = os.path.join(OUT_DIR, "trace_%s_seed%d.json" % (self.workload, self.seed))
        argv = [self.benchtool, "trace", mode, path, self.work, self.trace_path]
        if sock:
            argv.append(sock)
        done = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT)
        lines = [json.loads(line) for line in done.stdout.decode().splitlines() if line.strip()]
        if done.returncode != 0 or not lines or not lines[-1].get("final"):
            raise BenchError("ldiv_benchtool trace failed (exit %d)" % done.returncode)
        for record in lines[:-1]:
            if not record["identical"]:
                self.problems.append("trace job %d: %s" % (record["job"], record["mismatch"]))
        return lines[:-1], lines[-1]


WORKLOADS = {
    "oneshot_csv_1m": lambda: OneShotWorkload("oneshot_csv_1m", 1000000, 20000, ALL_ALGOS, kl=True,
                                              cycle_s=5.5),
    "daemon_mixed": DaemonWorkload,
    "paged_csv_4m": lambda: OneShotWorkload("paged_csv_4m", 4000000, 200000,
                                            ["tp", "hilbert", "mondrian"], kl=False, cycle_s=10.5,
                                            budget="64M", tiny_budget="8M"),
}


# ---- metrics ----------------------------------------------------------------


def e2e_metrics(workload, ctx, seconds):
    setup_times = workload.setup(SETUP_REPS)
    m = workload.measure(seconds)
    walls = m["walls"]
    values = {
        "job_p50_s": m["p50"],
        "throughput_rows_per_s": m["throughput"],
        "peak_rss_mb": m["peak_rss_mb"],
        "setup_s": statistics.median(setup_times),
        "stars_per_row": m["stars_per_row"],
    }
    extra = {"samples": len(walls), "cycles_or_blocks": m["cycles"], "setup_runs_s": setup_times,
             "error_rate": "%d/%d" % (m["failed"], m["attempted"]), "kl_mean": m["kl_mean"]}
    if len(walls) >= 200:
        extra["job_p95_s"] = percentile(walls, 0.95)
    extra.update(m["record"])
    return values, m["attempted"], m["failed"], extra


def layer_metrics(workload, ctx):
    workload.setup(1)
    records, final, layer_extra = workload.trace()
    empty = {"calls": 0, "wall": 0.0, "self": 0.0, "cpu": 0.0, "bytes": 0}
    spans = {}
    for record in records:
        for name, t in record["spans"].items():
            total = spans.setdefault(name, dict(empty))
            for key in total:
                total[key] += t[key]

    def span(name):
        return spans.get(name, empty)

    def div(a, b):
        return a / b if b else 0.0

    def mean_wall(name):
        return div(span(name)["wall"], span(name)["calls"])

    def mib_per_s(name):
        return div(span(name)["bytes"] / 1048576.0, span(name)["wall"])

    def util(names):
        return div(sum(span(n)["cpu"] for n in names), sum(span(n)["wall"] for n in names))

    def ratio(hits, misses):
        return div(hits, hits + misses)

    def total(key):
        return sum(r[key] for r in records)

    def mean(values):
        return statistics.fmean(values)

    algos = ["tp", "tp_plus", "hilbert", "mondrian", "anatomy", "tds"]
    methods = ["suppression", "multi_dimensional", "single_dimensional", "bucketization"]
    builds = ("data.load", "grouping.build", "hilbert.order")
    sweeps = [r for r in records if "batch.sweep" in r["spans"]]
    values = {
        "data.load_s": mean_wall("data.load"),
        "data.load_mb_per_s": mib_per_s("data.load"),
        "data.load_cpu_util": util(["data.load"]),
        "grouping.build_s": mean_wall("grouping.build"),
        "grouping.cpu_util": util(["grouping.build"]),
        "hilbert.order_s": mean_wall("hilbert.order"),
        "core.solve_cpu_util": util(["core.solve." + a for a in algos]),
        "core.materialize_s": div(
            sum(span("core.run." + a)["wall"] - span("core.solve." + a)["wall"] for a in algos),
            sum(span("core.run." + a)["calls"] for a in algos)),
        "release.write_s": mean_wall("release.write"),
        "release.write_mb_per_s": mib_per_s("release.write"),
        "release.bytes": div(span("release.write")["bytes"], span("release.write")["calls"]),
        "report.write_s": mean_wall("report.write"),
        "cache.dataset_hit_ratio": ratio(final["dataset_hits"], final["dataset_misses"]),
        "cache.artifact_hit_ratio": ratio(final["artifact_hits"], final["artifact_misses"]),
        "cache.evictions": final["dataset_evictions"] + final["artifact_evictions"],
        "cache.miss_build_s": div(sum(span(b)["wall"] for b in builds),
                                  total("dataset_misses") + total("artifact_misses")),
        "batch.sweep_s": mean_wall("batch.sweep"),
        "batch.speedup": div(sum(r["serial_run_s"] for r in sweeps), span("batch.sweep")["wall"]),
        "batch.cpu_util": util(["batch.sweep"]),
        "paged.page_hit_ratio": ratio(total("page_hits"), total("page_misses")),
        "paged.refaults": total("page_refaults"),
        "paged.evictions": total("page_evictions"),
        "paged.budget_peak_mb": max(r["budget_peak_bytes"] for r in records) / 1048576.0,
        "paged.spill_live_after": max(r["spill_live_after"] for r in records),
        "engine.execute_s": mean(r["execute_s"] for r in records),
        "cli.overhead_s": 0.0,
        "daemon.overhead_s": 0.0,
        "daemon.max_queue_depth": 0,
        "daemon.rejected_busy": 0,
        "daemon.failed": 0,
        "trace.coverage": div(total("covered_s"), total("wall_s")),
        "trace.uncovered_s": mean(r["wall_s"] - r["covered_s"] for r in records),
        "trace.overhead_s": mean(r["wall_s"] - r["execute_s"] for r in records),
    }
    for a in algos:
        values["core.solve_s." + a] = mean_wall("core.solve." + a)
    for method in methods:
        values["metrics.kl_s." + method] = mean_wall("metrics.kl." + method)
    if isinstance(workload, DaemonWorkload):
        values["daemon.overhead_s"] = mean(r["roundtrip_s"] - r["execute_s"] for r in records)
        values["daemon.max_queue_depth"] = layer_extra["max-queue-depth"]
        values["daemon.rejected_busy"] = layer_extra["rejected-busy"]
        values["daemon.failed"] = layer_extra["failed"]
    else:
        values["cli.overhead_s"] = mean(w - r["execute_s"] for w, r in zip(layer_extra, records))
    if values["trace.coverage"] < 0.9:
        ctx.problems.append("spans cover only %.1f%% of replayed job wall"
                            % (100 * values["trace.coverage"]))
    if values["paged.spill_live_after"] != 0:
        ctx.problems.append("spill files outlived their jobs")
    failed = sum(1 for r in records if not r["identical"])
    extra = {"traced_jobs": len(records), "trace_file": os.path.relpath(ctx.trace_path, ROOT),
             "self_s": {name: s["self"] for name, s in sorted(spans.items())}}
    return values, len(records), failed, extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: small inputs, one cycle or two blocks")
    parser.add_argument("--corrupt-one", action="store_true",
                        help="self-test: verify a copy of one release with one cell flipped")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at %s: run from the root of a source checkout" % ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    # Everything the build and the runs write stays inside the checkout.
    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(os.path.join(work, "spill"))
    os.environ["LDIV_SPILL_DIR"] = os.path.join(work, "spill")
    os.environ["TMPDIR"] = os.path.join(work, "spill")
    try:
        ldiv_tool, benchtool = build()
    except BenchError:
        remove_work(work)
        raise
    ctx = Context(args, ldiv_tool, benchtool, work)
    workload = WORKLOADS[args.workload]()
    workload.configure(ctx)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        record = run_record(ldiv_tool, benchtool, args, workload)
        if args.trace:
            values, attempted, failed, extra = layer_metrics(workload, ctx)
        else:
            values, attempted, failed, extra = e2e_metrics(workload, ctx, args.seconds)
        if args.corrupt_one:
            failed += corrupt_one(workload, ctx)
            attempted += 1
    finally:
        if isinstance(workload, DaemonWorkload):
            workload.stop_daemon()
        remove_work(work)

    record.update(extra)
    record["inputs"] = ctx.inputs
    record["problems"] = ctx.problems
    print("record " + json.dumps(record))
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise BenchError("metric %s was not measured" % metric["name"])
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    result = {"correct": failed == 0 and not ctx.problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def remove_work(work):
    shutil.rmtree(work, ignore_errors=True)
    if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
        os.rmdir(WORK_ROOT)


def corrupt_one(workload, ctx):
    """Flips one QI cell of a fresh TP release and runs the output check on
    it; returns 1 when the check counts it as a failed job (it must)."""
    if isinstance(workload, DaemonWorkload):
        raise BenchError("--corrupt-one applies to the one-shot workloads")
    stem = os.path.join(ctx.work, "corrupt")
    _, code, _ = run_process([ctx.ldiv] + workload.job_flags("tp", stem),
                             os.path.join(ctx.work, "c.err"))
    entry = read_report(stem)[0][0]
    with open(stem + ".csv") as f:
        lines = f.read().split("\n")
    cells = lines[1].split(",")
    domain = int(workload.schema.split(",")[0].split(":")[1])
    cells[0] = "0" if cells[0] == "*" else str((int(cells[0]) + 1) % domain)
    lines[1] = ",".join(cells)
    with open(stem + ".csv", "w") as f:
        f.write("\n".join(lines))
    verdicts = ctx.verify([["corrupt", str(L), str(entry["stars"]), str(entry["suppressed_tuples"]),
                            "suppression", stem] + workload.job_flags("tp", stem)])
    return 0 if verdicts.get("corrupt", True) or code != 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log("perfbench: " + str(error))
        sys.exit(2)
