#!/usr/bin/env python3
"""End-to-end benchmark of entity_ident: batch identify, serve, recovery.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the CLI and perfbench/perfbench.exe with dune, generates the
workload's inputs from the seed, drives the CLI, checks every answer,
and prints one JSON object as the last line of stdout. --trace 0 reports
the end-to-end metrics; --trace 1 replays the same steps in-process with
every layer call timed and reports the per-layer metrics. See README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "_work")
CLI = os.path.join(ROOT, "_build", "default", "bin", "entity_ident.exe")
PERFBENCH = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
CALIB = os.path.join(ROOT, "_build", "default", "perfbench", "calib.exe")
SPAWN = os.path.join(BENCH, "spawn.py")
WORKLOADS = ("datarules", "keyjoin", "readmix")

# A phase repeats within a cycle until its runs add up to its budget (s).
SETUP_PHASE_S = 0.5
BATCH_PHASE_S = 2.0
STREAM_PHASE_S = 2.0
RECOVERY_PHASE_S = 1.0
# calib.exe's checksum, and its time on the reference host. A time metric
# t is reported as t * (CALIB_REF_S / k) ** HOST_ELASTICITY, where k is the
# kernel's median in the run: across runs on a 2-vCPU Xeon VM the
# program's times moved with k to the power 0.5-0.75 (log-log slope).
CALIB_CHECKSUM = b"156895\n"
CALIB_REF_S = 0.2
HOST_ELASTICITY = 0.7
TRACE_PASSES = 3  # traced in-process passes per --trace 1 run; medians
MIN_COVERAGE_PCT = 90.0
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- percentiles --------------------------------------------------------


def percentile(samples, p):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    xs = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def supported(samples, p):
    return bool(samples) and percentile(samples, p)[1] >= 10


def tail_summary(samples):
    """Median plus the highest percentile with >= 10 samples beyond it."""
    if not samples:
        return "no samples"
    text = "median %.4f" % statistics.median(samples)
    top = [p for p in PERCENTILES if p > 50 and supported(samples, p)]
    if top:
        text += ", p%g %.4f" % (top[-1], percentile(samples, top[-1])[0])
    else:
        text += ", no percentile above the median has 10 samples beyond it"
    return text + " (n=%d)" % len(samples)


# ---- correctness accounting ---------------------------------------------


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                log("check failed: " + what)


# ---- build and inputs ---------------------------------------------------


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isfile(os.path.join(ROOT, "bin", "entity_ident.ml"))
    ):
        log("perfbench: %s does not hold the entity_ident sources" % ROOT)
        sys.exit(2)
    dune = shutil.which("dune")
    if dune is None:
        log("perfbench: dune is not on PATH")
        sys.exit(2)
    # No shared dune cache: the benchmark writes only inside the checkout.
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "./bin/entity_ident.exe",
         "./perfbench/perfbench.exe", "./perfbench/calib.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if proc.returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)


def read_lines(path):
    with open(path) as f:
        return f.read().splitlines()


class Inputs:
    """The generated files of one workload and seed."""

    def __init__(self, workload, seed, plant_wrong_pair):
        self.dir = os.path.join(WORK, "%s-%d" % (workload, seed))
        shutil.rmtree(self.dir, ignore_errors=True)
        subprocess.run(
            [PERFBENCH, "gen", "--workload", workload, "--seed", str(seed),
             "--dir", self.dir],
            check=True,
        )
        # Spill files of the budgeted join go here, not to /tmp.
        os.environ["TMPDIR"] = self.path("tmp")
        os.mkdir(os.environ["TMPDIR"])
        if plant_wrong_pair:
            plant(os.path.join(self.dir, "batch_truth.tsv"))
            plant(os.path.join(self.dir, "serve_final.tsv"))
        path = lambda name: os.path.join(self.dir, name)
        with open(path("meta.json")) as f:
            self.meta = json.load(f)
        self.batch_args = read_lines(path("batch.args"))
        self.serve_args = read_lines(path("serve.args"))
        self.batch_truth = {tuple(l.split("\t")) for l in read_lines(path("batch_truth.tsv"))}
        self.serve_final = {tuple(l.split("\t")) for l in read_lines(path("serve_final.tsv"))}
        self.requests = [l.encode() + b"\n" for l in read_lines(path("stream.jsonl"))]
        self.kinds, self.expected = [], []
        for line in read_lines(path("stream_meta.tsv")):
            kind, expected = line.split("\t")
            self.kinds.append(kind)
            self.expected.append(int(expected))
        self.inserts_r = sum(1 for r in self.requests if b'"side":"r"' in r)
        self.inserts_s = sum(1 for r in self.requests if b'"side":"s"' in r)
        self.records = self.kinds.count("merge") + self.kinds.count("split")

    def path(self, name):
        return os.path.join(self.dir, name)


def plant(path):
    """Replace the first expected pair by one the program never outputs."""
    lines = read_lines(path)
    fields = lines[0].split("\t")
    fields[-1] = "NoSuchSpeciality"
    lines[0] = "\t".join(fields)
    with open(path, "w") as f:
        f.write("".join(l + "\n" for l in lines))


# ---- processes ----------------------------------------------------------


def peak_rss_mb(pid):
    """The live process's own peak RSS (VmHWM); unlike ru_maxrss it does
    not start at the RSS of the process it was forked from."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


LIVE = set()  # serve processes not yet reaped


def spawn_serve(inp, store, config):
    args = [CLI] + (inp.serve_args if config else ["serve"]) + ["--store", store]
    with open(inp.path("serve.stderr"), "ab") as err:
        proc = subprocess.Popen(args, cwd=inp.dir, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err)
    LIVE.add(proc)
    return proc


def request(proc, line):
    os.write(proc.stdin.fileno(), line)
    return proc.stdout.readline()


def kill(proc):
    proc.kill()
    stop(proc)


def stop(proc):
    """Wait for a serve process to end and release its pipes."""
    code = proc.wait()
    LIVE.discard(proc)
    for pipe in (proc.stdin, proc.stdout):
        if not pipe.closed:
            pipe.close()
    return code


def response_ok(raw):
    try:
        return json.loads(raw).get("ok") is True
    except ValueError:
        return False


# ---- batch identify -----------------------------------------------------


def matched_from_table(lines, title):
    """Rows of a Pretty.render table under [title], as dicts."""
    i = lines.index(title)
    header = lines[i + 2].split()
    rows = []
    for line in lines[i + 4:]:
        if not line.strip():
            break
        rows.append(dict(zip(header, line.split())))
    return rows


def check_batch(inp, stdout):
    truth = inp.batch_truth
    lines = stdout.decode().splitlines()
    if "--stream-out" in inp.batch_args:
        pairs = []
        with open(inp.path("batch_stream.ndjson")) as f:
            for line in f:
                rec = json.loads(line)
                pairs.append((rec["r"]["name"], rec["r"]["cuisine"],
                              rec["s"]["name"], rec["s"]["speciality"]))
        return len(pairs) == len(truth) and set(pairs) == truth
    if "The extended key is verified." not in lines[-1]:
        return False
    if "mt" in inp.batch_args:
        rows = matched_from_table(lines, "matching table")
        got = {(r["r_name"], r["r_cuisine"], r["s_name"], r["s_speciality"])
               for r in rows}
        return len(rows) == len(truth) and got == truth
    rows = matched_from_table(lines, "integrated table")
    got = [(r["r_name"], r["r_cuisine"], r["s_name"], r["s_speciality"])
           for r in rows if r["r_name"] != "null" and r["s_name"] != "null"]
    unmatched = inp.meta["batch_r_rows"] + inp.meta["batch_s_rows"] - 2 * len(truth)
    return set(got) == truth and len(rows) == len(truth) + unmatched


def run_batch(inp, checks):
    """One identify process, spawn to exit: (wall s, peak RSS MB, stdout)."""
    stdout_file = inp.path("batch.stdout")
    proc = subprocess.run(
        [sys.executable, SPAWN, stdout_file, CLI] + inp.batch_args,
        cwd=inp.dir, stdout=subprocess.PIPE, check=True)
    result = json.loads(proc.stdout)
    with open(stdout_file, "rb") as f:
        out = f.read()
    try:
        ok = result["exit"] == 0 and check_batch(inp, out)
    except (OSError, ValueError, IndexError, KeyError):
        ok = False
    checks.check(ok, "batch identify output differs from the truth")
    return result["wall_s"], result["rss_mb"], out


# ---- serve --------------------------------------------------------------


def setup_start(inp, checks):
    """Spawn serve on an empty store, to the answer to its first stats."""
    store = inp.path("setup-store")
    t0 = time.perf_counter()
    proc = spawn_serve(inp, store, config=True)
    resp = request(proc, b'{"op":"stats"}\n')
    wall = time.perf_counter() - t0
    proc.stdin.close()
    checks.check(stop(proc) == 0 and response_ok(resp), "setup stats failed")
    shutil.rmtree(store, ignore_errors=True)
    return (wall,)


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def pair_of(entry):
    r, s = entry["r_key"], entry["s_key"]
    return (r["name"], r["cuisine"], s["name"], s["speciality"])


def closed_loop(inp, checks, store):
    proc = spawn_serve(inp, store, config=True)
    # Start-up is set-up time, not the stream's: wait for it first.
    checks.check(response_ok(request(proc, b'{"op":"stats"}\n')),
                 "serve did not start")
    stdin, stdout = proc.stdin.fileno(), proc.stdout
    lat, resps = [], []
    clock = time.perf_counter
    t_start = clock()
    for line in inp.requests:
        t0 = clock()
        os.write(stdin, line)
        resp = stdout.readline()
        lat.append(clock() - t0)
        resps.append(resp)
    wall = clock() - t_start
    rss = peak_rss_mb(proc.pid)
    kill(proc)
    return lat, resps, wall, rss


def serve_stream(inp, checks, store):
    """The request stream in a closed loop, then SIGKILL."""
    shutil.rmtree(store, ignore_errors=True)
    lat, resps, wall, rss = closed_loop(inp, checks, store)
    inserts, reads = [], []
    for kind, expected, t, raw in zip(inp.kinds, inp.expected, lat, resps):
        ok = response_ok(raw)
        if ok and kind in ("identify", "final"):
            entries = json.loads(raw)["entries"]
            ok = len(entries) == expected
            if ok and kind == "final":
                ok = {pair_of(e) for e in entries} == inp.serve_final
        checks.check(ok, "serve %s answered wrongly: %.200s" % (kind, raw))
        if kind == "insert":
            inserts.append(t * 1e3)
        elif kind in ("identify", "final"):
            reads.append(t * 1e3)
    return {
        "insert_ms": inserts,
        "read_ms": reads,
        "ops_per_s": len(inp.requests) / wall,
        "wall_s": wall,
        "rss_mb": rss,
        "store_bytes": dir_bytes(store),
        "responses": resps,
    }


def recover(inp, checks, store, final_response):
    """Restart serve on the killed store: spawn to its first identify."""
    t0 = time.perf_counter()
    proc = spawn_serve(inp, store, config=False)
    resp = request(proc, b'{"op":"identify"}\n')
    wall = time.perf_counter() - t0
    stats = request(proc, b'{"op":"stats"}\n')
    kill(proc)
    ok = resp == final_response and response_ok(stats)
    if ok:
        s = json.loads(stats)
        ok = (s["r_cardinality"] == inp.inserts_r
              and s["s_cardinality"] == inp.inserts_s
              and s["merge_log"] == inp.records)
    checks.check(ok, "recovered store differs from the acknowledged one")
    return wall, resp


def calibrate(checks):
    """One run of the host-speed kernel, spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([CALIB], stdout=subprocess.PIPE)
    wall = time.perf_counter() - t0
    checks.check(proc.returncode == 0 and proc.stdout == CALIB_CHECKSUM,
                 "calib.exe printed %r" % proc.stdout)
    return wall


def repeat_short(fn, budget, wall=lambda r: r[0]):
    """Run [fn] once, or until its runs' walls add up to [budget]."""
    results, spent = [], 0.0
    while not results or spent < budget:
        r = fn()
        results.append(r)
        spent += wall(r)
    return results


# ---- the two kinds of run -----------------------------------------------


def end_to_end(inp, checks, seconds):
    # The host's speed drifts by up to 2x over minutes, so every phase
    # runs in each cycle and cycles repeat for the whole run: each
    # metric's median then sees the same mix of fast and slow periods.
    # A fixed kernel runs before every phase to measure the host's speed
    # over the run; see HOST_ELASTICITY.
    start = time.perf_counter()
    setups, batch, streams, recoveries, kernel = [], [], [], [], []
    store = inp.path("store")
    cycle_s = 0.0
    while not streams or time.perf_counter() - start + cycle_s <= seconds:
        t0 = time.perf_counter()
        kernel.append(calibrate(checks))
        setups += [s[0] for s in repeat_short(
            lambda: setup_start(inp, checks), SETUP_PHASE_S)]
        kernel.append(calibrate(checks))
        batch += repeat_short(lambda: run_batch(inp, checks), BATCH_PHASE_S)
        kernel.append(calibrate(checks))
        # Each stream starts on a fresh store; recovery uses the last one's.
        cycle_streams = repeat_short(lambda: serve_stream(inp, checks, store),
                                     STREAM_PHASE_S, lambda s: s["wall_s"])
        final = cycle_streams[-1]["responses"][-1]
        for stream in cycle_streams:
            del stream["responses"]
        streams += cycle_streams
        kernel.append(calibrate(checks))
        recoveries += repeat_short(lambda: recover(inp, checks, store, final),
                                   RECOVERY_PHASE_S)
        cycle_s = time.perf_counter() - t0
    inserts = [x for s in streams for x in s["insert_ms"]]
    reads = [x for s in streams for x in s["read_ms"]]
    for samples, p, name in ((inserts, 90, "insert"), (reads, 90, "read")):
        checks.check(supported(samples, p),
                     "%s p%d has fewer than 10 samples beyond it" % (name, p))
    med = statistics.median
    scale = (CALIB_REF_S / med(kernel)) ** HOST_ELASTICITY
    print("host speed: kernel median %.4f s (n=%d); times below are raw, "
          "the JSON's are scaled by %.4f" % (med(kernel), len(kernel), scale))
    report = [
        ("setup_s", "s", setups),
        ("identify_s", "s", [b[0] for b in batch]),
        ("identify_rss_mb", "MB", [b[1] for b in batch]),
        ("insert_ms", "ms", inserts),
        ("read_ms", "ms", reads),
        ("serve_ops_per_s", "1/s", [s["ops_per_s"] for s in streams]),
        ("serve_rss_mb", "MB", [s["rss_mb"] for s in streams]),
        ("recovery_s", "s", [r[0] for r in recoveries]),
    ]
    for name, unit, samples in report:
        print("%-18s %-4s %s" % (name, unit, tail_summary(samples)))
    row_bytes = inp.meta["row_bytes"]
    failed_share = checks.failed / checks.attempted
    print("failed_share       %d/%d = %.6f" % (checks.failed, checks.attempted,
                                               failed_share))
    return {
        "setup_s": scale * med(setups),
        "identify_s": scale * med(b[0] for b in batch),
        "identify_rss_mb": med(b[1] for b in batch),
        "insert_p50_ms": scale * percentile(inserts, 50)[0],
        "insert_p90_ms": scale * percentile(inserts, 90)[0],
        "read_p50_ms": scale * percentile(reads, 50)[0],
        "read_p90_ms": scale * percentile(reads, 90)[0],
        "serve_ops_per_s": med(s["ops_per_s"] for s in streams) / scale,
        "serve_rss_mb": med(s["rss_mb"] for s in streams),
        "recovery_s": scale * med(r[0] for r in recoveries),
        "store_bytes_per_input_byte": med(s["store_bytes"] / row_bytes
                                          for s in streams),
        "ok_share": 1.0 - failed_share,
    }


def spec(kind):
    """BENCHMARK.json's metrics of one kind, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)[kind]}


def same_file(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def replay(inp, checks, reference, untraced=False):
    """One in-process pass of perfbench.exe; its outputs must equal the
    CLI's byte for byte."""
    out = inp.path("trace")
    cmd = [PERFBENCH, "trace", "--workload", inp.meta["workload"],
           "--dir", inp.dir, "--out", out]
    proc = subprocess.run(cmd + (["--untraced"] if untraced else []),
                          stdout=subprocess.PIPE, check=True)
    batch_file = ("batch_stream.ndjson" if "--stream-out" in inp.batch_args
                  else "batch.out")
    for name, part in ((batch_file, "batch"), ("stream.out", "serve"),
                       ("recovery.out", "recovery")):
        with open(os.path.join(out, name), "rb") as f:
            checks.check(f.read() == reference[part],
                         "in-process %s output differs from the CLI's" % part)
    shutil.rmtree(out, ignore_errors=True)
    return json.loads(proc.stdout.decode().splitlines()[-1])


def traced(inp, checks):
    # One untraced CLI round gives the outputs every in-process pass must
    # reproduce byte for byte.
    _, _, batch_out = run_batch(inp, checks)
    if "--stream-out" in inp.batch_args:
        with open(inp.path("batch_stream.ndjson"), "rb") as f:
            batch_out = f.read()
    store = inp.path("store")
    stream = serve_stream(inp, checks, store)
    _, recovered = recover(inp, checks, store, stream["responses"][-1])
    reference = {"batch": batch_out, "serve": b"".join(stream["responses"]),
                 "recovery": recovered}
    # Each traced pass is paired with an untraced one (Telemetry off, no
    # timers) run just before it; the overhead is the median of the
    # pairs' ratios, so host drift between pairs cancels.
    untraced, passes = [], []
    for _ in range(TRACE_PASSES):
        untraced.append(replay(inp, checks, reference, untraced=True))
        passes.append(replay(inp, checks, reference))
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in passes[0]}
    for part in ("batch", "serve", "recovery"):
        wall = part + ".wall_ms"
        metrics[part + ".traced_wall_ms"] = metrics.pop(wall)
        metrics[part + ".tracing_overhead_pct"] = 100.0 * statistics.median(
            p[wall] / u[wall] - 1.0 for p, u in zip(passes, untraced))
        coverage = metrics[part + ".coverage_pct"]
        checks.check(coverage >= MIN_COVERAGE_PCT,
                     "%s layer spans cover %.1f%% < %.0f%% of its wall" % (
                         part, coverage, MIN_COVERAGE_PCT))
    units = spec("per_layer")
    for name in sorted(metrics):
        print("%-34s %12.4f %s" % (name, metrics[name], units[name]["unit"]))
    print("traced passes: %d; failed %d/%d" % (len(passes), checks.failed,
                                              checks.attempted))
    return metrics


# ---- self-test ----------------------------------------------------------


def self_test():
    """Inputs are a pure function of the seed, and a planted wrong
    expected pair is caught."""
    build()
    failures = 0
    for workload in WORKLOADS:
        dirs = []
        for run, seed in enumerate((7, 7, 8)):
            d = os.path.join(WORK, "selftest-%s-%d" % (workload, run))
            shutil.rmtree(d, ignore_errors=True)
            subprocess.run([PERFBENCH, "gen", "--workload", workload,
                            "--seed", str(seed), "--dir", d], check=True)
            dirs.append(d)
        same = lambda a, b: all(
            same_file(os.path.join(a, f), os.path.join(b, f))
            for f in sorted(os.listdir(a)))
        if not same(dirs[0], dirs[1]):
            log("self-test: %s inputs differ for one seed" % workload)
            failures += 1
        if same(dirs[0], dirs[2]):
            log("self-test: %s inputs equal for two seeds" % workload)
            failures += 1
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", "readmix",
         "--seed", "7", "--seconds", "1", "--trace", "0",
         "--plant-wrong-pair"],
        stdout=subprocess.PIPE, check=True)
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    if result["correct"] or result["failed"] == 0:
        log("self-test: a planted wrong expected pair went unnoticed")
        failures += 1
    # ok_share is 1 on correct code, so its drop must exceed its bound.
    drop = 1.0 - result["metrics"]["ok_share"]["value"]
    if not drop > spec("end_to_end")["ok_share"]["bound"]:
        log("self-test: ok_share fell by %g, within its bound" % drop)
        failures += 1
    print("self-test: %s" % ("ok" if failures == 0 else "%d failure(s)" % failures))
    return 0 if failures == 0 else 1


# ---- main ---------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--plant-wrong-pair", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    build()
    inp = Inputs(args.workload, args.seed, args.plant_wrong_pair)
    print("workload %s, seed %d, nproc %d, host_domains %d" % (
        args.workload, args.seed, os.cpu_count(), inp.meta["host_domains"]))
    checks = Checks()
    try:
        if args.trace:
            metrics = traced(inp, checks)
        else:
            metrics = end_to_end(inp, checks, args.seconds)
    finally:
        for proc in list(LIVE):
            kill(proc)
        shutil.rmtree(inp.dir, ignore_errors=True)
    units = spec("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        log("perfbench: metrics differ from BENCHMARK.json: %s" % sorted(
            set(metrics) ^ set(units)))
        return 1
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": v, "unit": units[name]["unit"]}
                    for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
