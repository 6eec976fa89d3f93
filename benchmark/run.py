#!/usr/bin/env python3
"""PDSL benchmark: build, run, check and report.

One measured run of one workload (what BENCHMARK.json's command runs):

    python3 benchmark/run.py --workload mlp_full --seed 1 --seconds 20 --trace 0

builds the root project's libraries and the benchmark runner in Release mode
into build-bench/ (skipped when the sources are unchanged), runs the workload
in processes of its own pinned to its CPUs, checks its outputs and prints
every metric by name with its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Tooling:
    run.py --smoke                 all workloads, 3 rounds, traced and untraced
    run.py --check-spec            --smoke, then verify that exactly the metrics
                                   and units BENCHMARK.json declares come out
    run.py --repeats N [--workload W ...] [--seed S] [--seconds T]
                                   N interleaved sets of untraced runs; prints
                                   median and quartile spread per metric and
                                   saves the set to build-bench/results/
    run.py --compare A.json B.json compare two saved sets, e.g. parent and
                                   change (same workload configs and host)

Exit codes: 0 = ran and every check passed; 1 = a check failed (named on
stderr); 2 = the benchmark could not be built or run.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = HERE / "workloads"
BUILD = ROOT / "build-bench"
LIB_BUILD = BUILD / "lib"
BENCH_BUILD = BUILD / "bench"
RUNS = BUILD / "runs"
RESULTS = BUILD / "results"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170  # all processes of one measured run, after the build
# Address-space cap of a runner process (it peaks near 320 MB). A corrupted
# frame's tag length can ask wire_decode for up to 4 GB before the frame is
# rejected; under the cap that allocation fails inside wire_try_decode, which
# rejects the frame all the same (README, "Memory").
ADDRESS_SPACE_CAP = 1 << 30
SETUP_REPS = 3      # set-up-only repetitions (rounds = 0) per untraced run
DETERMINISM_ROUNDS = 2
SMOKE_ROUNDS = 3
TAIL_BEYOND = 10    # the tail percentile keeps this many rounds above it
MAX_TRACE_OVERHEAD = 0.05
NESTING_SLACK = 1.05
ACCURACY_DROP = 0.02  # --compare: largest seed-paired fall of final_accuracy
# Results merge within one set only if all of SET_KEYS match; two sets compare
# if ENV_KEYS match, so a set from a change compares against its parent's.
SET_KEYS = ("workload", "config_hash", "source_digest", "git_rev", "nproc", "cpus",
            "build_type")
ENV_KEYS = ("workload", "config_hash", "nproc", "cpus", "build_type")


class CheckFailed(Exception):
    """A benchmark check failed; the message names it."""


class SetupError(Exception):
    """The benchmark could not be built or run."""


# ---------------------------------------------------------------- build ----

def bench_env():
    env = dict(os.environ)
    env.pop("PDSL_KERNEL_BACKEND", None)  # results must not depend on the caller's shell
    return env


def build_inputs():
    """The program's sources and every benchmark file but its docs: a change to
    any of them rebuilds, and results measured before and after it never merge."""
    files = [ROOT / "CMakeLists.txt"]
    for d in (ROOT / "src", HERE):
        files += sorted(p for p in d.rglob("*") if p.is_file() and p.suffix != ".md"
                        and "__pycache__" not in p.parts)
    return files


def source_digest():
    h = hashlib.sha256()
    for p in build_inputs():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_checked(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, env=bench_env())
    if r.returncode != 0:
        raise SetupError(f"build step failed ({' '.join(cmd[:3])} ...); see {log}")


def ensure_built():
    """Release-build the root libraries, then the benchmark against them."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SetupError(f"no PDSL source tree at {ROOT} (need CMakeLists.txt and src/)")
    BUILD.mkdir(exist_ok=True)
    digest = source_digest()
    stamp = BUILD / "stamp"
    binaries = [BENCH_BUILD / "pdsl_benchmark", BENCH_BUILD / "pdsl_benchmark_traced"]
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if stamp.exists() and stamp.read_text() == digest and all(b.exists() for b in binaries):
            return digest
        stamp.unlink(missing_ok=True)
        log = BUILD / "build.log"
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_checked(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], log)
        run_checked(["cmake", "--build", str(LIB_BUILD), "-j", jobs, "--target", "pdsl_core"], log)
        run_checked(["cmake", "-S", str(HERE), "-B", str(BENCH_BUILD),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", f"-DPDSL_SOURCE_DIR={ROOT}",
                     f"-DPDSL_LIB_DIR={LIB_BUILD}"], log)
        run_checked(["cmake", "--build", str(BENCH_BUILD), "-j", jobs], log)
        stamp.write_text(digest)
    return digest


# ----------------------------------------------------------- workloads ----

def load_spec():
    return json.loads(SPEC_PATH.read_text())


def workload_names():
    return sorted(p.stem for p in WORKLOADS.glob("*.json"))


def load_workload(name):
    path = WORKLOADS / f"{name}.json"
    if not path.is_file():
        raise SetupError(f"unknown workload '{name}' (have: {', '.join(workload_names())})")
    wl = json.loads(path.read_text())
    wl["path"] = path
    return wl


def nproc():
    return len(os.sched_getaffinity(0))


def pinned_cpus(threads):
    """The workload's CPUs: the highest-numbered `threads` of those allowed
    (CPU 0 usually takes the most interrupts)."""
    return sorted(os.sched_getaffinity(0))[-threads:]


def confine(cpus):
    """In the child before exec: pin it to `cpus` and cap its address space."""
    os.sched_setaffinity(0, cpus)
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_process(binary, wl, seed, out, seconds=0.0, min_reps=1, max_reps=1, rounds=0,
                setup_reps=0, heldout=False, per_layer=None, chrome=None):
    """Run one runner process pinned to the workload's CPUs; its raw output.
    The process is killed (and reaped) when the run's deadline passes."""
    cpus = pinned_cpus(wl["config"].get("threads", 1))
    cmd = [str(BENCH_BUILD / binary), "--workload", str(wl["path"]), "--seed", str(seed),
           "--seconds", f"{seconds:.3f}", "--min-reps", str(min_reps), "--max-reps",
           str(max_reps), "--setup-reps", str(setup_reps), "--heldout", str(int(heldout)),
           "--out", str(out)]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    if per_layer:
        cmd += ["--per-layer", str(per_layer), "--chrome", str(chrome)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=bench_env(),
                           timeout=max(1.0, wl["deadline"] - time.monotonic()),
                           preexec_fn=lambda: confine(cpus))
    except subprocess.TimeoutExpired as e:
        raise SetupError(f"{binary}: the run exceeded {RUN_TIMEOUT_S} s") from e
    if r.returncode != 0:
        raise SetupError(f"{binary} failed: {r.stderr.strip()}")
    return json.loads(Path(out).read_text())


def fingerprint(name, wl, seed, raw, digest):
    cpus = pinned_cpus(wl["config"].get("threads", 1))
    return {"workload": name, "seed": seed, "config_hash": raw["config_hash"],
            "git_rev": git_rev(), "source_digest": digest, "nproc": nproc(),
            "cpus": ",".join(map(str, cpus)), "build_type": BUILD_TYPE}


# ------------------------------------------------------------- metrics ----

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The value with exactly TAIL_BEYOND samples above it, and its percentile."""
    s = sorted(xs)
    if len(s) <= TAIL_BEYOND:
        return (s[-1] if s else 0.0), 100.0
    i = len(s) - TAIL_BEYOND - 1
    return s[i], 100.0 * (i + 1) / len(s)


def training_reps(reps):
    return [r for r in reps if r["rounds"]["round_s"]]


def measured_rounds(rep):
    """Indices of rounds 2..R (round 1 warms caches and lazy state)."""
    return range(1, len(rep["rounds"]["round_s"]))


def setup_s(rep):
    rs = rep["rounds"]["elapsed_s"]
    return rep["wall_s"] - (rs[-1] if rs else 0.0)


def first_round_reaching(rep, target):
    for i, a in enumerate(rep["rounds"]["test_accuracy"]):
        if a >= target:
            return i + 1
    return None


def delivered_frac(rep):
    return (rep["messages"] - rep["dropped"]) / rep["messages"] if rep["messages"] else 1.0


def rep_checks(name, wl, rep, full):
    """Per-repetition output checks; returns the names of those that fail."""
    bad = []
    if not math.isfinite(rep["final_loss"]):
        bad.append(f"{name}: final loss is not finite ({rep['final_loss']})")
    if rep["corruptions_detected"] != rep["retransmits"] + rep["retry_exhausted"]:
        bad.append(f"{name}: corruptions_detected {rep['corruptions_detected']} != retransmits "
                   f"{rep['retransmits']} + retry_exhausted {rep['retry_exhausted']}")
    if rep["resyncs"] > rep["crashes"]:
        bad.append(f"{name}: resyncs {rep['resyncs']} > crashes {rep['crashes']}")
    if full and first_round_reaching(rep, wl["target_accuracy"]) is None:
        bad.append(f"{name}: target accuracy {wl['target_accuracy']} never reached "
                   f"(best {max(rep['rounds']['test_accuracy']):.3f})")
    return bad


def hash_problems(name, reps, what):
    """Repetitions of one seed and round count must end on bit-identical models."""
    hashes = {}
    for r in reps:
        hashes.setdefault((r["seed"], len(r["rounds"]["round_s"])), set()).add(r["model_hash"])
    return [f"{name}: average-model hash differs across {what} (seed {seed}, {rounds} rounds): "
            f"{sorted(hs)}" for (seed, rounds), hs in hashes.items() if len(hs) > 1]


def check_reps(name, wl, reps, full):
    """(problems, number of repetitions with at least one). `full` adds the
    target-accuracy check, which only means something on full-length
    repetitions."""
    per_rep = [rep_checks(name, wl, r, full=full) for r in reps]
    return [p for ps in per_rep for p in ps], sum(1 for ps in per_rep if ps)


def end_to_end(name, wl, seed, seconds, smoke, digest):
    """Untraced run: set-up reps and a short determinism pair in one process,
    then training reps in another. A smoke run measures the pair alone, at
    SMOKE_ROUNDS rounds."""
    RUNS.mkdir(parents=True, exist_ok=True)
    det = run_process("pdsl_benchmark", wl, seed, RUNS / f"{name}-{seed}-det.json",
                      min_reps=2, max_reps=2, setup_reps=1 if smoke else SETUP_REPS,
                      rounds=SMOKE_ROUNDS if smoke else DETERMINISM_ROUNDS, heldout=smoke)
    raw = det
    if not smoke:
        budget = max(0.0, seconds - sum(r["wall_s"] for r in det["reps"]))
        raw = run_process("pdsl_benchmark", wl, seed, RUNS / f"{name}-{seed}-e2e.json",
                          seconds=budget, min_reps=1, max_reps=100, heldout=True)
    train = training_reps(raw["reps"])
    all_reps = det["reps"] + (raw["reps"] if raw is not det else [])
    problems, failed = check_reps(name, wl, det["reps"], full=False)
    if not smoke:
        more, more_failed = check_reps(name, wl, train, full=True)
        problems += more
        failed += more_failed
    problems += hash_problems(name, training_reps(all_reps), "repeats of one seed")
    if det["config_hash"] != raw["config_hash"]:
        problems.append(f"{name}: config identity changed between processes")

    times = [r["rounds"]["round_s"][i] for r in train for i in measured_rounds(r)]
    tail_s, tail_pct = tail(times)
    metrics = {
        "round_ms": (1e3 * median(times), "ms"),
        "run_s": (median([r["rounds"]["elapsed_s"][-1] for r in train]), "s"),
        "setup_s": (median([setup_s(r) for r in all_reps]), "s"),
        "final_accuracy": (median([r["heldout_accuracy"] for r in train]), "acc"),
        # The first training repetition of its process: later ones add heap
        # fragmentation, and how many run depends on the host's speed.
        "peak_rss_mb": (train[0]["peak_rss_mb"], "MB"),
        "msg_delivered_frac": (median([delivered_frac(r) for r in train]), "ratio"),
        "comm_mb_per_round": (median([1e-6 * r["bytes"] / len(r["rounds"]["round_s"])
                                      for r in train]), "MB"),
    }
    reached = [first_round_reaching(r, wl["target_accuracy"]) for r in train]
    diagnostics = {
        "measured_rounds": len(times),
        f"round_ms_p{tail_pct:.0f}": 1e3 * tail_s,
        "training_reps": len(train),
        "agent_test_accuracy": median([r["final_accuracy"] for r in train]),
        "rounds_to_target": reached,
        "time_to_target_s": [sum(r["rounds"]["round_s"][:k]) if k else None
                             for r, k in zip(train, reached)],
    }
    return (metrics, diagnostics, len(all_reps), failed, problems,
            fingerprint(name, wl, seed, raw, digest))


def layer_rows(raw, per_layer):
    """(series, round index, tracer cells) for every measured round, joining the
    tracer's per-round cells with the runner's per-round series."""
    by_key = {(r["rep"], r["t"]): r["cells"] for r in per_layer["rounds"]}
    for rep_idx, rep in enumerate(raw["reps"]):
        for i in measured_rounds(rep):
            yield rep["rounds"], i, by_key.get((rep_idx, i + 1), {})


CALLS, NS, SELF_NS, UNITS = range(4)  # per_layer.json "cell_fields"
LAYER_UNITS = (("_ms", "ms"), (".ms", "ms"), ("_gflop", "GFLOP"), ("_gflops", "GFLOP/s"),
               (".mb", "MB"), ("_frac", "ratio"), ("goodput", "ratio"),
               ("us_per_coalition", "us"))


def layer_unit(name):
    """Per-layer units follow the metric's name; anything else is a count."""
    return next((unit for suffix, unit in LAYER_UNITS if name.endswith(suffix)), "count")


def layer_values(R, i, cells, threads, span_cost_ns):
    """Per-layer metrics of round index i, and the (child, parent) totals the
    nesting checks compare."""
    def cell(metric, field):
        return cells.get(metric, (0, 0, 0, 0.0))[field]

    ms = 1e-6
    phases = {p: 1e3 * R[f"{p}_s"][i] for p in
              ("local_grad", "crossgrad", "shapley", "aggregate", "gossip")}
    evals = R["shapley_evals"][i]
    coalitions = cell("sim.evaluate", UNITS)
    capacity = cell("runtime.parallel_for", UNITS)
    gemm_ns = cell("kernels.gemm", NS)
    v = {f"algos.phase.{p}_ms": t for p, t in phases.items()}
    v.update({
        "algos.unattributed_ms": 1e3 * R["round_s"][i] - sum(phases.values()),
        "algos.metrics_eval_ms": 1e3 * (R["elapsed_s"][i] - R["elapsed_s"][i - 1]
                                        - R["round_s"][i]),
        "kernels.gemm_calls": cell("kernels.gemm", CALLS),
        "kernels.gemm_ms": ms * gemm_ns,
        "kernels.gemm_gflop": 1e-9 * cell("kernels.gemm", UNITS),
        "kernels.gemm_gflops": cell("kernels.gemm", UNITS) / gemm_ns if gemm_ns else 0.0,
        "kernels.im2col_ms": ms * cell("kernels.im2col", NS),
        "kernels.col2im_ms": ms * cell("kernels.col2im", NS),
        "nn.train_step_calls": cell("nn.train_step", CALLS),
        "nn.train_step_self_ms": ms * cell("nn.train_step", SELF_NS),
        "nn.infer_calls": cell("nn.infer", CALLS),
        "nn.infer_self_ms": ms * cell("nn.infer", SELF_NS),
        "sim.worker.gradient_calls": cell("sim.worker.gradient", CALLS),
        "sim.worker.gradient_ms": ms * cell("sim.worker.gradient", NS),
        "dp.privatize_calls": cell("dp.privatize", CALLS),
        "dp.privatize_ms": ms * cell("dp.privatize", NS),
        "shapley.estimate_ms": ms * cell("shapley.estimate", NS),
        "shapley.coalition_evals": evals,
        "sim.evaluate.calls": cell("sim.evaluate", CALLS),
        "sim.evaluate.ms": ms * cell("sim.evaluate", NS),
        "sim.evaluate.us_per_coalition":
            1e-3 * cell("sim.evaluate", NS) / coalitions if coalitions else 0.0,
        "runtime.parallel_for_calls": cell("runtime.parallel_for", CALLS),
        "runtime.busy_ms": ms * cell("runtime.parallel_body", NS),
        "runtime.idle_frac":
            max(0.0, 1.0 - cell("runtime.parallel_body", NS) / capacity) if capacity else 0.0,
        "sim.network.send_calls": cell("sim.network.send", CALLS),
        "sim.network.send_ms": ms * cell("sim.network.send", NS),
        "sim.network.receive_ms": ms * cell("sim.network.receive", NS),
        "sim.network.begin_round_ms": ms * cell("sim.network.begin_round", NS),
        "sim.network.mb": 1e-6 * cell("sim.network.send", UNITS),
        "sim.network.retransmits": R["retransmits"][i] - R["retransmits"][i - 1],
        "fleet.wire.encode_calls": cell("fleet.wire.encode", CALLS),
        "fleet.wire.encode_ms": ms * cell("fleet.wire.encode", NS),
        "fleet.wire.decode_ms": ms * cell("fleet.wire.decode", NS),
        "fleet.wire.mb": 1e-6 * cell("fleet.wire.encode", UNITS),
        "recovery.crashes": R["crashes"][i],
        "recovery.resyncs": R["resyncs"][i],
    })
    round_wall = 1e3 * (R["elapsed_s"][i] - R["elapsed_s"][i - 1])
    # What the spans themselves cost, charged to one thread (an upper bound).
    spans = sum(c[CALLS] for c in cells.values())
    v["trace.span_cost_frac"] = spans * span_cost_ns * ms / round_wall
    # Totals for the nesting checks: (child, parent) pairs, parent scaled by
    # the number of threads that can run children concurrently.
    nest = {
        "phases <= round": (sum(phases.values()), 1e3 * R["round_s"][i]),
        "worker.gradient + dp.privatize <= local_grad + crossgrad phases":
            (v["sim.worker.gradient_ms"] + v["dp.privatize_ms"],
             threads * (phases["local_grad"] + phases["crossgrad"])),
        "shapley.estimate <= shapley phase": (v["shapley.estimate_ms"],
                                              threads * phases["shapley"]),
        "sim.evaluate <= shapley phase": (v["sim.evaluate.ms"], threads * phases["shapley"]),
        "nn.train_step <= worker.gradient": (ms * cell("nn.train_step", NS),
                                             v["sim.worker.gradient_ms"]),
        "kernels <= round + metrics eval":
            (v["kernels.gemm_ms"] + v["kernels.im2col_ms"] + v["kernels.col2im_ms"],
             threads * round_wall),
        "fleet.wire <= sim.network.send":
            (v["fleet.wire.encode_ms"] + v["fleet.wire.decode_ms"], v["sim.network.send_ms"]),
        "runtime.busy <= parallel_for capacity": (v["runtime.busy_ms"], ms * capacity),
    }
    return v, nest


def per_layer(name, wl, seed, seconds, smoke, digest):
    """Traced run: one untraced process, whose model hash the traced ones must
    match, then traced processes while the budget lasts (at least two)."""
    RUNS.mkdir(parents=True, exist_ok=True)
    rounds = SMOKE_ROUNDS if smoke else wl["trace_rounds"]
    threads = wl["config"].get("threads", 1)
    start = time.monotonic()
    untraced = run_process("pdsl_benchmark", wl, seed, RUNS / f"{name}-{seed}-u.json",
                           rounds=rounds)
    traced, tables = [], []
    while len(traced) < 2 or (time.monotonic() - start) * (1 + 1 / len(traced)) <= seconds:
        k = len(traced)
        stem = RUNS / f"{name}-{seed}-t{k}"
        pl = stem.with_suffix(".per_layer.json")
        traced.append(run_process("pdsl_benchmark_traced", wl, seed, stem.with_suffix(".json"),
                                  rounds=rounds, per_layer=pl,
                                  chrome=stem.with_suffix(".trace.json")))
        tables.append(json.loads(pl.read_text()))
        if smoke:
            break
    reps = [r for raw in [untraced] + traced for r in raw["reps"]]
    bad, failed = check_reps(name, wl, reps, full=False)
    bad += hash_problems(name, reps, "traced and untraced processes")
    bad += [f"{name}: layer missing, no entry point {s}"
            for s in sorted({s for t in tables for s in t["missing_symbols"]})]

    values, nest_totals = {}, {}
    for raw, table in zip(traced, tables):
        for R, i, cells in layer_rows(raw, table):
            v, nest = layer_values(R, i, cells, threads, table["span_cost_ns"])
            for k, x in v.items():
                values.setdefault(k, []).append(x)
            for k, (child, parent) in nest.items():
                c, p = nest_totals.get(k, (0.0, 0.0))
                nest_totals[k] = (c + child, p + parent)
    flat = {k: median(xs) for k, xs in values.items()}
    flat["sim.network.goodput"] = median(
        [(r["messages"] - r["dropped"]) / (r["messages"] + r["retransmits"] + r["duplicates_dropped"])
         for raw in traced for r in raw["reps"]])
    flat["fleet.workers_peak"] = max(r["workers_peak"] for raw in traced for r in raw["reps"])

    bad += [f"{name}: liveness: {m} should be > 0 but is {flat.get(m, 0.0)}"
            for m in wl["live"] if flat.get(m, 0.0) <= 0]
    bad += [f"{name}: liveness: {m} should be 0 but is {flat.get(m)}"
            for m in wl["zero"] if flat.get(m, 0.0) != 0]
    bad += [f"{name}: nesting: {k} fails ({child:.1f} ms > {parent:.1f} ms + 5%)"
            for k, (child, parent) in nest_totals.items() if child > NESTING_SLACK * parent]
    if flat["trace.span_cost_frac"] > MAX_TRACE_OVERHEAD:
        bad.append(f"{name}: trace.span_cost_frac {flat['trace.span_cost_frac']:.4f} > "
                   f"{MAX_TRACE_OVERHEAD}")
    metrics = {k: (v, layer_unit(k)) for k, v in flat.items()}
    diagnostics = {"traced_rounds": len(values.get("kernels.gemm_calls", [])),
                   "traced_processes": len(traced),
                   "outputs": str(RUNS / f"{name}-{seed}-t*.{{per_layer,trace}}.json")}
    return metrics, diagnostics, len(reps), failed, bad, fingerprint(name, wl, seed, traced[0], digest)


# ------------------------------------------------------------ commands ----

def measure(name, seed, seconds, trace, smoke=False, digest=None):
    """One run of one workload: the result record, with `problems` listing
    every failed check (empty when the run is correct)."""
    digest = digest or ensure_built()
    wl = load_workload(name)
    wl["deadline"] = time.monotonic() + RUN_TIMEOUT_S
    if wl["config"].get("threads", 1) > nproc():
        raise SetupError(f"{name} needs {wl['config']['threads']} threads; this host allows "
                         f"{nproc()}")
    run = per_layer if trace else end_to_end
    metrics, diag, attempted, failed, problems, fp = run(name, wl, seed, seconds, smoke, digest)
    return {"fingerprint": fp, "trace": trace, "smoke": smoke, "attempted": attempted,
            "failed": failed, "problems": list(dict.fromkeys(problems)), "diagnostics": diag,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}


def require_correct(rec):
    if rec["problems"]:
        raise CheckFailed("; ".join(rec["problems"]))


def save(record, stem):
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def print_record(rec):
    fp = rec["fingerprint"]
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    for k, m in rec["metrics"].items():
        print(f"  {k:34s} {m['value']:>14.6g} {m['unit']}")
    for k, v in rec["diagnostics"].items():
        print(f"  ({k}: {v})")


def cmd_single(args):
    rec = measure(args.workload[0], args.seed, args.seconds, args.trace)
    save(rec, f"{args.workload[0]}-seed{args.seed}-trace{args.trace}")
    print_record(rec)
    print(json.dumps({"correct": not rec["problems"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    require_correct(rec)


def cmd_smoke(check_spec):
    spec = load_spec()
    digest = ensure_built()
    start = time.monotonic()
    produced = {}
    for name in workload_names():
        for trace in (0, 1):
            rec = measure(name, 1, 0, trace, smoke=True, digest=digest)
            require_correct(rec)
            print(f"{name} trace={trace}: {len(rec['metrics'])} metrics, checks passed")
            produced[(name, trace)] = {k: m["unit"] for k, m in rec["metrics"].items()}
    print(f"smoke: {time.monotonic() - start:.1f} s for {len(produced)} runs")
    if not check_spec:
        return
    errors = []
    declared_workloads = [w["name"] for w in spec["workloads"]]
    if sorted(declared_workloads) != workload_names():
        errors.append(f"BENCHMARK.json workloads {declared_workloads} != workload files "
                      f"{workload_names()}")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for (name, t), got in produced.items():
            if t != trace:
                continue
            for m in sorted(set(declared) - set(got)):
                errors.append(f"{name}: declared {key} metric {m} not produced")
            for m in sorted(set(got) - set(declared)):
                errors.append(f"{name}: produced undeclared metric {m}")
            for m in sorted(set(got) & set(declared)):
                if got[m] != declared[m]:
                    errors.append(f"{name}: {m} unit {got[m]} != declared {declared[m]}")
    if errors:
        raise CheckFailed("check-spec: " + "; ".join(errors))
    print("check-spec: every declared workload and metric is produced with its unit, "
          "nothing undeclared")


def spread(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    m = statistics.median(xs)
    return (q[2] - q[0]) / abs(m) if m else 0.0


def check_mergeable(records, keys=SET_KEYS, what="merge"):
    first = {}
    for rec in records:
        fp = rec["fingerprint"]
        ref = first.setdefault(fp["workload"], fp)
        diff = [k for k in keys if fp[k] != ref[k]]
        if diff:
            raise CheckFailed(f"refusing to {what} results for {fp['workload']}: fingerprints "
                              f"differ in {', '.join(diff)}")


def summarize(records):
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    table = {}
    for rec in records:
        for k, m in rec["metrics"].items():
            table.setdefault(rec["fingerprint"]["workload"], {}).setdefault(k, []).append(
                m["value"])
    return table, bounds


def cmd_repeats(args):
    names = args.workload or workload_names()
    digest = ensure_built()
    records = []
    for r in range(args.repeats):
        for name in names:
            seed = args.seed + r
            rec = measure(name, seed, args.seconds, 0, digest=digest)
            require_correct(rec)
            records.append(rec)
            print(f"set {r + 1}/{args.repeats} {name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in rec["metrics"].items()), flush=True)
    check_mergeable(records)
    table, bounds = summarize(records)
    worst = 0.0
    for name, metrics in table.items():
        for k, xs in metrics.items():
            s = spread(xs)
            if k != "setup_s":
                worst = max(worst, s / bounds[k] if bounds.get(k) else 0.0)
            print(f"{name:12s} {k:20s} median {median(xs):12.6g}  IQR/median {s:.4f}  "
                  f"bound {bounds.get(k)}  n={len(xs)}")
    path = save({"records": records}, f"repeats-{time.strftime('%Y%m%d-%H%M%S')}")
    print(f"saved {path}; worst spread/bound (excluding setup_s) {worst:.2f}")


def paired_accuracy_change(a, b, name):
    """Median over the seeds both sets ran of B's final_accuracy minus A's, or
    None without a common seed. One seed's accuracy is bit-identical from run
    to run, so the pairing takes the seeds' own spread out of the comparison."""
    def by_seed(records):
        return {r["fingerprint"]["seed"]: r["metrics"]["final_accuracy"]["value"]
                for r in records if r["fingerprint"]["workload"] == name}
    sa, sb = by_seed(a), by_seed(b)
    diffs = [sb[s] - sa[s] for s in sa if s in sb]
    return median(diffs) if diffs else None


def cmd_compare(a_path, b_path):
    """B against A: every metric against its BENCHMARK.json bound, and
    final_accuracy also seed by seed against ACCURACY_DROP. A and B may come
    from different commits, but not from different workloads or hosts."""
    a = json.loads(Path(a_path).read_text())["records"]
    b = json.loads(Path(b_path).read_text())["records"]
    for label, records in (("A", a), ("B", b)):
        check_mergeable(records)
        revs = sorted({(r["fingerprint"]["git_rev"], r["fingerprint"]["source_digest"])
                       for r in records})
        print(f"{label}: " + "; ".join(f"git_rev={g} source_digest={d}" for g, d in revs))
    check_mergeable(a + b, ENV_KEYS, "compare")
    ta, bounds = summarize(a)
    tb, _ = summarize(b)
    if sorted(ta) != sorted(tb):
        raise CheckFailed(f"A has workloads {sorted(ta)}, B has {sorted(tb)}")
    better = {m["name"]: m["better"] for m in load_spec()["end_to_end"]}
    worse = []
    for name in sorted(ta):
        for k in sorted(ta[name]):
            ma, mb = median(ta[name][k]), median(tb[name][k])
            change = (mb - ma) / abs(ma) if ma else 0.0
            regress = change if better.get(k) == "lower" else -change
            verdict = "worse" if regress > bounds.get(k, 0) else "ok"
            if verdict == "worse":
                worse.append(f"{name}/{k}")
            print(f"{name:12s} {k:20s} A {ma:12.6g}  B {mb:12.6g}  change {change:+.4f}  "
                  f"bound {bounds.get(k)}  {verdict}")
        paired = paired_accuracy_change(a, b, name)
        if paired is None:
            print(f"{name:12s} final_accuracy seed-paired: no seed in both sets")
            continue
        verdict = "worse" if paired < -ACCURACY_DROP else "ok"
        if verdict == "worse":
            worse.append(f"{name}/final_accuracy (seed-paired)")
        print(f"{name:12s} final_accuracy seed-paired median change {paired:+.4f}  "
              f"bound -{ACCURACY_DROP} absolute  {verdict}")
    if worse:
        raise CheckFailed("B is worse than A beyond the bound on " + ", ".join(worse))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", help="workload name (repeatable)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--check-spec", action="store_true")
    ap.add_argument("--repeats", type=int, default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        if args.smoke or args.check_spec:
            cmd_smoke(args.check_spec)
        elif args.compare:
            cmd_compare(*args.compare)
        elif args.repeats:
            cmd_repeats(args)
        elif args.workload and len(args.workload) == 1:
            cmd_single(args)
        else:
            ap.error("give one --workload, or --smoke / --check-spec / --repeats / --compare")
    except CheckFailed as e:
        print(f"run.py: check failed: {e}", file=sys.stderr)
        return 1
    except SetupError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
