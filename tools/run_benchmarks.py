#!/usr/bin/env python3
"""S-BENCH360 driver: one-command benchmark/regression harness.

Rebuilds the Release tree, runs a selectable subset of the bench binaries
(each emitting the canonical schema-v1 envelope from bench/bench_util), merges
N repeats into per-metric median/min/max sample arrays, writes the merged
BENCH_<id>.json files at the repo root, appends a history line per bench to
BENCH_HISTORY.jsonl, and renders BENCH_REPORT.md with a leaderboard plus a
perf-trajectory section diffed against prior history entries.

Usage:
    python tools/run_benchmarks.py --quick          # default subset, 1 repeat
    python tools/run_benchmarks.py --repeats 5      # default subset, medians over 5
    python tools/run_benchmarks.py --only fig1,kernels   # re-run these; the report
                                                        # keeps the others' rows
                                                        # from their BENCH_*.json
    python tools/run_benchmarks.py --validate       # schema-check checked-in files
    python tools/run_benchmarks.py --git-commit HEAD~1   # A/B vs an older rev

A/B mode builds the older rev in a temporary git worktree so speedups are
measured against a real binary, not remembered numbers. Only benches whose
binary exists at the old rev participate, and each must write a schema-v1
envelope: any other output fails the run, naming the file.
"""

import argparse
import datetime
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_VERSION = 1

# Bench registry: binary name, envelope output filename the binary writes,
# quick-mode args (tiny configs for the big sweeps), default args, and which
# metric names to surface in the leaderboard (prefix match; [] = all).
FIG_QUICK = ["--rounds", "2", "--train", "300", "--agents", "4", "--eps", "0.3",
             "--mc_perms", "2"]
BENCHES = {
    "threads": {
        "binary": "bench_threads_scaling",
        "quick": ["--rounds", "3", "--train", "800"],
        "default": [],
        "headline": ["threads1.total_s", "threads2.speedup_total",
                     "threads4.speedup_total", "threads8.speedup_total",
                     "threads1.metrics_eval_ms_per_round",
                     "threads4.metrics_eval_ms_per_round"],
        "ab": True,
    },
    "kernels": {
        "binary": "bench_micro_kernels",
        "quick": ["--reps", "5"],
        "default": [],
        "headline": ["cifar_conv_min_speedup", "tb_blocked_min_speedup",
                     "sgemm_blocked_min_speedup", "tb_shapley_stack.speedup",
                     "conv_cifar_l2.speedup", "gemm_square_256.speedup"],
        "ab": True,
    },
    "scale": {
        "binary": "bench_scale",
        "quick": ["--agents", "8,32,64", "--rounds", "3", "--train", "1024",
                  "--active", "8"],
        "default": [],
        "headline": ["n64.ms_per_round", "n256.ms_per_round",
                     "n1024.ms_per_round", "n1024.peak_rss_mb"],
        "ab": True,
    },
    "recovery": {
        # S-RECOV: retransmit-overhead sweep under channel corruption plus the
        # crash/resync recovery sweep; doubles as the <25% overhead contract.
        "binary": "bench_recovery",
        "quick": ["--rounds", "6", "--train", "600", "--reps", "2",
                  "--mc_perms", "2"],
        "default": [],
        "headline": ["corrupt_off.round_ms", "corrupt_wire.round_ms",
                     "corrupt_10pct.round_ms", "crash_10pct.final_accuracy"],
        "ab": True,
    },
    "byzantine": {
        "binary": "bench_byzantine",
        # 10 rounds: the 25% sign_flip gate reads pi at round 10 and fails
        # closed (pi_gate_armed: false) on a shorter run.
        "quick": ["--rounds", "10", "--train", "600", "--mc_perms", "4",
                  "--fracs", "0.0,0.25"],
        "default": [],
        "headline": ["pdsl.final_accuracy", "dp_dpsgd.final_accuracy",
                     "pdsl_robust.pi_attacker_mean_last3"],
        "ab": True,
    },
    "fig1": {"binary": "bench_fig1_mnist_full", "quick": FIG_QUICK, "default": [],
             "headline": ["pdsl.final_loss", "pdsl.final_accuracy",
                          "dp_dpsgd.final_loss"], "ab": False},
    "fig2": {"binary": "bench_fig2_mnist_bipartite", "quick": FIG_QUICK, "default": [],
             "headline": ["pdsl.final_loss", "pdsl.final_accuracy"], "ab": False},
    "fig3": {"binary": "bench_fig3_mnist_ring", "quick": FIG_QUICK, "default": [],
             "headline": ["pdsl.final_loss", "pdsl.final_accuracy"], "ab": False},
    "fig4": {"binary": "bench_fig4_cifar_full", "quick": FIG_QUICK, "default": [],
             "headline": ["pdsl.final_loss", "pdsl.final_accuracy"], "ab": False},
    "fig5": {"binary": "bench_fig5_cifar_bipartite", "quick": FIG_QUICK, "default": [],
             "headline": ["pdsl.final_loss", "pdsl.final_accuracy"], "ab": False},
    "fig6": {"binary": "bench_fig6_cifar_ring", "quick": FIG_QUICK, "default": [],
             "headline": ["pdsl.final_loss", "pdsl.final_accuracy"], "ab": False},
    "table1": {"binary": "bench_table1_mnist_accuracy", "quick": FIG_QUICK,
               "default": [], "headline": ["pdsl.final_accuracy"], "ab": False},
    "table2": {"binary": "bench_table2_cifar_accuracy", "quick": FIG_QUICK,
               "default": [], "headline": ["pdsl.final_accuracy"], "ab": False},
    "shapley": {
        # S-SHAP: perf gate (sequential vs batched vs batched+adaptive) plus
        # the estimator-quality and weighting-ablation sections that used to
        # live in ablation_shapley / ablation_mc_shapley.
        "binary": "bench_shapley",
        "quick": ["--rounds", "2", "--agents", "4", "--perms", "2,4"],
        "default": [],
        "headline": ["perf.adaptive.shapley_speedup_x",
                     "perf.adaptive.round_speedup_x",
                     "perm8.mean_abs_phi_error",
                     "mu_sweep.pdsl.final_accuracy",
                     "byzantine.pdsl_robust.final_accuracy"],
        "ab": True,
    },
    "ablation_sigma": {
        "binary": "bench_ablation_sigma",
        "quick": ["--agents", "6", "--eps", "0.1,0.5"],
        "default": [],
        "headline": ["full.sigma_theorem1_over_dpsgd"],
        "ab": False,
    },
    "ablation_compression": {
        "binary": "bench_ablation_compression",
        "quick": ["--rounds", "2"],
        "default": [],
        "headline": ["none.final_accuracy", "topk_0_1.final_accuracy",
                     "topk_0_1.bytes_ratio_vs_dense"],
        "ab": False,
    },
    "privacy_attack": {
        "binary": "bench_privacy_attack",
        "quick": ["--trials", "20", "--rounds", "3", "--sigmas", "0.0,0.1"],
        "default": [],
        "headline": ["label_leakage.hit_rate_no_noise",
                     "label_leakage.hit_rate_max_noise", "membership.auc_no_noise"],
        "ab": False,
    },
    "extended_algorithms": {
        "binary": "bench_extended_algorithms",
        "quick": ["--rounds", "2", "--seeds", "1"],
        "default": [],
        "headline": ["pdsl.final_accuracy_mean", "dpsgd.final_accuracy_mean"],
        "ab": False,
    },
}
DEFAULT_SUBSET = ["threads", "kernels", "byzantine", "scale", "shapley", "recovery"]


def log(msg):
    print(f"[run_benchmarks] {msg}", flush=True)


def run(cmd, **kw):
    kw.setdefault("check", True)
    return subprocess.run(cmd, **kw)


def git_rev(repo=REPO):
    out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=repo,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def validate_envelope(doc, path="<doc>"):
    """Return a list of schema violations (empty = valid)."""
    errs = []

    def need(obj, key, types, where):
        if not isinstance(obj, dict) or key not in obj:
            errs.append(f"{where}: missing key '{key}'")
            return None
        if not isinstance(obj[key], types):
            errs.append(f"{where}.{key}: expected {types}, got {type(obj[key]).__name__}")
            return None
        return obj[key]

    if need(doc, "schema_version", (int, float), path) != SCHEMA_VERSION:
        errs.append(f"{path}: schema_version != {SCHEMA_VERSION}")
    need(doc, "bench", str, path)
    kind = need(doc, "kind", str, path)
    if kind is not None and kind not in ("figure", "table", "ablation", "scaling",
                                         "micro", "attack", "calibration"):
        errs.append(f"{path}: unknown kind '{kind}'")
    need(doc, "git_rev", str, path)
    build = need(doc, "build", dict, path)
    if build is not None:
        need(build, "compiler", str, f"{path}.build")
        need(build, "compiler_version", str, f"{path}.build")
        need(build, "build_type", str, f"{path}.build")
        need(build, "pdsl_native", bool, f"{path}.build")
    host = need(doc, "host", dict, path)
    if host is not None:
        need(host, "hardware_concurrency", (int, float), f"{path}.host")
        need(host, "kernels_isa", str, f"{path}.host")
    repeats = need(doc, "repeats", (int, float), path)
    if repeats is not None and repeats < 1:
        errs.append(f"{path}: repeats must be >= 1")
    need(doc, "config", dict, path)
    need(doc, "faults", dict, path)
    need(doc, "adversary", dict, path)
    metrics = need(doc, "metrics", dict, path)
    if metrics is not None:
        for name, m in metrics.items():
            where = f"{path}.metrics[{name}]"
            need(m, "unit", str, where)
            for k in ("median", "min", "max"):
                need(m, k, (int, float), where)
            samples = need(m, "samples", list, where)
            if samples is not None:
                if not samples:
                    errs.append(f"{where}: empty samples")
                elif not all(isinstance(s, (int, float)) for s in samples):
                    errs.append(f"{where}: non-numeric sample")
                else:
                    lo, hi = min(samples), max(samples)
                    if not (lo <= m.get("median", lo) <= hi):
                        errs.append(f"{where}: median outside [min, max]")
    need(doc, "runs", list, path)
    if "acceptance" in doc:
        acc = need(doc, "acceptance", dict, path)
        if acc is not None:
            need(acc, "passed", bool, f"{path}.acceptance")
    return errs


def cmd_validate():
    files = sorted(glob.glob(os.path.join(REPO, "BENCH_*.json")))
    if not files:
        log("no BENCH_*.json files found at repo root")
        return 1
    bad = 0
    for f in files:
        try:
            doc = json.load(open(f))
        except json.JSONDecodeError as e:
            print(f"INVALID {os.path.basename(f)}: not JSON ({e})")
            bad += 1
            continue
        errs = validate_envelope(doc, os.path.basename(f))
        if errs:
            bad += 1
            print(f"INVALID {os.path.basename(f)}:")
            for e in errs:
                print(f"    {e}")
        else:
            print(f"ok      {os.path.basename(f)} "
                  f"(bench={doc['bench']}, {len(doc['metrics'])} metrics, "
                  f"repeats={doc['repeats']})")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# Build + run + merge
# ---------------------------------------------------------------------------

def build_tree(src, build_dir, jobs, targets=()):
    run(["cmake", "-B", build_dir, "-S", src, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=subprocess.DEVNULL)
    cmd = ["cmake", "--build", build_dir, "-j", str(jobs)]
    for t in targets:
        cmd += ["--target", t]
    run(cmd, stdout=subprocess.DEVNULL)


def run_bench_once(build_dir, bench, args, rev):
    """Run one bench binary in a scratch cwd; return its parsed envelope."""
    spec = BENCHES[bench]
    binary = os.path.join(build_dir, "bench", spec["binary"])
    if not os.path.exists(binary):
        raise FileNotFoundError(binary)
    with tempfile.TemporaryDirectory(prefix=f"bench_{bench}_") as scratch:
        out = os.path.join(scratch, "out.json")
        env = dict(os.environ, PDSL_GIT_REV=rev)
        proc = subprocess.run([binary] + args + ["--out", out], cwd=scratch, env=env,
                              capture_output=True, text=True)
        # An acceptance-gate failure exits nonzero but still writes the
        # envelope; carry it through so the report shows FAIL (the driver
        # exits nonzero at the end). Abort only when there is no JSON at all.
        if proc.returncode != 0 and not os.path.exists(out):
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            raise RuntimeError(f"{spec['binary']} exited {proc.returncode}")
        with open(out) as f:
            return json.load(f)


def merge_envelopes(envelopes):
    """Merge N per-process envelopes into one with repeats=N and concatenated
    metric samples (median/min/max recomputed)."""
    merged = dict(envelopes[0])
    merged["repeats"] = len(envelopes)
    metrics = {}
    for env in envelopes:
        for name, m in env.get("metrics", {}).items():
            entry = metrics.setdefault(name, {"unit": m["unit"], "samples": []})
            entry["samples"].extend(m["samples"])
    for m in metrics.values():
        s = m["samples"]
        m["median"] = statistics.median(s)
        m["min"] = min(s)
        m["max"] = max(s)
    merged["metrics"] = metrics
    return merged


def run_bench(build_dir, bench, args, repeats, rev):
    envelopes = []
    for rep in range(repeats):
        log(f"  {bench}: repeat {rep + 1}/{repeats}")
        envelopes.append(run_bench_once(build_dir, bench, args, rev))
    return merge_envelopes(envelopes)


# ---------------------------------------------------------------------------
# History + report
# ---------------------------------------------------------------------------

def history_path():
    return os.path.join(REPO, "BENCH_HISTORY.jsonl")


def load_history():
    entries = []
    if os.path.exists(history_path()):
        with open(history_path()) as f:
            for line in f:
                line = line.strip()
                if line:
                    entries.append(json.loads(line))
    return entries


def append_history(doc):
    entry = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "bench": doc["bench"],
        "git_rev": doc["git_rev"],
        "repeats": doc["repeats"],
        "metrics": {k: m["median"] for k, m in doc["metrics"].items()},
    }
    if "acceptance" in doc:
        entry["acceptance_passed"] = doc["acceptance"].get("passed")
    with open(history_path(), "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def headline_metrics(doc, bench):
    wanted = BENCHES.get(bench, {}).get("headline", [])
    metrics = doc["metrics"]
    names = [n for n in wanted if n in metrics]
    if not names:
        names = sorted(metrics)[:8]
    return names


def fmt(v):
    if v is None:
        return "-"
    if abs(v) >= 1000 or (v != 0 and abs(v) < 0.001):
        return f"{v:.3e}"
    return f"{v:.4g}"


def with_checked_in(docs):
    """`docs` plus the checked-in BENCH_<id>.json of every bench this run did
    not re-run, in report order (DEFAULT_SUBSET first), so that a --only run
    rewrites only its own benches' rows of BENCH_REPORT.md."""
    rerun = {d["bench"] for d in docs}
    out = list(docs)
    for bench in BENCHES:
        path = os.path.join(REPO, f"BENCH_{bench}.json")
        if bench not in rerun and os.path.exists(path):
            with open(path) as f:
                out.append(json.load(f))
    order = DEFAULT_SUBSET + [b for b in BENCHES if b not in DEFAULT_SUBSET]
    return sorted(out, key=lambda d: order.index(d["bench"]) if d["bench"] in order
                  else len(order))


def is_history_of(entry, doc):
    """True iff the history line `entry` was appended for the envelope `doc`."""
    return (entry.get("git_rev") == doc["git_rev"]
            and entry.get("metrics") == {k: m["median"] for k, m in doc["metrics"].items()})


def render_report(docs, history, ab_section):
    lines = ["# Benchmark report (S-BENCH360)", ""]
    lines.append("Generated by `python tools/run_benchmarks.py`. Medians over "
                 "`repeats` runs of each bench binary; full sample arrays and "
                 "per-run rows live in the matching `BENCH_<id>.json`.")
    lines.append("")

    lines.append("## Leaderboard")
    lines.append("")
    lines.append("| bench | kind | git rev | repeats | metric | median | min | max | unit |")
    lines.append("|---|---|---|---|---|---|---|---|---|")
    for doc in docs:
        bench = doc["bench"]
        for name in headline_metrics(doc, bench):
            m = doc["metrics"][name]
            lines.append(f"| {bench} | {doc['kind']} | {doc['git_rev']} | "
                         f"{doc['repeats']} | {name} | {fmt(m['median'])} | "
                         f"{fmt(m['min'])} | {fmt(m['max'])} | {m['unit']} |")
    lines.append("")

    gates = [(d["bench"], d["acceptance"]) for d in docs if "acceptance" in d]
    if gates:
        lines.append("## Acceptance gates")
        lines.append("")
        for bench, acc in gates:
            status = "PASS" if acc.get("passed") else "FAIL"
            detail = ", ".join(f"{k}={fmt(v) if isinstance(v, (int, float)) else v}"
                               for k, v in sorted(acc.items()) if k != "passed")
            lines.append(f"- **{bench}**: {status} ({detail})")
        lines.append("")

    # Perf trajectory: each envelope vs the most recent history entry for the
    # same bench that is not its own (a checked-in envelope that was not re-run
    # already has its line in the history).
    lines.append("## Perf trajectory")
    lines.append("")
    any_row = False
    traj = ["| bench | metric | previous | current | delta | prev rev -> cur rev |",
            "|---|---|---|---|---|---|"]
    for doc in docs:
        bench = doc["bench"]
        prior = [h for h in history if h.get("bench") == bench and not is_history_of(h, doc)]
        if not prior:
            continue
        prev = prior[-1]
        for name in headline_metrics(doc, bench):
            cur = doc["metrics"][name]["median"]
            old = prev.get("metrics", {}).get(name)
            if old is None:
                continue
            delta = "-" if old == 0 else f"{100.0 * (cur - old) / abs(old):+.1f}%"
            traj.append(f"| {bench} | {name} | {fmt(old)} | {fmt(cur)} | {delta} | "
                        f"{prev.get('git_rev', '?')} -> {doc['git_rev']} |")
            any_row = True
    if any_row:
        lines.extend(traj)
    else:
        lines.append("No prior history for the selected benches "
                     "(BENCH_HISTORY.jsonl grows one line per bench per run).")
    lines.append("")

    if ab_section:
        lines.extend(ab_section)

    lines.append("---")
    lines.append("*Schema: every `BENCH_*.json` follows the schema-v1 envelope "
                 "(see `bench/bench_util.hpp`); validate with "
                 "`python tools/run_benchmarks.py --validate`.*")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# A/B mode
# ---------------------------------------------------------------------------

class NotAnEnvelope(Exception):
    """An A/B old-rev bench wrote something other than a schema-v1 envelope."""


def envelope_medians(path):
    """Per-metric medians of the schema-v1 envelope at `path`; raises
    NotAnEnvelope naming the file when it is not one."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise NotAnEnvelope(f"{path}: not a JSON document ({e})") from e
    errs = validate_envelope(doc, path) if isinstance(doc, dict) else [f"{path}: not an object"]
    if errs:
        raise NotAnEnvelope("; ".join(errs))
    return {k: m["median"] for k, m in doc["metrics"].items()}


def run_ab(ref, benches, build_jobs, repeats, quick):
    """Build `ref` in a worktree, run the A/B-capable benches on both builds,
    return a markdown section with the measured comparison."""
    benches = [b for b in benches if BENCHES[b]["ab"]]
    if not benches:
        log("A/B: none of the selected benches support A/B mode; "
            f"eligible: {[b for b in BENCHES if BENCHES[b]['ab']]}")
        return []
    rev = subprocess.run(["git", "rev-parse", "--short=12", ref], cwd=REPO,
                         capture_output=True, text=True)
    if rev.returncode != 0:
        raise RuntimeError(f"A/B: cannot resolve rev '{ref}'")
    old_rev = rev.stdout.strip()
    worktree = tempfile.mkdtemp(prefix=f"pdsl_ab_{old_rev}_")
    lines = []
    try:
        log(f"A/B: adding worktree for {ref} ({old_rev})")
        run(["git", "worktree", "add", "--detach", worktree, ref], cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        old_build = os.path.join(worktree, "build-ab")
        log(f"A/B: building {old_rev} (Release, bench targets only)")
        build_tree(worktree, old_build, build_jobs,
                   targets=[BENCHES[b]["binary"] for b in benches])

        lines = ["## A/B comparison", "",
                 f"Old rev `{old_rev}` (`{ref}`) rebuilt in a worktree and "
                 "re-measured on this host; both sides are medians over "
                 f"{repeats} repeat(s).", "",
                 "| bench | metric | old | new | delta |", "|---|---|---|---|---|"]
        for bench in benches:
            spec = BENCHES[bench]
            args = spec["quick"] if quick else spec["default"]
            new_doc = run_bench(os.path.join(REPO, "build"), bench, args, repeats,
                                git_rev())
            new_metrics = {k: m["median"] for k, m in new_doc["metrics"].items()}
            try:
                old_envs = []
                for rep in range(repeats):
                    log(f"  {bench}@{old_rev}: repeat {rep + 1}/{repeats}")
                    spec_binary = os.path.join(old_build, "bench", spec["binary"])
                    if not os.path.exists(spec_binary):
                        raise FileNotFoundError(spec_binary)
                    with tempfile.TemporaryDirectory() as scratch:
                        out = os.path.join(scratch, f"{spec['binary']}@{old_rev}.json")
                        env = dict(os.environ, PDSL_GIT_REV=old_rev)
                        proc = subprocess.run([spec_binary] + args + ["--out", out],
                                              cwd=scratch, env=env,
                                              capture_output=True, text=True)
                        # Old revs may reject newer flags; retry with --out only.
                        if proc.returncode != 0 and not os.path.exists(out):
                            subprocess.run([spec_binary, "--out", out], cwd=scratch,
                                           env=env, capture_output=True, text=True)
                        if not os.path.exists(out):
                            raise RuntimeError(f"no JSON from {spec['binary']}@{old_rev}")
                        old_envs.append(envelope_medians(out))
            except (FileNotFoundError, RuntimeError) as e:
                log(f"A/B: skipping {bench}: {e}")
                lines.append(f"| {bench} | (skipped: old rev has no comparable "
                             f"JSON output) | - | - | - |")
                continue
            old_metrics = {}
            for k in old_envs[0]:
                vals = [e[k] for e in old_envs if k in e]
                if vals:
                    old_metrics[k] = statistics.median(vals)
            for name in headline_metrics(new_doc, bench):
                new_v = new_metrics.get(name)
                old_v = old_metrics.get(name)
                if new_v is None or old_v is None:
                    continue
                delta = "-" if old_v == 0 else f"{100.0 * (new_v - old_v) / abs(old_v):+.1f}%"
                lines.append(f"| {bench} | {name} | {fmt(old_v)} | {fmt(new_v)} | {delta} |")
        lines.append("")
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree], cwd=REPO,
                       capture_output=True)
        shutil.rmtree(worktree, ignore_errors=True)
    return lines


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true",
                    help="tiny configs, 1 repeat (CI smoke)")
    ap.add_argument("--only", default="",
                    help="comma-separated bench ids (default: %s)" % ",".join(DEFAULT_SUBSET))
    ap.add_argument("--all", action="store_true", help="run every registered bench")
    ap.add_argument("--repeats", type=int, default=0,
                    help="repeat each bench N times and report medians "
                         "(default: 1 with --quick, 3 otherwise)")
    ap.add_argument("--validate", action="store_true",
                    help="schema-check all checked-in BENCH_*.json and exit")
    ap.add_argument("--git-commit", default="",
                    help="A/B mode: rebuild this rev in a worktree and measure both")
    ap.add_argument("--no-build", action="store_true", help="skip the Release rebuild")
    ap.add_argument("--jobs", type=int, default=max(1, (os.cpu_count() or 1)),
                    help="build parallelism")
    args = ap.parse_args()

    if args.validate:
        sys.exit(cmd_validate())

    if args.all:
        subset = list(BENCHES)
    elif args.only:
        subset = [b.strip() for b in args.only.split(",") if b.strip()]
        unknown = [b for b in subset if b not in BENCHES]
        if unknown:
            ap.error(f"unknown bench id(s) {unknown}; known: {sorted(BENCHES)}")
    else:
        subset = list(DEFAULT_SUBSET)

    repeats = args.repeats or (1 if args.quick else 3)
    rev = git_rev()

    if not args.no_build:
        log("building Release tree (cmake -B build -DCMAKE_BUILD_TYPE=Release)")
        build_tree(REPO, os.path.join(REPO, "build"), args.jobs)

    history = load_history()
    docs = []
    for bench in subset:
        spec = BENCHES[bench]
        bench_args = spec["quick"] if args.quick else spec["default"]
        log(f"running {bench} ({spec['binary']} {' '.join(bench_args)})")
        doc = run_bench(os.path.join(REPO, "build"), bench, bench_args, repeats, rev)
        out_path = os.path.join(REPO, f"BENCH_{doc['bench']}.json")
        with open(out_path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        errs = validate_envelope(doc, os.path.basename(out_path))
        if errs:
            for e in errs:
                log(f"SCHEMA ERROR: {e}")
            sys.exit(1)
        log(f"wrote {os.path.basename(out_path)}")
        docs.append(doc)

    ab_section = []
    if args.git_commit:
        try:
            ab_section = run_ab(args.git_commit, subset, args.jobs, repeats, args.quick)
        except NotAnEnvelope as e:
            log(f"A/B: not a schema-v1 envelope: {e}")
            sys.exit(1)

    report = render_report(with_checked_in(docs), history, ab_section)
    with open(os.path.join(REPO, "BENCH_REPORT.md"), "w") as f:
        f.write(report)
    for doc in docs:
        append_history(doc)
    log("wrote BENCH_REPORT.md and appended BENCH_HISTORY.jsonl")

    failed = [d["bench"] for d in docs
              if "acceptance" in d and not d["acceptance"].get("passed")]
    if failed:
        log(f"acceptance gates FAILED: {failed}")
        sys.exit(1)
    log("done")


if __name__ == "__main__":
    main()
