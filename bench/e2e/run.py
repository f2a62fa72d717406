#!/usr/bin/env python3
"""End-to-end benchmark: update stream -> gutters -> sketch bank -> certificate
-> CONGEST k-ECSS -> verified subgraph, with per-layer numbers from a traced run.

    python3 bench/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                             [--trace 0|1] [--out FILE] [--trace-dir DIR]

Builds bench_e2e (bench/e2e/CMakeLists.txt) into build-e2e/, then runs each
workload in its own process, so each gets its own peak RSS. Without
--workload every workload runs. The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics` (every end-to-end metric
of BENCHMARK.json, or with --trace 1 every per-layer metric, each with its
value and unit); a table goes to stderr, and --out writes the full result
document (host and build fingerprint, samples, counts, digests) that
compare.py reads. The metrics only that document carries are declared, with
the seeds and the trace command, in bench/e2e/metrics.json. With --trace 1 each workload also writes its
chrome/Perfetto trace and a layer summary to --trace-dir.

Exits nonzero, printing no result line, when the build fails, a workload
process fails or times out, or any output check fails.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "bench_e2e"
WORKLOADS = ["serve-churn", "ecss2-seq", "ecss2-net", "kecss3-seq"]
WORKLOAD_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_quiet(cmd, what):
    """Runs a build step with its output on stderr; raises on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{what} failed ({' '.join(map(str, cmd))})")


def build():
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD)]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    run_quiet(configure, "configure")
    run_quiet(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)], "build")


def run_workload(name, seed, seconds, trace_path):
    """Runs bench_e2e for one workload in its own process group."""
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{name}: timed out after {WORKLOAD_TIMEOUT_S} s")
    finally:
        # The net workload's forked workers share the group; reap stragglers.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    try:
        doc = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{name}: exit code {proc.returncode}, no result document")
    doc["exit_code"] = proc.returncode
    return doc


def end_to_end(doc):
    """Every end-to-end metric that applies to the workload: name -> (value,
    sample count)."""
    s = doc["samples_ns"]
    serve = doc["workload"] == "serve-churn"
    if serve:
        updates = doc["updates_per_epoch"]
        ingest = s["apply"]
        served = s["total"]
        to_ecss = s["total"]
    else:
        updates = doc["updates"]
        ingest = [a + f for a, f in zip(s["apply"], s["flush"])]
        served = [i + q for i, q in zip(ingest, s["query"])]
        to_ecss = [v + sv for v, sv in zip(served, s["solve"])]
    m = {
        "setup_s": (statistics.median(s["setup"]) / 1e9, len(s["setup"])),
        "time_to_ecss_s": (statistics.median(to_ecss) / 1e9, len(to_ecss)),
        "ingest_updates_per_s": (statistics.median(updates * 1e9 / x for x in ingest), len(ingest)),
        "query_p50_ms": (statistics.median(s["query"]) / 1e6, len(s["query"])),
        "serve_updates_per_s": (statistics.median(updates * 1e9 / x for x in served), len(served)),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024, 1),
    }
    if not serve:
        m["solve_s"] = (statistics.median(s["solve"]) / 1e9, len(s["solve"]))
        m["congest_rounds"] = (doc["counts"]["congest_rounds"], 1)
        m["congest_messages"] = (doc["counts"]["congest_messages"], 1)
    # p90 only where at least ten samples lie beyond it.
    if len(s["query"]) >= 100:
        m["query_p90_ms"] = (statistics.quantiles(s["query"], n=10)[8] / 1e6, len(s["query"]))
    m["weight_ratio"] = (doc["counts"]["weight_ratio"], 1)
    m["failed_fraction"] = (doc["failed"] / doc["attempted"], doc["attempted"])
    return m


def check(doc, name):
    """Problems with one workload's run, as messages (empty when correct)."""
    problems = []
    if doc["exit_code"] != 0 or doc["failed"] != 0:
        problems.append(f"{name}: {doc['failed']}/{doc['attempted']} operations failed"
                        f" (exit {doc['exit_code']}): {doc['error']}")
    if doc.get("workload") != name:
        problems.append(f"{name}: result document names workload {doc.get('workload')!r}")
    if doc.get("counts", {}).get("bank_replays", 0) != 0:
        problems.append(f"{name}: a query replayed the stream instead of cloning the bank")
    return problems


def host_fingerprint(seed, docs):
    cpu = platform.processor() or "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
            # Only the code under test counts: the library sources and build.
            if subprocess.run(["git", "status", "--porcelain", "--", "src", "CMakeLists.txt"],
                              cwd=ROOT, capture_output=True, text=True).stdout.strip():
                commit += "-dirty"
        except (OSError, subprocess.CalledProcessError):
            pass
    build_info = next(iter(docs.values()))["build"] if docs else {}
    return {"cpu_model": cpu, "nproc": os.cpu_count(), **build_info, "commit": commit,
            "seed": seed}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    extra = json.loads((HERE / "metrics.json").read_text())
    seeds = extra["seeds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=seeds["default"],
                    help=f"input seed ({seeds['default']} default, {seeds['held_out']} held out)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="timed seconds per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: add a traced repetition and report per-layer metrics")
    ap.add_argument("--out", type=pathlib.Path, help="write the full result document here")
    ap.add_argument("--trace-dir", type=pathlib.Path, default=BUILD / "traces",
                    help="where --trace 1 writes traces and layer summaries")
    args = ap.parse_args()

    declared_e2e = {m["name"]: m for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m for m in bench["per_layer"]}
    declared_result = {m["name"]: m for m in extra["result_metrics"]}
    if declared_result.keys() & declared_e2e.keys():
        log("error: bench/e2e/metrics.json redeclares a metric of BENCHMARK.json")
        return 1
    try:
        build()
    except RuntimeError as e:
        log(f"error: {e}")
        return 1

    names = [args.workload] if args.workload else WORKLOADS
    if args.trace:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
    docs, problems = {}, []
    for name in names:
        trace_path = args.trace_dir / f"{name}-seed{args.seed}.json" if args.trace else None
        start = time.monotonic()
        try:
            docs[name] = run_workload(name, args.seed, args.seconds, trace_path)
        except RuntimeError as e:
            log(f"error: {e}")
            return 1
        log(f"{name}: {time.monotonic() - start:.1f} s")
        problems += check(docs[name], name)
    if "ecss2-seq" in docs and "ecss2-net" in docs and \
            docs["ecss2-seq"]["digest"] != docs["ecss2-net"]["digest"]:
        problems.append("ecss2-net output digest differs from ecss2-seq's")
    for p in problems:
        log(f"error: {p}")
    if problems:
        return 1

    results = {}
    for name, doc in docs.items():
        metrics = {}
        for metric, (value, samples) in end_to_end(doc).items():
            decl = declared_e2e.get(metric) or declared_result[metric]
            metrics[metric] = {"value": value, "unit": decl["unit"], "better": decl["better"],
                               "bound": decl["bound"], "samples": samples}
        entry = {"correct": True, "attempted": doc["attempted"], "failed": doc["failed"],
                 "digest": doc["digest"], "metrics": metrics, "raw": doc}
        if args.trace:
            measured = doc["traced"]["per_layer"]
            layer = {}
            for metric, decl in declared_layer.items():
                if metric not in measured and not metric.startswith("congest.phase."):
                    log(f"error: {name}: per-layer metric {metric} was not measured")
                    return 1
                layer[metric] = {"value": measured.get(metric, 0), "unit": decl["unit"]}
            entry["per_layer"] = layer
            (args.trace_dir / f"{name}-seed{args.seed}.layers.json").write_text(
                json.dumps(doc["traced"], indent=2) + "\n")
            log(f"{name}: trace {args.trace_dir / f'{name}-seed{args.seed}.json'}")
        results[name] = entry

    document = {"host": host_fingerprint(args.seed, docs), "seconds": args.seconds,
                "trace": bool(args.trace), "workloads": results}
    if args.out:
        args.out.write_text(json.dumps(document, indent=2) + "\n")

    for name, entry in results.items():
        for metric, m in entry["metrics"].items():
            log(f"  {name:12s} {metric:22s} {m['value']:>16.6g} {m['unit']:10s} n={m['samples']}")
    attempted = sum(e["attempted"] for e in results.values())
    failed = sum(e["failed"] for e in results.values())

    def reported(entry):
        key = "per_layer" if args.trace else "metrics"
        declared = declared_layer if args.trace else declared_e2e
        return {m: {"value": entry[key][m]["value"], "unit": entry[key][m]["unit"]}
                for m in declared}

    if args.workload:
        metrics = reported(results[args.workload])
    else:
        metrics = {name: reported(entry) for name, entry in results.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
