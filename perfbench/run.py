#!/usr/bin/env python3
"""LabStor repository benchmark: build, run, check, report.

Run one workload (the form the benchmark contract uses; the last line
of stdout is the result object):

    python3 perfbench/run.py --workload fs_rw_async --seed 7 --seconds 10 --trace 0

Run all four workloads with one seed (exits 1 if any output check fails):

    python3 perfbench/run.py --seed 7

Compare two result sets written with --save (medians, quartiles, and
whether each workload x end-to-end metric moved within its bound):

    python3 perfbench/run.py compare before.jsonl after.jsonl

The binary is built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). See
perfbench/README.md for the workloads, metrics and clocks.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fs_rw_async", "kvs_pipelined", "fs_meta_sync", "des_cluster_open"]
# Metrics whose value comes from the DES clock on des_cluster_open.
VIRTUAL_ON_DES = {"read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise RuntimeError("build failed")
    return os.path.join(build_dir, "perfbench")


def source_revision():
    """Git revision when the checkout is a repository, plus a digest of
    the sources the binary is built from (the checkout may not be one)."""
    rev = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, trace):
    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return json.loads(lines[-1])


def result_line(spec, record):
    """The contract's result object: end-to-end metrics for untraced
    runs, per-layer metrics (0 where a layer is not on the workload's
    path) for traced ones."""
    attempted = int(record["attempted"])
    failed = int(record["failed"])
    if record["trace"]:
        measured = dict(record["per_layer"])
        measured["workload.error_rate"] = {
            "value": failed / attempted if attempted else 0.0}
        measured["workload.first_failed_op"] = {
            "value": float(record["first_failed_op"])}
        wanted = spec["per_layer"]
    else:
        measured = record["end_to_end"]
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], {}).get("value", 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(record["correct"]), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def clock(workload, name):
    if name in ("setup_s", "ops_per_s"):
        return "wall"
    if name == "peak_rss_mb":
        return "-"
    if workload == "des_cluster_open" and name in VIRTUAL_ON_DES:
        return "virtual"
    return "wall"


def report(record, result):
    """Human-readable block: every metric by name with unit and clock."""
    w = record["workload"]
    meta = record["meta"]
    print("== %s  seed=%s  seconds=%s  trace=%s" %
          (w, record["seed"], record["seconds"], record["trace"]))
    print("   meta: nproc=%s build=%s compiler=%s threads=%s revision=%s "
          "sources=%s" % (meta["nproc"], meta["build_type"], meta["compiler"],
                          meta["threads"], meta["revision"],
                          meta["source_digest"]))
    for name, m in result["metrics"].items():
        print("   %-36s %16.6g %-9s %s" %
              (name, m["value"], m["unit"],
               clock(w, name) if not record["trace"] else ""))
    # Layer metrics of workloads outside BENCHMARK.json's gated set
    # (sim, cluster, labkvs) are printed here, not in the result object.
    if record["trace"]:
        for m_name, m in record["per_layer"].items():
            if m_name not in result["metrics"]:
                print("   %-36s %16.6g %-9s" % (m_name, m["value"], m["unit"]))
    for m_name, m in record.get("extra", {}).items():
        print("   %-36s %16.6g %-9s %s" %
              (m_name, m["value"], m["unit"],
               "virtual" if m_name.startswith("virt_") else "wall"))
    attempted = result["attempted"]
    rate = result["failed"] / attempted if attempted else 0.0
    print("   %-36s %16.6g %-9s" % ("error_rate", rate, "fraction"))
    if result["failed"]:
        print("   first failure: op %s: %s" %
              (record["first_failed_op"], record["first_failure"]))
    for note in record.get("notes", []):
        print("   note: %s" % note)
    if not record["correct"]:
        print("   OUTPUT CHECK FAILED (%s mismatches): %s" %
              (record["mismatches"], record["first_mismatch"]))


def run(args):
    spec = load_spec()
    try:
        binary = build()
    except (RuntimeError, OSError) as e:
        log("perfbench: %s" % e)
        return 2
    rev, digest = source_revision()
    workloads = [args.workload] if args.workload else WORKLOADS
    all_correct = True
    for w in workloads:
        try:
            record = run_binary(binary, w, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, ValueError,
                subprocess.SubprocessError) as e:
            log("perfbench: %s" % e)
            return 2
        record["meta"]["revision"] = rev
        record["meta"]["source_digest"] = digest
        result = result_line(spec, record)
        report(record, result)
        all_correct = all_correct and result["correct"]
        if args.save:
            with open(args.save, "a") as f:
                f.write(json.dumps({"record": record, "result": result}) + "\n")
        print(json.dumps(result), flush=True)
    # The single-workload form reports correctness in its result object;
    # the all-workloads form also fails the command.
    return 0 if (args.workload or all_correct) else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(args):
    spec = load_spec()
    sets = []
    for path in (args.before, args.after):
        by_workload = {}
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                entry = json.loads(line)
                if entry["record"]["trace"]:
                    continue
                w = entry["record"]["workload"]
                by_workload.setdefault(w, []).append(entry["result"])
        sets.append(by_workload)
    worse_any = False
    print("%-17s %-13s %11s %23s %11s %23s %8s %s" %
          ("workload", "metric", "A median", "A q1..q3", "B median",
           "B q1..q3", "change", "verdict"))
    for w in sorted(set(sets[0]) & set(sets[1])):
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in sets[0][w]]
            b = [r["metrics"][name]["value"] for r in sets[1][w]]
            aq = quartiles(a)
            bq = quartiles(b)
            change = (bq[1] - aq[1]) / aq[1] if aq[1] else 0.0
            worse = change if m["better"] == "lower" else -change
            # A spread (q3 - q1 over the median) wider than the bound
            # cannot resolve a change of that size.
            spread = max((aq[2] - aq[0]) / aq[1] if aq[1] else 0.0,
                         (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0)
            if worse > m["bound"]:
                verdict = "WORSE"
                worse_any = True
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within"
            print("%-17s %-13s %11.5g %11.5g..%-11.5g %11.5g %11.5g..%-11.5g "
                  "%+7.2f%% %s (bound %.0f%%, spread %.1f%%)" %
                  (w, name, aq[1], aq[0], aq[2], bq[1], bq[0], bq[2],
                   100 * change, verdict, 100 * m["bound"], 100 * spread))
    return 1 if worse_any else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("before")
        p.add_argument("after")
        return compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--save", help="append each run's record to this file")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
