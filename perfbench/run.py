#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

Run from the root of the repository. It builds `pr-cli` (the daemon
binary) and the `perfbench` runner from source in release mode, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload and
passes the runner's output through: read-outs first, then the machine
record, then one JSON result line. `--all` runs every workload untraced
and traced and writes `.perfbench/summary.json`.

Every run also writes `.perfbench/record-<workload>-seed<n>-trace<t>.json`:
the result keyed by machine (core count, rustc version, commit).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOADS = ["stretch-isp300", "traffic-geant-k3", "daemon-isp300"]
BUILD_TIMEOUT_S = 420
RUN_TIMEOUT_S = 170
SPEC = None  # BENCHMARK.json, loaded by main()


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a command with its output on stderr, so stdout stays ours."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd)}: {e}")
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")


def build():
    """Builds both binaries; returns (perfbench, pr-cli) paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no repository sources next to {BENCH.name}/ (expected Cargo.toml and crates/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    os.environ["CARGO_TARGET_DIR"] = str(target)
    run_quiet(["cargo", "build", "--release", "--offline", "-q", "-p", "pr-cli"],
              BUILD_TIMEOUT_S)
    run_quiet(["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
               str(BENCH / "Cargo.toml")], BUILD_TIMEOUT_S)
    return target / "release" / "perfbench", target / "release" / "pr-cli"


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", BENCH.name):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py", ".topo"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def machine():
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "rustc": rustc, "commit": commit or source_digest()}


def run_workload(binary, pr_cli, workload, seed, seconds, trace):
    """Runs one workload; returns (read-out lines, result line, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--pr-cli", str(pr_cli), "--out-dir", str(OUT)]
    # A session of its own, so a timeout can stop the runner and any
    # daemon it started together.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"{workload} runner exited with {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} runner printed no result line")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        fail(f"{workload} reported {sorted(reported.items())}, "
             f"BENCHMARK.json declares {sorted(declared.items())}")
    return lines[:-1], lines[-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload or --all")
    if not 2 <= args.seconds <= 120:
        ap.error("--seconds wants 2..120")

    global SPEC
    try:
        SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"BENCHMARK.json: {e}")
    binary, pr_cli = build()
    OUT.mkdir(exist_ok=True)
    host = machine()
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.all
            else [(args.workload, args.trace)])
    summary = {"machine": host, "seed": args.seed, "seconds": args.seconds, "runs": []}
    for workload, trace in runs:
        lines, result_line, result = run_workload(binary, pr_cli, workload, args.seed,
                                                  args.seconds, trace)
        for line in lines:
            print(line)
        record = {"machine": host, "workload": workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": trace, "result": result}
        name = f"record-{workload}-seed{args.seed}-trace{trace}.json"
        (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
        summary["runs"].append(record)
        print(f"machine nproc={host['nproc']} rustc=\"{host['rustc']}\" commit={host['commit']}")
        if args.all:
            print()
    if args.all:
        (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
        print(f"summary written to {OUT / 'summary.json'}")
        ok = all(r["result"]["correct"] for r in summary["runs"])
        print(json.dumps({"correct": ok,
                          "attempted": sum(r["result"]["attempted"] for r in summary["runs"]),
                          "failed": sum(r["result"]["failed"] for r in summary["runs"])}))
    else:
        print(result_line)


if __name__ == "__main__":
    main()
