#!/usr/bin/env python3
"""End-to-end benchmark of the vdg solver.

One run of one workload (the form every performance claim is measured with):

    python3 perfbench/run.py --workload vm2x3v_p2 --seed 1 --seconds 10 --trace 0

builds the benchmark program from this checkout's sources (CMake, into
.bench_build/, or $CARGO_TARGET_DIR when set), runs the workload in its own
process with an isolated environment, checks the outputs, writes a result
file with the run manifest under .bench_build/results/, and prints as its
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where "attempted" counts the run's timed steps and output checks and
"failed" its failed checks (a line above it gives the two counts apart).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Other forms:

    --workload all            every workload in turn, one summary line
    --steadiness N            N runs per workload on seeds seed..seed+N-1:
                              median, quartiles, IQR/median, (max-min)/median
    --selftest                show each output check failing on a corrupted input

Exit status: 0 when every run's checks pass, 1 when a check fails or a run
ends without a result (then counted as one failed operation), 2 on a usage
or build error.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["vm2x3v_p2", "coll2x3v_p2"]

END_TO_END = {
    "wall_per_tsim_s": "s",
    "eop": "DOF/s/core",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "dg.vlasov.s_per_rhs": "s",
    "dg.vlasov.dof_per_s": "DOF/s",
    "dg.vlasov.gflops": "GFLOP/s",
    "dg.vlasov.flops_per_rhs": "count",
    "kernels.batch_lanes": "count",
    "collisions.lbo.s_per_rhs": "s",
    "collisions.bgk.s_per_rhs": "s",
    "collisions.cost_multiplier": "ratio",
    "dg.moments.s_per_rhs": "s",
    "dg.poisson.s_per_solve": "s",
    "dg.poisson.iters_per_solve": "count",
    "dg.poisson.solves_per_step": "count",
    "dg.poisson.setup_s": "s",
    "dg.maxwell.s_per_rhs": "s",
    "bc.sync_s_per_rhs": "s",
    "app.rk_combine_s_per_step": "s",
    "app.project_s": "s",
    "app.state_mb": "MiB",
    "par.halo_bytes_per_step": "count",
    "par.halo_wait_s_per_step": "s",
    "par.halo_pack_unpack_s_per_step": "s",
    "par.reduce_s_per_step": "s",
    "par.compute_s_per_step": "s",
    "par.rank_imbalance": "ratio",
    "obs.trace_overhead": "ratio",
}

# The program's environment knobs. The benchmark fixes the thread count and
# removes the rest, so a caller's settings cannot change what is measured.
ISOLATED_ENV = {"VDG_NUM_THREADS": "1"}
REMOVED_ENV = ["VDG_TRACE", "VDG_PROFILE", "VDG_BENCH_BATCH_LANES"]



def run_timeout(seconds):
    """Seconds after which a run has hung: a traced run measures for up to
    4/3 of --seconds, plus builds, warm-up and checks (170 s at 35 s, so a
    hung run still ends within three minutes)."""
    return 2 * seconds + 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configure (once) and build the benchmark program; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no solver sources next to perfbench/ (CMakeLists.txt, src/)")
        sys.exit(2)
    bdir = os.path.join(build_dir(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "vdg_perfbench"])
    with open(logpath, "a") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                log(f"perfbench: build step failed ({' '.join(cmd)}); see {logpath}")
                sys.exit(2)
    return os.path.join(bdir, "vdg_perfbench")


def source_digest():
    """sha256 over the solver and benchmark sources (the checkout may not be
    a git repository, so the git sha is recorded only when available)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        p = os.path.join(ROOT, top)
        files = [p] if os.path.isfile(p) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(p) for f in fs)
        for f in files:
            if os.path.isfile(f) and "__pycache__" not in f:
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_info():
    model, flags = platform.processor() or "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and model in ("unknown", "x86_64", ""):
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("flags") and not flags:
                    flags = set(line.split(":", 1)[1].split())
    except OSError:
        pass
    isa = next((i for i in ("avx512f", "avx2", "sse4_2") if i in flags), "baseline")
    return model, isa


def manifest(workload, seed, trace, prog):
    model, isa = cpu_info()
    info = prog.get("info", {})
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build": prog.get("build", {}),
        "simd_isa": isa,
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "threads": info.get("threads"),
        "ranks": info.get("ranks"),
        "batch_lanes": info.get("batch_lanes"),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def program_env():
    env = dict(os.environ)
    env.update(ISOLATED_ENV)
    for k in REMOVED_ENV:
        env.pop(k, None)
    return env


def run_once(exe, workload, seed, seconds, trace):
    """One workload run in its own process; returns the program's JSON."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=program_env(), cwd=ROOT,
                           timeout=run_timeout(seconds))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} did not finish in {run_timeout(seconds)} s")
        return None
    if p.stderr:
        sys.stderr.write(p.stderr)
    lines = [ln for ln in p.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        log(f"perfbench: {workload} seed {seed} exited {p.returncode} without a result")
        return None
    return json.loads(lines[-1])


def write_result(workload, seed, trace, prog):
    rdir = os.path.join(build_dir(), "results")
    os.makedirs(rdir, exist_ok=True)
    path = os.path.join(rdir, f"{workload}-seed{seed}-trace{trace}.json")
    doc = {"manifest": manifest(workload, seed, trace, prog), "result": prog}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return doc["manifest"]


def report(workload, prog, units):
    log(f"== {workload}")
    for name, value in prog["metrics"].items():
        log(f"   {name:34s} {value:14.6g} {units.get(name, '')}")
    for c in prog.get("checks", []):
        state = "ok" if c["failed"] == 0 else "FAILED"
        log(f"   check {c['name']:28s} {c['attempted']:5d} attempted, worst {c['worst']:.3e}"
            f" <= {c['limit']:.1e}  {state}")


def result_line(prog, units):
    """The operations of a run are its timed steps and its checks; a step
    that fails ends the run without a result."""
    return {
        "correct": bool(prog["correct"]),
        "attempted": int(prog["steps"]) + int(prog["attempted"]),
        "failed": int(prog["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in prog["metrics"].items()
                    if k in units},
    }


def steadiness(exe, workloads, seed, seconds, trace, n):
    ok = True
    for w in workloads:
        values = {}
        for i in range(n):
            prog = run_once(exe, w, seed + i, seconds, trace)
            if prog is None or not prog["correct"]:
                ok = False
                continue
            for k, v in prog["metrics"].items():
                values.setdefault(k, []).append(v)
            log(f"   {w} seed {seed + i}: " +
                " ".join(f"{k}={v:.5g}" for k, v in prog["metrics"].items()))
        log(f"== {w}: {n} runs, seeds {seed}..{seed + n - 1}")
        log(f"   {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}"
            f" {'range/med':>9s}")
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            rel = (lambda x: x / abs(med)) if med else (lambda x: 0.0)
            log(f"   {k:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {rel(q3 - q1):8.4f}"
                f" {rel(max(vs) - min(vs)):9.4f}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", help=f"one of {WORKLOADS} or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="N")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        log(f"perfbench: unknown workload '{args.workload}'")
        return 2
    units = PER_LAYER if args.trace else END_TO_END

    t0 = time.monotonic()
    exe = build()
    log(f"perfbench: program ready in {time.monotonic() - t0:.1f} s")

    if args.selftest:
        return subprocess.run([exe, "--selftest", "--seed", str(args.seed)], env=program_env(),
                              cwd=ROOT).returncode

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.steadiness:
        ok = steadiness(exe, workloads, args.seed, args.seconds, args.trace, args.steadiness)
        return 0 if ok else 1

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        prog = run_once(exe, w, args.seed, args.seconds, args.trace)
        if prog is None:
            # The program failed or hung: one failed operation, no metrics.
            summary["correct"] = False
            summary["attempted"] += 1
            summary["failed"] += 1
            continue
        man = write_result(w, args.seed, args.trace, prog)
        print("manifest: " + json.dumps(man), flush=True)
        print(f"{w}: {prog['steps']} steps and {prog['attempted']} checks attempted,"
              f" {prog['failed']} checks failed", flush=True)
        report(w, prog, units)
        line = result_line(prog, units)
        summary["correct"] = summary["correct"] and line["correct"]
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        prefix = "" if len(workloads) == 1 else w + "."
        for k, v in line["metrics"].items():
            summary["metrics"][prefix + k] = v
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
