#!/usr/bin/env python3
"""Host-time benchmark of the MMR simulator.

Builds the simulator and perfbench_driver from source, runs one
workload as repeated fresh-process repetitions for a fixed number of
seconds, checks every repetition's simulated output, and prints every
metric by name with its unit.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload router_fig4 --seed 42 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test        # smoke size, seeds 42+43
    python3 perfbench/run.py --pin              # re-record digests.json

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics.  Every metric is host time or host memory: simulated results
are pinned by digest, never reported.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("router_fig4", "net_min_loaded", "churn_mesh_faulted")
# Counts that prove each workload did its work (a zero means the run
# simulated nothing of what the workload is for).
MUST_BE_POSITIVE = {
    "router_fig4": ("router.flits_forwarded", "invariants.checks_run"),
    "net_min_loaded": ("network.flits_delivered", "setup.accept_ratio",
                       "invariants.checks_run"),
    "churn_mesh_faulted": ("churn.decided_setups", "probe.timeouts",
                           "fault.connections_failed",
                           "invariants.checks_run"),
}
# Traced self times that, with kernel.other_s, partition the traced
# stepping wall (the Amdahl table).
STEP_LAYERS = ("router.step_s", "network.evaluate_s", "network.advance_s",
               "hosts.tick_s", "churn.tick_s", "invariants.check_s",
               "fault.injector_s", "fault.recovery_s", "kernel.other_s")
SETUP_LAYERS = ("setup.workload_build_s", "setup.topology_s",
                "setup.network_ctor_s", "setup.other_s",
                "setup.stream_open_s")
# Serial workloads run each repetition on one CPU, rotating over the
# CPUs this process may use.  On a shared host one CPU can be much
# slower than the others (interrupts, neighbours), and the scheduler's
# placement of a fresh process would otherwise decide a run's median.
# The 2-shard workload keeps the whole set, so its threads can move
# off a busy CPU.
SERIAL = ("router_fig4", "churn_mesh_faulted")
PIN_SEEDS = range(100)
HELD_OUT_SEEDS = (42, 43)
MIN_REPS = 3          # per repetition kind, even past --seconds
REP_TIMEOUT_S = 90    # one repetition; full-size reps take < 10 s


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", f"-j{os.cpu_count() or 1}"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = build_log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def host_metadata():
    meta = {"cpu": platform.processor() or platform.machine(),
            "logical_cpus": os.cpu_count(),
            "kernel": platform.release(),
            "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                meta["cpu"] = line.split(":", 1)[1].strip()
                break
        meta["loadavg_1m"] = os.getloadavg()[0]
    except OSError:
        pass
    for f in BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        for line in f.read_text().splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith(f"set({key} "):
                    meta[key] = line.split('"')[1]
    meta["build"] = "RelWithDebInfo, LTO per the repository build, " \
                    "runtime invariants on"
    return meta


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------

def run_driver(workload, seed, traced, smoke=False, extra=(), cpu=None):
    """One repetition in a fresh process, on @p cpu alone if given;
    None if it crashed."""
    pin = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None \
        else None
    env = dict(os.environ)
    env.pop("MMR_INVARIANTS", None)  # keep the build's default (on)
    cmd = [str(DRIVER), f"--workload={workload}", f"--seed={seed}",
           f"--trace={int(traced)}", f"--smoke={int(smoke)}", *extra]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=REP_TIMEOUT_S, cwd=ROOT, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        log(f"repetition timed out: {' '.join(cmd)}")
        return None
    if p.returncode != 0:
        log(f"repetition exited {p.returncode}: {' '.join(cmd)}")
        log("\n".join(p.stderr.splitlines()[-10:]))
        return None
    return json.loads(p.stdout.strip().splitlines()[-1])


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def rep_problems(rep, first, pinned):
    """Correctness problems of one repetition (empty list = correct).

    @p first is the run's first repetition: every later one, traced or
    not, must read the same digest and simulated counters.
    """
    problems = []
    workload = rep["workload"]
    if pinned is not None and rep["digest"] != pinned:
        problems.append(f"digest {rep['digest']} != pinned {pinned}")
    if rep["digest"] != first["digest"]:
        problems.append(f"digest {rep['digest']} differs from the "
                        f"run's first repetition {first['digest']}")
    if rep["counts"] != first["counts"]:
        diff = sorted(k for k in rep["counts"]
                      if rep["counts"][k] != first["counts"].get(k))
        problems.append(f"simulated counters differ: {diff}")
    for key in MUST_BE_POSITIVE[workload]:
        if not rep["counts"].get(key, 0) > 0:
            problems.append(f"{key} is not positive")
    if rep["traced"]:
        layers = rep["layers"]
        named = sum(layers.get(k, 0.0) for k in STEP_LAYERS
                    if k != "kernel.other_s")
        other = layers["kernel.other_s"]
        if other < -1e-6 * rep["step_s"]:
            problems.append(f"layer self times exceed the stepping wall "
                            f"by {-other:.6f} s")
        if abs(named + other - rep["step_s"]) > 1e-9 * max(1.0, rep["step_s"]):
            problems.append("layer times do not add up to the stepping wall")
    return problems


def run_workload(workload, seed, seconds, trace):
    """Repeat fresh-process repetitions for @p seconds (and at least
    MIN_REPS of each kind); returns (reps, attempted, failed)."""
    pinned = load_digests().get("full", {}).get(workload, {}).get(str(seed))
    kinds = (False, True) if trace else (False,)
    cpus = sorted(os.sched_getaffinity(0))
    started = {k: 0 for k in kinds}
    reps, attempted, failed, crashed = [], 0, 0, 0
    start = time.monotonic()
    while True:
        done = {k: sum(1 for r in reps if bool(r["traced"]) == k)
                for k in kinds}
        if min(done.values()) >= MIN_REPS and \
                time.monotonic() - start >= seconds:
            break
        traced = kinds[attempted % len(kinds)]
        attempted += 1
        cpu = cpus[started[traced] % len(cpus)] \
            if workload in SERIAL else None
        started[traced] += 1
        rep = run_driver(workload, seed, traced, cpu=cpu)
        if rep is None:
            failed += 1
            crashed += 1
            if crashed >= MIN_REPS:
                raise BenchError(f"{workload}: {crashed} repetitions "
                                 "crashed")
            continue
        problems = rep_problems(rep, reps[0] if reps else rep, pinned)
        if problems:
            failed += 1
            log(f"{workload} seed {seed}: " + "; ".join(problems))
        reps.append(rep)
    return reps, attempted, failed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(untraced):
    return {
        "cycles_per_s": median([r["cycles"] / r["step_s"] for r in untraced]),
        "setup_s": median([r["setup_s"] for r in untraced]),
        "bytes_per_router": median([r["peak_growth_bytes"] / r["routers"]
                                    for r in untraced]),
    }


def per_layer(untraced, traced):
    values = dict(traced[0]["counts"])
    for key in {k for r in traced for k in r["layers"]}:
        values[key] = median([r["layers"].get(key, 0.0) for r in traced])
    values["setups_per_s"] = median(
        [r["counts"].get("churn.decided_setups", 0.0) / r["step_s"]
         for r in untraced])
    values["network.ns_per_router_cycle"] = median(
        [r["step_s"] * 1e9 / (r["routers"] * r["cycles"])
         for r in untraced])
    values["trace.overhead"] = (median([r["step_s"] for r in traced]) /
                                median([r["step_s"] for r in untraced]) - 1)
    return values


def amdahl_table(values):
    """Each stepping layer's traced self time and share of the wall."""
    wall = sum(values.get(k, 0.0) for k in STEP_LAYERS)
    lines = [f"  {'layer':<22} {'self s':>10} {'share':>7}"]
    for k in STEP_LAYERS:
        if k in values:
            lines.append(f"  {k:<22} {values[k]:>10.4f} "
                         f"{values[k] / wall:>7.1%}")
    lines.append(f"  {'traced stepping wall':<22} {wall:>10.4f} {1:>7.1%}")
    return "\n".join(lines)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(workload, seed, seconds, trace):
    reps, attempted, failed = run_workload(workload, seed, seconds, trace)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if trace:
        names = spec()["per_layer"]
        values = per_layer(untraced, traced)
    else:
        names = spec()["end_to_end"]
        values = end_to_end(untraced)
    metrics = {}
    pinned = str(seed) in load_digests().get("full", {}).get(workload, {})
    print(f"workload {workload}, seed {seed}, {len(untraced)} untraced + "
          f"{len(traced)} traced repetitions, digest {reps[0]['digest']} "
          f"({'pinned' if pinned else 'not pinned: determinism checks only'})")
    for m in names:
        # A per-layer metric of a layer the workload does not have
        # (churn.tick_s on router_fig4, ...) reads 0.
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                              "unit": m["unit"]}
        print(f"  {m['name']:<36} {metrics[m['name']]['value']:>16.6g} "
              f"{m['unit']}")
    if trace:
        print("Amdahl table (traced stepping wall):")
        print(amdahl_table(values))
        setup = sum(values.get(k, 0.0) for k in SETUP_LAYERS)
        print(f"  traced set-up {setup:.4f} s: " + ", ".join(
            f"{k} {values[k] / setup:.1%}" for k in SETUP_LAYERS
            if k in values and setup > 0))
    print("host " + json.dumps(host_metadata(), sort_keys=True))
    print("model: unvalidated (no hardware reference results in the "
          "repository); simulated outputs are checked by digest only")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# ----------------------------------------------------------------------
# Pinning and self-test
# ----------------------------------------------------------------------

def check_equal(what, a, b):
    if a != b:
        raise BenchError(f"{what}: {a} != {b}")
    log(f"ok   {what}: {a}")


def pin():
    """Record the result digests of every workload: full size for
    PIN_SEEDS, smoke size for HELD_OUT_SEEDS.  On the held-out seeds
    the composed network runs must equal the library's own runner, and
    net_min_loaded's 2-shard digest must equal its serial digest."""
    digests = {"full": {}, "smoke": {}}
    for workload in WORKLOADS:
        for seed in HELD_OUT_SEEDS:
            for smoke in (False, True):
                rep = run_driver(workload, seed, False, smoke,
                                 ["--reference=1"])
                if rep is None:
                    raise BenchError(f"{workload} seed {seed} crashed")
                check_equal(f"{workload} seed {seed} smoke={int(smoke)} "
                            "composed == library runner",
                            rep["digest"], rep["reference_digest"])
                if workload == "net_min_loaded":
                    serial = run_driver(workload, seed, False, smoke,
                                        ["--shards=1"])
                    if serial is None:
                        raise BenchError(f"{workload} seed {seed} serial "
                                         "run crashed")
                    check_equal(f"{workload} seed {seed} smoke={int(smoke)}"
                                " 2 shards == serial",
                                rep["digest"], serial["digest"])
                if smoke:
                    digests["smoke"].setdefault(workload, {})[str(seed)] = \
                        rep["digest"]
        full = digests["full"].setdefault(workload, {})
        for seed in PIN_SEEDS:
            rep = run_driver(workload, seed, False)
            if rep is None:
                raise BenchError(f"{workload} seed {seed} crashed")
            full[str(seed)] = rep["digest"]
        log(f"pinned {workload}: {len(full)} seeds")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def self_test():
    """Smoke-size run of every workload on the held-out seeds: pinned
    digests, traced vs untraced counters, layer accounting, and every
    per-layer metric produced by some workload."""
    pinned = load_digests().get("smoke", {})
    produced = set()
    for workload in WORKLOADS:
        for seed in HELD_OUT_SEEDS:
            untraced = run_driver(workload, seed, False, True)
            traced = run_driver(workload, seed, True, True)
            if untraced is None or traced is None:
                raise BenchError(f"{workload} seed {seed} crashed")
            want = pinned.get(workload, {}).get(str(seed))
            if want is None:
                raise BenchError(f"{workload} seed {seed}: no pinned smoke "
                                 "digest (run --pin)")
            problems = (rep_problems(untraced, untraced, want) +
                        rep_problems(traced, untraced, want))
            if problems:
                raise BenchError(f"{workload} seed {seed}: "
                                 + "; ".join(problems))
            log(f"ok   {workload} seed {seed}: digest {untraced['digest']}"
                ", traced counters equal, layers add up")
            produced |= set(per_layer([untraced], [traced]))
    missing = [m["name"] for m in spec()["per_layer"]
               if m["name"] not in produced]
    if missing:
        raise BenchError(f"per-layer metrics no workload produces: {missing}")
    log("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.pin:
            pin()
        elif args.self_test:
            self_test()
        elif args.workload:
            report(args.workload, args.seed, args.seconds, args.trace)
        else:
            ap.error("--workload, --self-test or --pin is required")
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
