#!/usr/bin/env python3
"""The simulator benchmark: figure sweeps and a sampled campaign.

Runs one workload through the shipped ``pbs_exp`` exactly as a user
does (spec in, artifact out, a fresh cache directory per cold pass),
checks every point's outputs, and prints one JSON result line as the
last line of stdout:

    python3 simbench/run.py --workload detailed-sweep --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, from cold passes run as
one single-worker process per program and scaled to the host's usual
speed (see run_end_to_end); ``--trace 1`` runs traced and untraced
whole-grid passes with up to four workers and the layer_probe timer and
reports the per-layer table. simbench/README.md describes the
workloads, the metric-to-layer map and the measured steadiness.

    python3 simbench/run.py --record-references

regenerates simbench/references.json: per-point result digests of
every workload, and the detailed truth the sampled estimates are held
against, at the reference seed.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"

JOBS = max(1, min(4, os.cpu_count() or 1))  # the traced run's workers
E2E_JOBS = 1  # the workers of an end-to-end cold pass
REFERENCE_SEED = 0
SEED_BASE = 12345  # --seed n runs the programs with workload seed 12345 + n

ALL_PROGRAMS = ["dop", "greeks", "swaptions", "genetic", "photon",
                "mc-integ", "pi", "bandit"]
ALL_PREDICTORS = ["bimodal", "gshare", "local", "loop", "tournament",
                  "tage", "tage-sc-l"]
TIMING_PREDICTORS = ["tournament", "tage-sc-l"]

# Each workload is one pbs_exp grid over PBS {off, on}. `scale` None is
# each program's default scale; an int is one scale for every program.
WORKLOADS = {
    # Fig 7: the timing equations, caches, PBS engine and TAGE do the
    # work; the functional engine and sampling do none.
    "detailed-sweep": dict(programs=ALL_PROGRAMS,
                           predictors=TIMING_PREDICTORS,
                           mode="detailed", scale=None, campaign=False),
    # Figs 6 and 9: execute plus predict/update do the work; the timing
    # model, caches and sampling do none. Predictor costs differ ~5x.
    "mpki-sweep": dict(programs=ALL_PROGRAMS, predictors=ALL_PREDICTORS,
                       mode="mpki", scale=None, campaign=False),
    # Functional fast-forward, checkpoint capture, store writes and
    # reads, and ~1100 short interval tasks on the pool do the work.
    # 600000 is 6x dop, 5x bandit and 2x pi and mc-integ default scale;
    # pbs_exp takes one scale for every program, which would make
    # swaptions 75x and photon 15x, and genetic stops on convergence,
    # too short to sample at any scale.
    "sampled-campaign": dict(programs=["dop", "bandit", "pi", "mc-integ"],
                             predictors=TIMING_PREDICTORS,
                             mode="sampled", scale=600000, campaign=True),
}

END_TO_END_UNITS = {"setup_s": "s", "sim_mips": "MIPS", "cpu_s": "s",
                    "resume_s": "s", "peak_rss_mb": "MB"}

PHASES = ["ff", "capture", "warmup", "measure", "cache_io", "store_io"]

SHORT_REPEATS = 5  # set-up and resume passes after each cold pass
PROC_TIMEOUT_S = 150

# The calibration kernel's iterations, and its usual seconds on the
# host simbench/README.md describes. A cold-pass process's times are
# scaled by CALIBRATE_REF_S / (the kernel's seconds just before it).
CALIBRATE_ITERS = 100000
CALIBRATE_REF_S = 0.0750
# The usual CPU seconds of starting and stopping an empty Python process
# on that host. A set-up or resume pass's CPU time is scaled by
# STARTUP_REF_S / (that process's CPU seconds, measured just before it).
STARTUP_REF_S = 0.0600


def per_layer_units():
    units = {"workloads.build_ms": "ms", "isa.decode_ms": "ms",
             "cpu.detailed_ns_per_inst": "ns", "cpu.mpki_ns_per_inst": "ns"}
    for p in ALL_PREDICTORS:
        units[f"bpred.{p}.ns_per_branch"] = "ns"
        units[f"bpred.{p}.accuracy"] = "ratio"
    units.update({
        "core.pbs_ns_per_instance": "ns", "core.pbs_steer_ratio": "ratio",
        "mem.ns_per_access": "ns", "mem.l1i_miss_ratio": "ratio",
        "mem.l1d_miss_ratio": "ratio",
        "sampling.engine_init_ms": "ms",
        "sampling.functional_ns_per_inst": "ns",
        "sampling.capture_ms": "ms",
        "sampling.measure_ms_per_interval": "ms",
        "sampling.aggregate_us": "us", "sampling.detailed_share": "ratio",
        "sampling.store_save_ms": "ms", "sampling.store_load_ms": "ms",
        "sampling.store_bytes": "bytes",
        "sampling.ipc_err_pct": "%", "sampling.mpki_err": "MPKI",
        "sampling.ci_coverage": "ratio",
        "exp.entry_store_us": "us", "exp.entry_load_us": "us",
        "exp.partial_store_us": "us", "exp.partial_load_us": "us",
        "exp.resume_hit_ratio": "ratio",
        "util.pool_busy_share": "ratio",
        "obs.trace_overhead_pct": "%",
    })
    for ph in PHASES:
        units[f"obs.phase.{ph}.self_ms"] = "ms"
    for part in ("explained", "bpred", "mem", "pbs"):
        units[f"accounting.{part}_share"] = "ratio"
    return units


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that leaves no result to report."""


# ---------------------------------------------------------------------------
# Processes and the build.
# ---------------------------------------------------------------------------

def build_dir():
    """$CARGO_TARGET_DIR when it names a directory inside the checkout."""
    name = os.environ.get("CARGO_TARGET_DIR", "")
    if not name or os.path.isabs(name) or ".." in Path(name).parts:
        name = ".bench_build"
    return ROOT / name


WORK = build_dir() / "work"
BINS = {}  # filled by ensure_built()


def run_proc(args):
    """Run one process to completion through the spawn launcher.

    Returns (returncode, stdout, wall_s, cpu_s, peak_rss_mb) of the
    command itself. On timeout the whole process group is killed, and
    every process is waited for before this returns.
    """
    env = dict(os.environ)
    for var in ("PBS_TASK_POOL", "PBS_FUNC_DISPATCH"):
        env.pop(var, None)  # run the shipped defaults
    out_path, err_path = WORK / "proc.out", WORK / "proc.err"
    stats_path = WORK / "proc.stats"
    stats_path.unlink(missing_ok=True)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(
            [str(a) for a in (BINS["spawn"], stats_path, *args)], env=env,
            stdout=out, stderr=err, start_new_session=True)
        try:
            rc = proc.wait(timeout=PROC_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{Path(args[0]).name} timed out")
    if rc != 0:
        log(f"{Path(args[0]).name} exited {rc}: "
            f"{err_path.read_text().strip()[-800:]}")
    if not stats_path.exists():
        raise BenchError(f"spawn recorded no stats for {Path(args[0]).name}")
    wall, cpu, rss_kb = stats_path.read_text().split()
    return (rc, out_path.read_text(), float(wall), float(cpu),
            int(rss_kb) / 1024.0)


def ensure_built():
    """Configure and build pbs_exp, pbs_prof and layer_probe from source."""
    for need in ("CMakeLists.txt", "src"):
        if not (ROOT / need).exists():
            raise BenchError(f"no simulator sources here (missing {need})")
    bdir = build_dir()
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(bdir), "-j", str(JOBS), "--target",
              "pbs_exp_bin", "pbs_prof", "layer_probe", "simbench_spawn"]]
    for step in steps:
        r = subprocess.run(step, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            raise BenchError(f"{' '.join(step[:2])} failed: "
                             + r.stderr[-2000:])
    BINS.update({"pbs_exp": bdir / "pbs" / "pbs_exp",
                 "pbs_prof": bdir / "pbs" / "pbs_prof",
                 "layer_probe": bdir / "layer_probe",
                 "spawn": bdir / "simbench_spawn"})
    for path in BINS.values():
        if not path.exists():
            raise BenchError(f"the build produced no {path.name}")


# ---------------------------------------------------------------------------
# Points and their checks.
# ---------------------------------------------------------------------------

def exp_args(spec, seed, scale=None, jobs=JOBS):
    args = ["--workloads", ",".join(spec["programs"]),
            "--predictors", ",".join(spec["predictors"]),
            "--pbs", "off,on", "--modes", spec["mode"],
            "--seed", str(SEED_BASE + seed), "--jobs", str(jobs), "--quiet"]
    scale = scale if scale is not None else spec["scale"]
    if scale is not None:
        args += ["--scales", str(scale)]
    if spec["campaign"]:
        args.append("--campaign")
    return args


def point_mode(pt):
    return "mpki" if pt["functional"] else pt["mode"]


def config_label(pt):
    return "/".join([pt["workload"], pt["predictor"],
                     "on" if pt["pbs"] else "off"])


def point_label(pt):
    return config_label(pt) + "/" + point_mode(pt)


def program_label(pt):
    return f"{pt['workload']}/{pt['scale']}/{pt['seed']}"


def canonical_points(points):
    """A grid's points in an order that does not depend on the grid's
    split into processes."""
    return sorted(json.dumps(e, sort_keys=True) for e in points)


def result_digest(result):
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def relative_error(a, b):
    if a == b:
        return 0.0
    if b == 0.0:
        return float("inf")
    return abs(a - b) / abs(b)


def normalized_rms_error(test, ref):
    rms = (sum((t - r) ** 2 for t, r in zip(test, ref)) / len(ref)) ** 0.5
    span = max(ref) - min(ref)
    if span == 0.0:
        span = abs(max(ref)) or 1.0
    return rms / span


def pbs_on_output_ok(workload, sim, ref):
    """The output bounds tests/pbs_integration_test.cc applies under PBS."""
    if workload == "photon":
        return normalized_rms_error(sim, ref) < 0.10
    if workload == "genetic":
        return sim[0] in (0.0, 1.0) and 0.0 <= sim[2] <= 16.0
    bound = {"bandit": 0.15, "swaptions": 0.08}.get(workload, 0.02)
    return all(relative_error(s, r) < bound for s, r in zip(sim, ref))


def point_ok(entry, native, digests):
    """Outputs against the native run; the digest at the reference seed."""
    pt, result = entry["point"], entry["result"]
    ref, sim = native.get(program_label(pt)), result.get("outputs")
    if (not ref or not sim or len(ref) != len(sim)
            or None in ref or None in sim):
        return False
    ok = pbs_on_output_ok(pt["workload"], sim, ref) if pt["pbs"] \
        else sim == ref
    if digests is not None:
        ok = ok and digests.get(point_label(pt)) == result_digest(result)
    return ok


def write_plan(path, programs, seed, scale, points=()):
    """A layer_probe plan (see the comment at the top of layer_probe.cc)."""
    lines = [f"program {w} {scale or 0} {SEED_BASE + seed}"
             for w in programs]
    lines += ["point {} {} {} {} {} {}".format(
        p["workload"], p["scale"], p["seed"], p["predictor"], int(p["pbs"]),
        p["mode"]) for p in points]
    lines += [f"predictors {','.join(ALL_PREDICTORS)}", f"jobs {JOBS}",
              f"tmp {WORK}"]
    path.write_text("\n".join(lines) + "\n")


class Runner:
    """One workload at one seed: its passes, checks and tallies."""

    def __init__(self, workload, seed, use_references=True):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        ref = load_references().get(workload, {})
        self.reference = ref if (use_references
                                 and ref.get("seed") == seed) else None
        self.native = self.native_outputs()
        # The first cold pass's artifacts and summaries, keyed by the
        # programs of each pbs_exp process, and all of its points.
        self.cold_texts = {}
        self.cold_summaries = {}
        self.cold_doc = None
        self.calibration = []  # the kernel's seconds, one per sample

    def note(self, msg):
        self.problems.append(msg)
        log(msg)

    def fail(self, npoints, msg):
        self.failed += npoints
        self.note(msg)

    def npoints(self, programs=None):
        s = self.spec
        return len(programs or s["programs"]) * len(s["predictors"]) * 2

    def calibrate(self):
        """One sample of the host's current speed (see calibrate.py)."""
        r = subprocess.run([sys.executable, BENCH_DIR / "calibrate.py",
                            str(CALIBRATE_ITERS)],
                           capture_output=True, text=True,
                           timeout=PROC_TIMEOUT_S)
        if r.returncode != 0:
            raise BenchError("the calibration kernel failed")
        self.calibration.append(float(r.stdout.split()[0]))
        return self.calibration[-1]

    def startup_sample(self):
        """CPU seconds of an empty Python process: start, imports, exit."""
        rc, _, _, cpu, _ = run_proc([sys.executable, "-c", "pass"])
        if rc != 0:
            raise BenchError("the empty Python process failed")
        return cpu

    def native_outputs(self):
        plan = WORK / "native.plan"
        write_plan(plan, self.spec["programs"], self.seed, self.spec["scale"])
        rc, out, *_ = run_proc([BINS["layer_probe"], "native", plan])
        if rc != 0:
            raise BenchError("layer_probe native failed")
        return json.loads(out)

    def exp(self, args, cache, out, extra=()):
        """One pbs_exp process; returns (rc, summary, wall, cpu, rss)."""
        cmd = [BINS["pbs_exp"], *args, *extra, "--out", out]
        cmd += ["--cache-dir", cache] if cache else ["--no-cache"]
        rc, stdout, wall, cpu, rss = run_proc(cmd)
        summary = None
        for line in stdout.splitlines():
            if '"pbs-exp-summary-v1"' in line:
                summary = json.loads(line)
        return rc, summary, wall, cpu, rss

    def cold_pass(self, tag, extra=(), split=False, jobs=JOBS):
        """A sweep in a fresh cache directory, with every check applied.

        With `split` the grid runs as one pbs_exp process per program,
        one after the other, into the same cache, each after a
        calibration sample; otherwise as one process. The previous
        pass's cache is removed and flushed first, so its write-back does
        not land inside this pass. Failed checks are counted, not raised.
        Returns the pass's measurements, in total and per process, or
        None when pbs_exp failed or wrote no artifact.
        """
        cache = WORK / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        os.sync()
        groups = [[p] for p in self.spec["programs"]] if split \
            else [self.spec["programs"]]
        procs, points = {}, []
        for i, programs in enumerate(groups):
            key, out = ",".join(programs), WORK / f"cold-{tag}-{i}.json"
            cal = self.calibrate() if split else None
            rc, summary, wall, cpu, rss = self.exp(
                exp_args(dict(self.spec, programs=programs), self.seed,
                         jobs=jobs), cache, out, extra)
            n = self.npoints(programs)
            self.attempted += n
            if rc != 0 or summary is None or not out.exists():
                self.fail(n, f"cold pass {tag} ({key}) failed (exit {rc})")
                return None
            text = out.read_text()
            doc = json.loads(text)
            first = self.cold_texts.setdefault(key, text)
            self.cold_summaries.setdefault(key, summary)
            if not self.cold_summary_ok(summary, programs):
                self.fail(n, f"cold pass {tag} ({key}) summary self-check: "
                             f"{summary}")
            elif text != first:
                self.fail(n, f"cold pass {tag} ({key}): artifact differs "
                             "from the first cold pass")
            digests = self.reference["digests"] if self.reference else None
            bad = [point_label(e["point"]) for e in doc["points"]
                   if not point_ok(e, self.native, digests)]
            if len(doc["points"]) != n:
                bad.append(f"{n - len(doc['points'])} missing point(s)")
            if bad:
                self.fail(len(bad), f"cold pass {tag}: failed points: "
                                    + ", ".join(bad[:8]))
            points += doc["points"]
            procs[key] = dict(wall=wall, cpu=cpu, rss=rss, cal=cal, insts=sum(
                e["result"]["stats"]["instructions"] for e in doc["points"]))
        if self.cold_doc is None:
            self.cold_doc = {"points": points}
        return dict(procs=procs, cache=cache, points=points,
                    wall=sum(p["wall"] for p in procs.values()),
                    cpu=sum(p["cpu"] for p in procs.values()))

    def cold_summary_ok(self, s, programs):
        n = self.npoints(programs)
        ok = s["points"] == n and s["computed"] == n and \
            s["stored"] == n and s["store_failed"] == 0
        if self.spec["campaign"]:
            # One checkpoint set per program; capture-once.
            sets = len(programs)
            ok = ok and s["campaign_groups"] == sets and \
                s["captures"] == sets and s["ckpt_set_loads"] == 0 and \
                s["partial_stored"] == s["partial_computed"] > 0
        return ok

    def resume_pass(self, cold, tag):
        """Rerun over the latest cold pass's cache; nothing may be simulated.

        The campaign deletes only the final result entries, so the rerun
        reads back the checkpoint sets and partials. The sweeps keep no
        intermediate entries, so their rerun reads the result entries.
        The rerun is one process over the whole grid, however the cold
        pass was split. Returns (cpu_s, summary, the CPU seconds of an
        empty Python process run just before it).
        """
        cache, out = cold["cache"], WORK / f"resume-{tag}.json"
        if self.spec["campaign"]:
            for entry in cache.glob("*.json"):
                entry.unlink()
        os.sync()
        start_cpu = self.startup_sample()
        rc, s, _, cpu, _ = self.exp(exp_args(self.spec, self.seed), cache,
                                    out)
        n = self.npoints()
        self.attempted += n
        ok = rc == 0 and s is not None
        if ok and self.spec["campaign"]:
            cold_sums = self.cold_summaries.values()
            ok = s["captures"] == 0 and s["partial_computed"] == 0 and \
                s["partial_hits"] == sum(c["partial_stored"]
                                         for c in cold_sums) and \
                s["ckpt_set_loads"] == s["campaign_groups"] == \
                sum(c["campaign_groups"] for c in cold_sums)
        elif ok:
            ok = s["computed"] == 0 and s["disk_hits"] == n
        if ok and canonical_points(json.loads(out.read_text())["points"]) \
                != canonical_points(cold["points"]):
            ok = False
            s = dict(s, artifact="differs from the cold pass")
        if not ok:
            self.fail(n, f"resume pass {tag} self-check: {s}")
        return cpu, s, start_cpu

    def setup_pass(self):
        """CPU seconds of set-up alone: the grid at scale 1, no cache, one
        worker.

        That is process start plus, for every point, the program build,
        predecode and core/engine construction; each point then runs a
        few hundred instructions. One worker makes the CPU time the set-up
        work itself, with no pool spinning. Returns (cpu_s, the CPU
        seconds of an empty Python process run just before it).
        """
        start_cpu = self.startup_sample()
        rc, _, _, cpu, _ = self.exp(
            exp_args(self.spec, self.seed, scale=1, jobs=1), None,
            WORK / "setup.json")
        if rc != 0:
            raise BenchError("set-up pass failed")
        return cpu, start_cpu


def load_references():
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text())


# ---------------------------------------------------------------------------
# --trace 0: the end-to-end metrics.
# ---------------------------------------------------------------------------

def run_end_to_end(runner, seconds):
    """Cold passes for `seconds`; after each, a few set-up and resume
    passes, so those short timings sample the whole run, not one moment.

    A cold pass runs one pbs_exp process per program, each with one
    worker and each after a sample of the calibration kernel (see
    calibrate.py). A process's times are scaled to the host's usual
    speed by the sample taken just before it, and a program's figures
    are its medians over the passes, so a burst of host load that hits
    one pass of a program drops out. The set-up and resume passes,
    4-40 ms processes that start, allocate and read much and compute
    little, do not follow the kernel; each is scaled instead by the CPU
    time of an empty Python process run just before it.
    """
    passes, setup, resume = [], [], []
    start, attempts = time.monotonic(), 0
    while attempts < 2 or time.monotonic() - start < seconds:
        attempts += 1
        p = runner.cold_pass(str(attempts), split=True, jobs=E2E_JOBS)
        if p is None:
            continue
        passes.append(p)
        for i in range(SHORT_REPEATS):
            setup.append(runner.setup_pass())
            cpu, _, start_cpu = runner.resume_pass(p, f"{attempts}.{i}")
            resume.append((cpu, start_cpu))
    if not passes:
        raise BenchError("no cold pass completed")

    procs = passes[0]["procs"]

    def per_proc(field, scaled=False):
        return [statistics.median(
            p["procs"][k][field] * (CALIBRATE_REF_S / p["procs"][k]["cal"]
                                    if scaled else 1.0) for p in passes)
            for k in procs]

    insts = sum(p["insts"] for p in procs.values())
    # The host's speed over the run, as a share of its usual speed.
    speed = CALIBRATE_REF_S / statistics.median(runner.calibration)
    raw = {
        "setup_s": statistics.median(cpu for cpu, _ in setup),
        "sim_mips": insts / sum(per_proc("wall")) / 1e6,
        "cpu_s": sum(per_proc("cpu")),
        "resume_s": statistics.median(cpu for cpu, _ in resume),
        # The typical process: bandit's footprint depends on the seed.
        "peak_rss_mb": statistics.median(per_proc("rss")),
    }
    values = dict(raw, sim_mips=insts / sum(per_proc("wall", True)) / 1e6,
                  cpu_s=sum(per_proc("cpu", True)),
                  setup_s=statistics.median(
                      cpu * STARTUP_REF_S / start for cpu, start in setup),
                  resume_s=statistics.median(
                      cpu * STARTUP_REF_S / start for cpu, start in resume))
    log(f"{runner.name} seed {runner.seed}: {len(passes)} cold passes; "
        f"host speed {speed:.4f} of usual; raw "
        + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    return values


# ---------------------------------------------------------------------------
# --trace 1: the per-layer table.
# ---------------------------------------------------------------------------

def prof_phases(trace_files):
    """Per-phase self milliseconds from `pbs_prof report`, summed over
    the given traces."""
    self_ms = dict.fromkeys(PHASES, 0.0)
    for trace_file in trace_files:
        rc, out, *_ = run_proc([BINS["pbs_prof"], "report", "--trace",
                                trace_file, "--top", "100"])
        if rc != 0:
            raise BenchError("pbs_prof report failed")
        rows = [re.match(r"\s+(\w+)\s+\d+\s+[\d.]+\s+([\d.]+)\s+[\d.]+\s+"
                         r"[\d.]+%$", line) for line in out.splitlines()]
        rows = [m for m in rows if m]
        if not rows:
            raise BenchError("no phase table in the pbs_prof report")
        for m in rows:
            if m.group(1) in self_ms:
                self_ms[m.group(1)] += float(m.group(2))
    return {f"obs.phase.{ph}.self_ms": ms for ph, ms in self_ms.items()}


def detailed_truth(runner, spec, seed, tag):
    """IPC and MPKI of detailed runs of a grid, keyed by config_label()."""
    det = dict(spec, mode="detailed", campaign=False)
    out = WORK / f"{tag}.json"
    rc, *_ = runner.exp(exp_args(det, seed), None, out)
    if rc != 0:
        raise BenchError(f"the detailed {tag} pass failed")
    return {config_label(e["point"]): {"ipc": e["derived"]["ipc"],
                                       "mpki": e["derived"]["mpki"]}
            for e in json.loads(out.read_text())["points"]}


def sampling_accuracy(runner):
    """Sampled estimates against the detailed model, outside timed passes.

    The grid is the workload's programs x {tournament, tage-sc-l} x PBS
    {off, on} at its scale. detailed-sweep is its own truth; the other
    truths are recorded at the reference seed and computed otherwise.
    The sweeps run their estimate pass as a traced campaign with a
    cache, so the sampling and store phases of the phase table are
    measured on every workload. Returns (metrics, extra trace files).
    """
    grid = dict(runner.spec, predictors=TIMING_PREDICTORS)
    traces = []
    if runner.spec["mode"] == "sampled":
        estimates = runner.cold_doc["points"]
    else:
        out, trace = WORK / "estimates.json", WORK / "estimates-trace.json"
        smp = dict(grid, mode="sampled", campaign=True)
        shutil.rmtree(WORK / "estimates-cache", ignore_errors=True)
        rc, *_ = runner.exp(exp_args(smp, runner.seed),
                            WORK / "estimates-cache", out,
                            ["--trace", trace])
        if rc != 0:
            raise BenchError("the sampled estimate pass failed")
        estimates = json.loads(out.read_text())["points"]
        traces.append(trace)
    if runner.spec["mode"] == "detailed":
        truth = {config_label(e["point"]): e["derived"]
                 for e in runner.cold_doc["points"]}
    elif runner.reference:
        truth = runner.reference["truth"]
    else:
        truth = detailed_truth(runner, grid, runner.seed, "truth")
    ipc_err, mpki_err, covered = [], [], 0
    for e in estimates:
        t, est = truth[config_label(e["point"])], e["result"]["sampling"]
        err = abs(est["ipc"] - t["ipc"])
        ipc_err.append(100.0 * err / t["ipc"])
        mpki_err.append(abs(est["mpki"] - t["mpki"]))
        covered += err <= est["ipc_ci95"]
    return {"sampling.ipc_err_pct": max(ipc_err),
            "sampling.mpki_err": max(mpki_err),
            "sampling.ci_coverage": covered / len(estimates)}, traces


def reconcile(runner, probe):
    """Replayed counts against the artifact's PBS-off points, exactly."""
    mismatches = []
    for e in runner.cold_doc["points"]:
        pt, st = e["point"], e["result"]["stats"]
        if pt["pbs"]:
            continue
        rep = probe["programs"].get(program_label(pt))
        if rep is None:
            mismatches.append(f"{point_label(pt)}: no replayed stream")
            continue
        checks = [("branches", st["branches"], rep["branches"]),
                  ("prob_branches", st["prob_branches"],
                   rep["prob_instances"])]
        if pt["mode"] != "sampled":  # sampled mispredicts are estimates
            checks.append(("mispredicts", st["mispredicts"],
                           rep["mispredicts"][pt["predictor"]]))
        mismatches += [f"{point_label(pt)} {what}: artifact {a}, replay {r}"
                       for what, a, r in checks if a != r]
    return mismatches


def accounting(runner, probe, cpu_s):
    """Sum of (per-layer time x count) over a cold pass, / its CPU time.

    Each point costs its build and predecode plus, for sweep points, its
    instructions at that point's measured Core::run ns/inst (which
    includes the predictor, cache and PBS calls), or, for sampled
    points, its intervals at the measured per-interval time plus one
    capture and store save per checkpoint set. The bpred, mem and pbs
    shares count only the calls into those layers.
    """
    m = probe
    ns_per_inst = {p["label"]: p["ns_per_inst"] for p in probe["points"]}
    explained = bpred = mem = pbs = 0.0
    for e in runner.cold_doc["points"]:
        pt, st = e["point"], e["result"]["stats"]
        explained += (m["workloads.build_ms"] + m["isa.decode_ms"]) / 1e3
        # The share of the instructions the detailed core runs.
        detailed = 1.0 if point_mode(pt) == "detailed" else 0.0
        if pt["mode"] == "sampled":
            smp = e["result"]["sampling"]
            explained += smp["intervals"] * \
                m["sampling.measure_ms_per_interval"] / 1e3
            detailed = smp["detailed_instructions"] / st["instructions"]
        else:
            label = "/".join([program_label(pt), pt["predictor"],
                              "on" if pt["pbs"] else "off", point_mode(pt)])
            explained += st["instructions"] * ns_per_inst[label] / 1e9
        per_call = 1.0 if point_mode(pt) == "mpki" else detailed
        mem += detailed * probe["programs"][program_label(pt)][
            "mem_accesses"] * m["mem.ns_per_access"] / 1e9
        bpred += per_call * (st["branches"] - st["steered"]) * \
            m[f"bpred.{pt['predictor']}.ns_per_branch"] / 1e9
        if pt["pbs"]:
            pbs += per_call * st["prob_branches"] * \
                m["core.pbs_ns_per_instance"] / 1e9
    if runner.spec["campaign"]:
        explained += len(runner.spec["programs"]) * (
            m["sampling.capture_ms"] + m["sampling.store_save_ms"]) / 1e3
    return {"accounting.explained_share": explained / cpu_s,
            "accounting.bpred_share": bpred / cpu_s,
            "accounting.mem_share": mem / cpu_s,
            "accounting.pbs_share": pbs / cpu_s}


def probe_points(runner):
    """Core::run points for the cpu layer: the grid, in both fidelities
    for the two predictors every workload shares, else in its own."""
    points = {}
    for e in runner.cold_doc["points"]:
        pt = e["point"]
        for mode in ("detailed", "mpki"):
            if pt["predictor"] in TIMING_PREDICTORS or point_mode(pt) == mode:
                p = dict(pt, mode=mode)
                points[(program_label(pt), config_label(pt), mode)] = p
    return list(points.values())


def run_per_layer(runner, seconds):
    trace_file, metrics_file = WORK / "trace.json", WORK / "metrics.json"
    trace_args = ["--trace", trace_file, "--metrics", metrics_file]

    # Untraced and traced cold passes in ABBA order, so neither side
    # always runs first. Every artifact must be byte-identical to the
    # first (cold_pass checks it).
    plain, traced = [], []
    start = time.monotonic()
    while len(plain) < 2 or time.monotonic() - start < seconds / 2:
        sides = [(plain, ()), (traced, trace_args)]
        if len(plain) % 2:
            sides.reverse()
        for runs, extra in sides:
            tag = ("traced" if extra else "plain") + str(len(runs))
            p = runner.cold_pass(tag, extra)
            if p is None:
                raise BenchError("pbs_exp failed in the traced run")
            runs.append(p)
    values = {"obs.trace_overhead_pct": 100.0 * (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in plain) - 1)}

    _, s, _ = runner.resume_pass(plain[-1], "layers")
    if runner.spec["campaign"]:
        hits, misses = s["partial_hits"], s["partial_computed"]
    else:
        hits, misses = s["disk_hits"], s["computed"]
    values["exp.resume_hit_ratio"] = hits / max(1, hits + misses)

    plan = WORK / "layers.plan"
    write_plan(plan, runner.spec["programs"], runner.seed,
               runner.spec["scale"], probe_points(runner))
    rc, out, *_ = run_proc([BINS["layer_probe"], "layers", plan])
    if rc != 0:
        raise BenchError("layer_probe layers failed")
    probe = json.loads(out)
    values.update((k, v) for k, v in probe.items()
                  if isinstance(v, (int, float)))

    mismatches = reconcile(runner, probe)
    for m in mismatches:
        runner.note(f"reconciliation mismatch: {m}")
    accuracy, traces = sampling_accuracy(runner)
    values.update(accuracy)
    values.update(prof_phases([trace_file, *traces]))
    values.update(accounting(runner, probe,
                             statistics.median(p["cpu"] for p in plain)))

    units = per_layer_units()
    missing = [k for k in units if k not in values]
    if missing:
        raise BenchError("per-layer metrics not measured: "
                         + ", ".join(missing))
    return {k: values[k] for k in units}


# ---------------------------------------------------------------------------
# Reference recording.
# ---------------------------------------------------------------------------

def record_references():
    refs = {}
    for name, spec in WORKLOADS.items():
        runner = Runner(name, REFERENCE_SEED, use_references=False)
        if runner.cold_pass("ref") is None or runner.failed:
            raise BenchError(f"{name}: the reference pass failed its checks")
        entry = {"seed": REFERENCE_SEED,
                 "digests": {point_label(e["point"]):
                             result_digest(e["result"])
                             for e in runner.cold_doc["points"]}}
        if spec["mode"] != "detailed":
            grid = dict(spec, predictors=TIMING_PREDICTORS)
            entry["truth"] = detailed_truth(runner, grid, REFERENCE_SEED,
                                            "truth")
        refs[name] = entry
        log(f"recorded {name}: {len(entry['digests'])} digests")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(
        description="The simulator benchmark (see simbench/README.md).")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true",
                    help="rewrite references.json at the reference seed")
    ap.add_argument("--plant-mismatch", action="store_true",
                    help="self-test of the gate: perturb one program's "
                         "native outputs, so its points must fail")
    args = ap.parse_args()
    if not args.record_references and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        ensure_built()
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        if args.record_references:
            record_references()
            return 0
        runner = Runner(args.workload, args.seed)
        if args.plant_mismatch:
            key = sorted(runner.native)[0]
            runner.native[key] = [v + 1.0 for v in runner.native[key]]
        if args.trace:
            values, units = run_per_layer(runner, args.seconds), \
                per_layer_units()
        else:
            values, units = run_end_to_end(runner, args.seconds), \
                END_TO_END_UNITS
    except BenchError as e:
        log(f"error: {e}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(json.dumps({
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
