"""End-to-end benchmark: regenerate the paper cold and warm, sweep the
BTB design space, and run the conformance battery.

    python bench/run.py                          # every workload
    python bench/run.py --workload paper-warm    # one workload
    python bench/run.py --trace 0                # untraced reps only
    python bench/run.py --trace 1                # the traced run only
    python bench/run.py --smoke                  # reduced sizes, one rep
    python bench/run.py --seed 7 --seconds 20

Load shape: a closed loop with one client.  Every rep is a fresh
``python -m repro ... --workers 1`` child, one at a time, with its own
``REPRO_CACHE_DIR`` under ``bench/results``; its wall time, CPU time and
peak RSS come from ``os.wait4`` on that child alone.  Untraced reps give
the end-to-end metrics.  The traced run (``bench/traced.py``) repeats
the workload once in a fresh child that wraps the program's public
callables, and gives the per-layer metrics.  Every rep's standard
output must hash to ``bench/expected.json``; a rep that exits non-zero
or prints anything else counts as failed.

The program's inputs are the paper's fixed suite, so ``--seed`` only
shuffles the order in which workloads and reps interleave.  Without
``--seconds`` each workload runs its fixed number of reps; with it, reps
continue while the next one fits in that many measured seconds (always
at least one).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``, both without ``--trace``; names carry a ``<workload>.``
prefix when more than one workload runs).
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import traced

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"

#: A child still running after this many seconds is killed (and its
#: rep fails), so one invocation stays inside its time limit.
CHILD_TIMEOUT_S = 170.0

#: The traced run fails when more than this share of its wall time
#: belongs to no layer.
MAX_OTHER_SHARE = 0.05


class BenchError(Exception):
    """The benchmark could not set up or check a workload."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple     # repro-branches arguments of every measured rep
    setup: tuple    # arguments that build the starting cache; () = empty
    reps: int       # reps per run when --seconds is not given

    @property
    def cold(self):
        return not self.setup


def workloads(smoke=False):
    """The four workloads; ``smoke`` shrinks them to scale 0.02 and five
    conformance seeds, one rep each."""
    paper = "0.02" if smoke else "1.0"
    sweep = "0.02" if smoke else "0.05"
    seeds = "5" if smoke else "200"

    def reps(count):
        return 1 if smoke else count

    return {workload.name: workload for workload in (
        Workload("paper-cold", ("all", "--scale", paper), (), reps(3)),
        Workload("paper-warm", ("all", "--scale", paper),
                 ("all", "--scale", paper), reps(5)),
        Workload("sweeps-small", ("sweeps", "--scale", sweep),
                 ("all", "--scale", sweep), reps(3)),
        Workload("conformance-full", ("conformance", "--seeds", seeds),
                 ("conformance", "--seeds", "1"), reps(5)),
    )}


# -- children ---------------------------------------------------------------

@dataclass
class Child:
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes


def run_child(argv, cache, log):
    """Run ``python argv`` against ``cache``; rusage of this child only.

    Standard error goes to ``log``.  ``RUSAGE_CHILDREN`` would not do:
    it keeps the maximum RSS over every child ever reaped.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(cache))
    with open(log, "ab") as errors:
        start = time.perf_counter()
        process = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                   env=env, stdout=subprocess.PIPE,
                                   stderr=errors)
        timer = threading.Timer(CHILD_TIMEOUT_S, process.kill)
        timer.start()
        try:
            stdout = process.stdout.read()
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            timer.cancel()
            process.stdout.close()
        wall_s = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return Child(process.returncode, wall_s,
                 usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, stdout)


def repro_argv(argv):
    """``python -m repro argv`` with one worker: one process at a time."""
    return ["-m", "repro", *argv, "--workers", "1"]


def digest(data):
    return hashlib.sha256(data).hexdigest()


# -- cache state --------------------------------------------------------------

def source_key():
    """Hash of the program's source tree: keys the stored set-up caches
    and the reference counts, so nothing outlives a source change."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if (path.is_file() and "__pycache__" not in path.parts
                and not any(part.endswith(".egg-info")
                            for part in path.parts)):
            hasher.update(str(path.relative_to(ROOT)).encode())
            hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def state_dir(key):
    return RESULTS / "state" / key


def store_for(key, argv):
    """Where the cache left by ``repro-branches argv`` is kept."""
    return state_dir(key) / ("cache-" + "_".join(argv))


def check_cache(cache, populated, log):
    """Guard a rep's starting state with the program's own inventory:
    cold caches are empty, warm ones hold only current, intact entries,
    and no sweep checkpoint is left to resume from."""
    child = run_child(["-m", "repro", "cache", "--json"], cache, log)
    if child.status != 0:
        raise BenchError("'cache --json' exited %d on %s"
                         % (child.status, cache))
    inventory = json.loads(child.stdout)
    entries = inventory["entries"]
    if bool(entries) != populated or inventory["quarantined"]:
        raise BenchError("%s: expected a%s cache, found %d entries and "
                         "%d quarantined files"
                         % (cache, " populated" if populated else "n empty",
                            len(entries), len(inventory["quarantined"])))
    stale = [entry["stem"] for entry in entries
             if entry["status"] != "ok" or not entry["current"]]
    if stale:
        raise BenchError("%s: unusable entries %s" % (cache, stale))
    checkpoints = cache / "checkpoints"
    if checkpoints.is_dir() and any(checkpoints.iterdir()):
        raise BenchError("%s: a sweep checkpoint is left" % cache)


def build_store(argv, store, log):
    """Run the set-up command once into a fresh cache and keep it."""
    scratch = store.with_name(store.name + ".tmp-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    child = run_child(repro_argv(argv), scratch, log)
    if child.status != 0:
        raise BenchError("set-up %r exited %d" % (argv, child.status))
    shutil.rmtree(scratch / "checkpoints", ignore_errors=True)
    keep(scratch, store)


def keep(cache, store):
    """Move ``cache`` into place as ``store`` unless one is there."""
    try:
        os.rename(cache, store)
    except OSError:
        shutil.rmtree(cache, ignore_errors=True)


def prepare(workload, rep_dir, key):
    """A rep's starting cache, and the seconds it took to make.

    Cold reps start from an empty directory.  Warm reps start from a
    copy of the stored set-up cache, built on first use, with no
    checkpoints; a cold rep of ``all`` leaves that store for paper-warm.
    """
    start = time.perf_counter()
    rep_dir.mkdir(parents=True, exist_ok=True)
    cache = rep_dir / "cache"
    log = rep_dir / "stderr.txt"
    if workload.cold:
        cache.mkdir()
    else:
        store = store_for(key, workload.setup)
        if not store.is_dir():
            store.parent.mkdir(parents=True, exist_ok=True)
            build_store(workload.setup, store, log)
        shutil.copytree(store, cache)
    check_cache(cache, not workload.cold, log)
    return cache, time.perf_counter() - start


# -- reps ---------------------------------------------------------------------

@dataclass
class Rep:
    setup_s: float
    child: Child
    problems: list

    @property
    def failed(self):
        return bool(self.problems)


def check_output(child, expected):
    problems = []
    if child.status != 0:
        problems.append("exit status %d" % child.status)
    if digest(child.stdout) != expected:
        problems.append("stdout sha256 %s, expected %s"
                        % (digest(child.stdout), expected))
    return problems


def run_rep(workload, rep_dir, key, expected):
    """One untraced rep: set up, run, check the output digest."""
    cache, setup_s = prepare(workload, rep_dir, key)
    child = run_child(repro_argv(workload.argv), cache,
                      rep_dir / "stderr.txt")
    rep = Rep(setup_s, child, check_output(child, expected))
    if workload.cold and not rep.failed:
        keep(cache, store_for(key, workload.argv))
    shutil.rmtree(cache, ignore_errors=True)
    return rep


def check_ledger(workload, ledger, reference_path):
    """The traced run's accounting and state checks."""
    metrics = ledger["metrics"]
    problems = []
    if metrics["other_s"] > MAX_OTHER_SHARE * ledger["wall_s"]:
        problems.append("other_s %.3f s is over %d%% of the traced wall "
                        "time %.3f s" % (metrics["other_s"],
                                         100 * MAX_OTHER_SHARE,
                                         ledger["wall_s"]))
    hit_ratio = 0.0 if workload.cold else 1.0
    if metrics["cache.hit_ratio"] != hit_ratio:
        problems.append("cache.hit_ratio %r, expected %r"
                        % (metrics["cache.hit_ratio"], hit_ratio))
    counts = {name: metrics[name] for name in traced.EXACT_COUNTS}
    if reference_path.exists():
        reference = json.loads(reference_path.read_text())
        if counts != reference:
            problems.append("exact counts %s differ from the earlier "
                            "traced run's %s" % (counts, reference))
    else:
        reference_path.parent.mkdir(parents=True, exist_ok=True)
        reference_path.write_text(json.dumps(counts, sort_keys=True))
    return problems


def run_traced(workload, rep_dir, key, expected, ledger_path, mode):
    """The traced run: same output, plus the per-layer ledger."""
    cache, setup_s = prepare(workload, rep_dir, key)
    child = run_child([str(BENCH / "traced.py"), str(ledger_path), "--",
                       *workload.argv, "--workers", "1"],
                      cache, rep_dir / "stderr.txt")
    shutil.rmtree(cache, ignore_errors=True)
    problems = check_output(child, expected)
    ledger = None
    if ledger_path.exists():
        ledger = json.loads(ledger_path.read_text())
        reference = (state_dir(key)
                     / ("counts-%s-%s.json" % (mode, workload.name)))
        problems += check_ledger(workload, ledger, reference)
    else:
        problems.append("no ledger written")
    return Rep(setup_s, child, problems), ledger


# -- summaries ----------------------------------------------------------------

UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def summary(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def untraced_result(reps):
    """Median, min, max and n of each end-to-end metric over ``reps``,
    the failures, and every rep's raw values."""
    failed = sum(rep.failed for rep in reps)
    return {
        "metrics": {
            "wall_s": summary([rep.child.wall_s for rep in reps]),
            "cpu_s": summary([rep.child.cpu_s for rep in reps]),
            "peak_rss_mb": summary([rep.child.peak_rss_mb for rep in reps]),
            "setup_s": summary([rep.setup_s for rep in reps]),
        },
        "attempted": len(reps),
        "failed": failed,
        "fail_rate": failed / len(reps),
        "problems": [problem for rep in reps for problem in rep.problems],
        "reps": [{"setup_s": rep.setup_s, "wall_s": rep.child.wall_s,
                  "cpu_s": rep.child.cpu_s,
                  "peak_rss_mb": rep.child.peak_rss_mb} for rep in reps],
    }


def render(name, workload, untraced, traced_run):
    lines = ["%s: repro-branches %s" % (name, " ".join(workload.argv))]
    if untraced:
        for metric, stats in untraced["metrics"].items():
            lines.append("  %-13s %12.4f %-5s [%.4f .. %.4f] n=%d"
                         % (metric, stats["median"], UNITS[metric],
                            stats["min"], stats["max"], stats["n"]))
        lines.append("  %-13s %12.4f ratio (%d of %d reps failed)"
                     % ("fail_rate", untraced["fail_rate"],
                        untraced["failed"], untraced["attempted"]))
        for problem in untraced["problems"]:
            lines.append("  FAILED rep: %s" % problem)
    if traced_run:
        lines.append("  traced run, wall %.3f s:" % traced_run["wall_s"])
        for metric, value in traced_run["metrics"].items():
            lines.append("    %-34s %16.6f %s"
                         % (metric, value, traced.unit_of(metric)))
        for problem in traced_run["problems"]:
            lines.append("  FAILED traced run: %s" % problem)
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of repro-branches.")
    parser.add_argument("--workload", choices=sorted(workloads()),
                        help="run only this workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles workload and rep order (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure reps while the next fits in this "
                             "many seconds (default: fixed rep counts)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced reps only; 1: the traced run "
                             "only (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 0.02 and 5 conformance seeds, one rep")
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps its child (see run_child).
    signal.signal(signal.SIGTERM, terminate)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print("bench: no program source at %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mode = "smoke" if args.smoke else "full"
    expected = json.loads((BENCH / "expected.json").read_text())[mode]
    table = workloads(args.smoke)
    names = [args.workload] if args.workload else list(table)
    rng = random.Random(args.seed)
    rng.shuffle(names)
    key = source_key()
    run_name = "%s-seed%d-%d" % (time.strftime("%Y%m%dT%H%M%S"),
                                 args.seed, os.getpid())
    run_dir = RESULTS / run_name

    results = {name: {"untraced": None, "traced": None} for name in names}
    try:
        if args.trace != 1:
            reps = {name: [] for name in names}
            # Round-robin in a seeded order, so slow drift on the host
            # lands on every workload alike.
            while True:
                due = [name for name in names
                       if wants_rep(table[name], reps[name], args.seconds)]
                if not due:
                    break
                rng.shuffle(due)
                for name in due:
                    rep_dir = run_dir / name / ("rep-%d" % len(reps[name]))
                    reps[name].append(run_rep(table[name], rep_dir, key,
                                              expected[name]))
            for name in names:
                results[name]["untraced"] = untraced_result(reps[name])
        if args.trace != 0:
            for name in names:
                rep, ledger = run_traced(
                    table[name], run_dir / name / "traced", key,
                    expected[name], run_dir / ("%s.trace.json" % name),
                    mode)
                metrics = dict(ledger["metrics"]) if ledger else {}
                untraced = results[name]["untraced"]
                if ledger and untraced:
                    # Both walls span the whole child process.
                    metrics["trace_overhead"] = (
                        rep.child.wall_s
                        / untraced["metrics"]["wall_s"]["median"] - 1)
                results[name]["traced"] = {
                    "wall_s": ledger["wall_s"] if ledger else rep.child.wall_s,
                    "metrics": metrics, "problems": rep.problems,
                    "failed": int(rep.failed)}
    except BenchError as error:
        print("bench: %s" % error, file=sys.stderr)
        return 1

    for name in names:
        print(render(name, table[name], results[name]["untraced"],
                     results[name]["traced"]))
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "results.json").write_text(json.dumps({
        "seed": args.seed, "mode": mode, "seconds": args.seconds,
        "order": names, "source_key": key, "workloads": results,
    }, indent=2, sort_keys=True))
    print("results: %s" % (run_dir / "results.json").relative_to(ROOT))

    line = result_line(spec, names, results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def terminate(signum, frame):
    raise SystemExit(128 + signum)


def wants_rep(workload, reps, seconds):
    if not reps:
        return True
    if seconds is None:
        return len(reps) < workload.reps
    measured = [rep.child.wall_s for rep in reps]
    return sum(measured) + measured[-1] <= seconds


def result_line(spec, names, results):
    """The JSON result: BENCHMARK.json's metrics, by name with units."""
    attempted = failed = 0
    metrics = {}
    prefix = len(names) > 1
    for name in names:
        untraced = results[name]["untraced"]
        traced_run = results[name]["traced"]
        chosen = []
        if untraced:
            attempted += untraced["attempted"]
            failed += untraced["failed"]
            chosen += [(entry, untraced["metrics"][entry["name"]]["median"])
                       for entry in spec["end_to_end"]]
        if traced_run:
            attempted += 1
            failed += traced_run["failed"]
            chosen += [(entry, traced_run["metrics"][entry["name"]])
                       for entry in spec["per_layer"]
                       if entry["name"] in traced_run["metrics"]]
        for entry, value in chosen:
            label = ("%s.%s" % (name, entry["name"]) if prefix
                     else entry["name"])
            metrics[label] = {"value": value, "unit": entry["unit"]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
