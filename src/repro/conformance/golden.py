"""Golden-table regression: paper tolerance bands + committed trajectory.

Two complementary checks over the experiment pipeline's numbers:

* :func:`check_paper_bands` — the measured Tables 1-5 quantities must
  sit inside *declared* tolerance bands around the paper's published
  values (``repro.experiments.paper_values``).  The bands are wide
  where DESIGN.md documents substrate deviations and tight where the
  relationship is structural (cost identities, orderings, ranges).
* :func:`check_golden` — the same quantities must match the committed
  golden JSON (our own trajectory) to float precision at a pinned
  configuration, so any PR that shifts a table does so *explicitly* by
  regenerating the file (``repro-branches conformance
  --update-golden``).

Both return a flat list of human-readable violation strings; empty
means pass.
"""

import json
from pathlib import Path

from repro.experiments import paper_values
from repro.experiments.table4 import costs_for
from repro.pipeline import branch_cost

#: The committed golden file (regenerate with --update-golden).
GOLDEN_PATH = Path(__file__).with_name("golden_small.json")

#: The pinned configuration the golden file is measured at: small and
#: fast (a conformance run must stay cheap) but through the full
#: compile/profile/layout/trace pipeline.
GOLDEN_CONFIG = {
    "scale": 0.05,
    "runs": 1,
    "benchmarks": ["wc", "tee", "cmp", "grep"],
}

GOLDEN_FORMAT = 1

#: Declared tolerance bands around the paper's values.  DESIGN.md §6.9
#: documents why the substrate deviates (scaled inputs, Minic codegen);
#: the bands assert the deviations stay bounded.
PAPER_BANDS = {
    # |measured - paper| per scheme accuracy, in percentage points.
    "accuracy_points": 15.0,
    # |measured - paper| for the SBTB miss ratio.
    "rho_sbtb_abs": 0.25,
    # The CBTB's defining property: a near-zero miss ratio.
    "rho_cbtb_max": 0.05,
    # All accuracies must stay in this absolute range (percent).
    "accuracy_range": (60.0, 100.0),
    # Code expansion stays positive and below this (percent) at 8 slots.
    "expansion_max_percent": 200.0,
}

_SLOT_COUNTS = (1, 2, 4, 8)


def measure(runner, names):
    """All golden-checked quantities for ``names``, JSON-serialisable."""
    data = {}
    for name in names:
        run = runner.run(name)
        predictions = run.predictions()
        stats = run.stats
        expansions = run.expansions()
        data[name] = {
            "rho_sbtb": predictions["SBTB"].miss_ratio,
            "accuracy_sbtb": 100.0 * predictions["SBTB"].accuracy,
            "rho_cbtb": predictions["CBTB"].miss_ratio,
            "accuracy_cbtb": 100.0 * predictions["CBTB"].accuracy,
            "accuracy_fs": 100.0 * predictions["FS"].accuracy,
            "branches": stats.branches,
            "instructions": stats.total_instructions,
            "control_fraction": stats.control_fraction,
            "taken_fraction": stats.taken_fraction,
            "known_fraction": stats.known_fraction,
            "cost_kl2": list(costs_for(run, 2)),
            "cost_kl3": list(costs_for(run, 3)),
            "expansion_percent": {
                str(n): 100.0 * expansions[n].expansion_fraction
                for n in _SLOT_COUNTS},
        }
    return data


def check_paper_bands(runner, names=None):
    """Violations of the declared bands around the paper's values."""
    names = list(names or GOLDEN_CONFIG["benchmarks"])
    bands = PAPER_BANDS
    low, high = bands["accuracy_range"]
    violations = []
    measured = measure(runner, names)
    for name in names:
        row = measured[name]
        paper = paper_values.TABLE3[name]
        paper_by_key = {
            "accuracy_sbtb": paper[1],
            "accuracy_cbtb": paper[3],
            "accuracy_fs": paper[4],
        }
        for key, published in paper_by_key.items():
            value = row[key]
            if not low <= value <= high:
                violations.append(
                    "%s: %s = %.2f%% outside [%g, %g]"
                    % (name, key, value, low, high))
            if abs(value - published) > bands["accuracy_points"]:
                violations.append(
                    "%s: %s = %.2f%% strays %.2f points from the "
                    "paper's %.1f%% (band %.1f)"
                    % (name, key, value, abs(value - published),
                       published, bands["accuracy_points"]))
        if not 0.0 <= row["rho_cbtb"] <= bands["rho_cbtb_max"]:
            violations.append(
                "%s: rho_CBTB = %.4f exceeds %.2f (the CBTB must "
                "rarely miss)" % (name, row["rho_cbtb"],
                                  bands["rho_cbtb_max"]))
        if abs(row["rho_sbtb"] - paper[0]) > bands["rho_sbtb_abs"]:
            violations.append(
                "%s: rho_SBTB = %.3f strays %.3f from the paper's %.2f"
                % (name, row["rho_sbtb"],
                   abs(row["rho_sbtb"] - paper[0]), paper[0]))
        violations.extend(_structural_violations(name, row))
    return violations


def _structural_violations(name, row):
    """Identities and orderings that hold regardless of substrate."""
    violations = []
    # Table 4 is the cost equation applied to Table 3's accuracy; an
    # independent re-derivation here oracles the experiments layer.
    for label, k_plus_l_bar in (("cost_kl2", 2), ("cost_kl3", 3)):
        accuracies = (row["accuracy_sbtb"], row["accuracy_cbtb"],
                      row["accuracy_fs"])
        for scheme_index, accuracy in enumerate(accuracies):
            expected = branch_cost(accuracy / 100.0, k=k_plus_l_bar,
                                   l_bar=0.0, m_bar=1.0)
            got = row[label][scheme_index]
            if abs(got - expected) > 1e-9:
                violations.append(
                    "%s: %s[%d] = %.6f but the cost equation gives "
                    "%.6f" % (name, label, scheme_index, got, expected))
    for shallow, deep in zip(row["cost_kl2"], row["cost_kl3"]):
        if deep < shallow - 1e-12:
            violations.append(
                "%s: deeper pipeline got cheaper (%.4f < %.4f)"
                % (name, deep, shallow))
    fractions = ("control_fraction", "taken_fraction", "known_fraction")
    for key in fractions:
        if not 0.0 <= row[key] <= 1.0:
            violations.append("%s: %s = %r outside [0, 1]"
                              % (name, key, row[key]))
    previous_n, previous = 0, 0.0
    for n in _SLOT_COUNTS:
        percent = row["expansion_percent"][str(n)]
        if percent < previous - 1e-12:
            violations.append(
                "%s: expansion shrank from %d to %d slots (%.2f%% -> "
                "%.2f%%)" % (name, previous_n, n, previous, percent))
        previous_n, previous = n, percent
    top = row["expansion_percent"][str(_SLOT_COUNTS[-1])]
    if not 0.0 <= top <= PAPER_BANDS["expansion_max_percent"]:
        violations.append(
            "%s: expansion at %d slots = %.2f%% outside [0, %g]"
            % (name, _SLOT_COUNTS[-1], top,
               PAPER_BANDS["expansion_max_percent"]))
    return violations


def _golden_runner(cache):
    from repro.experiments.runner import SuiteRunner

    return SuiteRunner(scale=GOLDEN_CONFIG["scale"],
                       runs=GOLDEN_CONFIG["runs"],
                       cache_dir=None if cache else False)


def write_golden(path=None, cache=True):
    """Measure at the pinned configuration and write the golden file."""
    path = Path(path) if path else GOLDEN_PATH
    runner = _golden_runner(cache)
    payload = {
        "format": GOLDEN_FORMAT,
        "config": GOLDEN_CONFIG,
        "measured": measure(runner, GOLDEN_CONFIG["benchmarks"]),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def check_golden(path=None, cache=True, tolerance=1e-9):
    """Compare a fresh pinned-config measurement against the golden file.

    The golden file embeds the configuration it was measured at, so
    this check is self-contained: it builds its own runner.  Each
    trace takes the path ``simulate()`` picks (the kernels for the
    long traces, the scalar loop for those under the size threshold),
    so a kernel that drifted from the committed trajectory fails here
    even if it agrees with an equally drifted scalar loop.  Returns a
    list of violation strings (empty = pass).
    """
    path = Path(path) if path else GOLDEN_PATH
    if not path.exists():
        return ["golden file missing: %s (run `repro-branches "
                "conformance --update-golden`)" % path]
    payload = json.loads(path.read_text())
    if payload.get("format") != GOLDEN_FORMAT:
        return ["golden file %s has format %r, expected %r"
                % (path, payload.get("format"), GOLDEN_FORMAT)]
    config = payload["config"]
    from repro.experiments.runner import SuiteRunner

    runner = SuiteRunner(scale=config["scale"], runs=config["runs"],
                         cache_dir=None if cache else False)
    fresh = measure(runner, config["benchmarks"])
    violations = []
    for name, golden_row in payload["measured"].items():
        fresh_row = fresh.get(name)
        if fresh_row is None:
            violations.append("%s: missing from fresh measurement" % name)
            continue
        violations.extend(_compare_rows(name, golden_row, fresh_row,
                                        tolerance))
    return violations


def _compare_rows(name, golden_row, fresh_row, tolerance):
    violations = []
    for key, golden_value in golden_row.items():
        fresh_value = fresh_row.get(key)
        for label, gold, got in _flatten(key, golden_value, fresh_value):
            if isinstance(gold, float) or isinstance(got, float):
                same = (got is not None
                        and abs(got - gold) <= tolerance * max(
                            1.0, abs(gold)))
            else:
                same = got == gold
            if not same:
                violations.append(
                    "%s: %s drifted from golden %r to %r"
                    % (name, label, gold, got))
    return violations


def _flatten(key, golden_value, fresh_value):
    """Yield (label, golden, fresh) leaf triples for nested values."""
    if isinstance(golden_value, dict):
        for sub_key, sub_value in golden_value.items():
            fresh_sub = (fresh_value or {}).get(sub_key)
            yield from _flatten("%s[%s]" % (key, sub_key), sub_value,
                                fresh_sub)
    elif isinstance(golden_value, list):
        fresh_list = fresh_value or []
        for index, sub_value in enumerate(golden_value):
            fresh_sub = (fresh_list[index]
                         if index < len(fresh_list) else None)
            yield from _flatten("%s[%d]" % (key, index), sub_value,
                                fresh_sub)
    else:
        yield key, golden_value, fresh_value
