"""Audit the pytest ``slow`` marker against the fast-path selection.

The fast gate (``scripts/check.sh`` without ``--full``) deselects
``-m "not slow"``; anything expensive that *should* be deselected but
lost its marker silently bloats every CI run, and a fast selection
that accidentally swallows a whole battery hides coverage.  This
script collects the test ids twice — unfiltered and under the fast
marker expression — and enforces:

1. every ``*_battery`` test (the naming convention for the expensive
   characterize/roster sweeps) is marked ``slow``: present in the full
   collection, absent from the fast one;
2. at least one battery test exists (the convention is live, not
   vestigial);
3. the fast selection is non-empty and a strict subset of the full
   collection (the marker expression deselects something, i.e. slow
   tests exist and the marker is registered — an unregistered marker
   would deselect nothing);
4. no test id appears in the fast selection but not the full one
   (a collection discrepancy would mean the two runs disagree about
   what the suite even is);
5. every file in ``REQUIRED_BATTERY_FILES`` — the differential
   equivalence batteries that lock the kernels, the compiled VM, the
   derived trace and the profile fold to their references —
   contributes at least one slow-marked battery test (a renamed or
   deleted battery must fail loudly here, not silently stop gating).

Exit status: 0 clean, 1 on any violation, 2 on collection failure.
"""

import subprocess
import sys

#: Test files that must each carry at least one slow-marked
#: ``*_battery`` test: the kernel, compiled-VM, derived-trace and
#: profile-fold equivalence contract suites.
REQUIRED_BATTERY_FILES = (
    "tests/test_characterize.py",
    "tests/test_cycle_kernel_equivalence.py",
    "tests/test_derived_trace.py",
    "tests/test_flush_tournament_equivalence.py",
    "tests/test_kernel_screen_battery.py",
    "tests/test_profiling.py",
    "tests/test_sweep_equivalence.py",
    "tests/test_vm_compiled.py",
)


def collect(extra_args):
    """Collected test ids under the given pytest args."""
    command = [sys.executable, "-m", "pytest", "--collect-only", "-q",
               "--no-header", "-p", "no:cacheprovider"] + extra_args
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode not in (0, 5):
        sys.stderr.write(result.stdout + result.stderr)
        sys.stderr.write("marker audit: collection failed (%r)\n"
                         % (command,))
        sys.exit(2)
    ids = set()
    for line in result.stdout.splitlines():
        line = line.strip()
        if "::" in line and not line.startswith(("<", "=")):
            ids.add(line)
    return ids


def main():
    full = collect([])
    fast = collect(["-m", "not slow"])
    problems = []

    batteries = {test for test in full
                 if test.split("::")[-1].endswith("_battery")
                 or "_battery[" in test.split("::")[-1]}
    if not batteries:
        problems.append("no *_battery tests collected - the slow "
                        "battery convention has gone vestigial")
    leaked = sorted(batteries & fast)
    if leaked:
        problems.append("battery tests missing the slow marker "
                        "(they run on the fast path):\n  "
                        + "\n  ".join(leaked))

    if not fast:
        problems.append("fast selection (-m 'not slow') is empty")
    if fast == full:
        problems.append("-m 'not slow' deselects nothing - no slow "
                        "tests exist or the marker is unregistered")
    phantom = sorted(fast - full)
    if phantom:
        problems.append("tests selected fast but not in the full "
                        "collection:\n  " + "\n  ".join(phantom))

    slow_batteries = batteries - fast
    for required in REQUIRED_BATTERY_FILES:
        if not any(test.startswith(required + "::")
                   for test in slow_batteries):
            problems.append("%s contributes no slow-marked *_battery "
                            "test - its equivalence battery was "
                            "renamed, unmarked, or deleted" % required)

    slow_count = len(full - fast)
    if problems:
        for problem in problems:
            sys.stderr.write("marker audit: %s\n" % problem)
        return 1
    print("marker audit: %d tests, %d slow-marked (%d batteries), "
          "fast path runs %d" % (len(full), slow_count,
                                 len(batteries), len(fast)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
