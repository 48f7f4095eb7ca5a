"""Pure helpers of the benchmark script: output checks, span self times
and daemon metrics parsing.

Nothing here starts processes or touches files, so
perfbench/test_harness.py can test it directly.
"""

SWEEP_PREFIX = "sweep: "


def filter_sweep_lines(text):
    """The output with every "sweep: " log line removed, as
    tests/golden/check_driver.sh filters it."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(SWEEP_PREFIX))


def _sections(goldens):
    """Each golden's expected lines; experiments after the first are
    preceded by the blank separator line `cvliw-bench --all` prints."""
    sections = []
    for index, (_, text) in enumerate(goldens):
        lines = text.splitlines(keepends=True)
        sections.append((["\n"] if index else []) + lines)
    return sections


def golden_failures(output, goldens):
    """Names of the experiments whose tables in output differ from
    their golden. goldens is [(name, text)] in registry order; output
    is the concatenated `--all` output, "sweep: " lines allowed. After a
    mismatch the check resynchronizes on the next experiment's banner,
    so one bad table does not fail the rest."""
    lines = filter_sweep_lines(output).splitlines(keepends=True)
    sections = _sections(goldens)
    failed = []
    pos = 0
    for index, expected in enumerate(sections):
        if lines[pos:pos + len(expected)] == expected:
            pos += len(expected)
            continue
        failed.append(goldens[index][0])
        if index + 1 == len(sections):
            pos = len(lines)
            break
        banner = sections[index + 1][1]
        try:
            pos = max(lines.index(banner, pos) - 1, pos)
        except ValueError:
            pos = len(lines)
    if pos != len(lines) and not failed:
        failed.append("<unexpected trailing output>")
    return failed


def self_times(spans):
    """Total self time in seconds per span name. A span's self time is
    its duration minus the part of it that its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    totals = {}
    for index, span in enumerate(spans):
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        for child in sorted(children.get(index, []),
                            key=lambda c: c["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        name = span["name"]
        totals[name] = totals.get(name, 0.0) + (end - start - covered) * 1e-9
    return totals


def durations(spans):
    """Total duration in seconds per span name."""
    totals = {}
    for span in spans:
        totals[span["name"]] = (totals.get(span["name"], 0.0) +
                                (span["end_ns"] - span["start_ns"]) * 1e-9)
    return totals


def parse_prometheus(text):
    """`cvliw-sweep-client ADDR metrics --prometheus` output as
    {series: value}; series keep their labels, e.g.
    'cvliw_stage_request_total_us{quantile="0.5"}'."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        series[name] = float(value)
    return series


def parse_histogram_table(text):
    """The histogram block of `cvliw-sweep-client ADDR metrics` as
    {name: {"count", "p50", "p90", "p99", "max"}} in microseconds."""
    hists = {}
    in_block = False
    for line in text.splitlines():
        if line.startswith("histograms:"):
            in_block = True
            continue
        fields = line.split()
        if not in_block or len(fields) != 6 or fields[0] == "name":
            continue
        hists[fields[0]] = dict(zip(("count", "p50", "p90", "p99", "max"),
                                    (int(f) for f in fields[1:])))
    return hists
