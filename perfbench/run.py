#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rootspin command line.

Run from the repository root:

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Every job is a fresh ``python -m rootspin.cli ...`` process, as a user
runs it.  One client runs the jobs one after another in a closed loop, so
one job is in flight at a time.  Each answer is checked against
``perfbench/reference.json``; a wrong or missing answer or an unexpected
exit code counts as failed.

``--trace 0`` reports the end-to-end metrics: set-up time, the time of the
median pass, the median and the tail job time over every sample and the
largest peak RSS of any job.  Times are scaled to a reference host speed by
a fixed pure-Python probe timed before every child, because a shared host's
speed can drift by up to a factor of two over minutes (see RESULTS.md).
``--trace 1`` runs every job twice, plain and under
``perfbench/trace_child.py``, and reports per-layer self times and work
counts from the spans, the import costs from ``-X importtime`` and the
tracing overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = json.loads((HERE / "reference.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPAN_MARKER = "perfbench-spans "

RUN_DEADLINE_S = 150.0  # no pass starts that would end later, so a run ends within 180 s
JOB_TIMEOUT_S = 170.0
SETUP_SAMPLES = 24  # set-up samples per run, spread over its passes
PROBE_LOOPS = 150_000  # 10 to 15 ms of pure Python on the Xeon in RESULTS.md
PROBE_REFERENCE_S = 0.012  # probe time of the reference host that times are scaled to
IMPORTTIME_REPEATS = 5
TAIL_BEYOND = 10

# Spans and probes each workload must fire in a traced run.
EXPECTED_SPANS = {
    "catalogue": [
        "cli.build_report", "rootsys.positive_roots", "sigsum.obstruction_2L", "sigsum.hnf",
        "certs.certificate", "certs.verify_report", "sigsum.count_bruteforce",
        "sigsum.count_mitm", "kernels.count_zero_full", "kernels.key_packing",
        "kernels.signed_sum_keys", "sigsum.join",
    ],
    "count": [
        "rootsys.positive_roots", "sigsum.count_bruteforce", "sigsum.count_mitm",
        "kernels.count_zero_full", "kernels.key_packing", "kernels.signed_sum_keys",
        "sigsum.join",
    ],
    "lattice": [
        "cli.build_report", "rootsys.positive_roots", "sigsum.obstruction_2L", "sigsum.hnf",
        "certs.certificate", "certs.verify_report",
    ],
    "oracle": ["rootsys.positive_roots", "spinor.invariant_dimension"],
}

# Metric names and units, in the order they are printed.
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class BenchmarkError(Exception):
    """The benchmark cannot run or cannot trust its own measurement."""


# --------------------------------------------------------------------------
# reference answers
# --------------------------------------------------------------------------


def root_count(family: str, n: int) -> int:
    if family == "A":
        return n * (n + 1) // 2
    if family in ("B", "C"):
        return n * n
    if family == "D":
        return n * (n - 1)
    return {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}[f"{family}{n}"]


@dataclass(frozen=True)
class Expected:
    family: str
    rank: int
    r: int
    exists: bool
    count: int | None  # exact count when known
    lower_bound: int | None
    blocks: int | None


def expected(family: str, n: int) -> Expected:
    entry = REFERENCE["systems"].get(f"{family}{n}", {})
    rule = REFERENCE["existence_rules"].get(family)
    exists = n % rule["modulus"] in rule["residues"] if rule else entry["exists"]
    blocks = entry.get("blocks")
    if exists and blocks is None:
        shape = REFERENCE["certificate_blocks"][family]
        blocks = (n + shape["add"]) // shape["div"]
    lower_bound = entry.get("lower_bound", 2 ** blocks if exists else None)
    count = entry.get("count", None if exists else 0)
    return Expected(family, n, root_count(family, n), exists, count, lower_bound, blocks)


def check_report(report: dict, exp: Expected) -> str | None:
    """None when an ``analyze`` report matches the reference, else the mismatch."""
    label = f"{exp.family}{exp.rank}"
    got = (report.get("family"), report.get("rank"), report.get("r"))
    if got != (exp.family, exp.rank, exp.r):
        return f"{label}: family/rank/r {got} != {(exp.family, exp.rank, exp.r)}"
    if report.get("exists") is not exp.exists:
        return f"{label}: exists {report.get('exists')} != {exp.exists}"
    if report.get("obstruction") != ("pass" if exp.exists else "fail"):
        return f"{label}: obstruction {report.get('obstruction')}"
    count = report.get("count")
    if not exp.exists:
        allowed = [{"zero": True}]
    elif exp.r <= REFERENCE["max_r_default"]:
        allowed = [{"exact": exp.count}]
    else:
        allowed = [{"lower_bound": exp.lower_bound}]
        if exp.count is not None:
            allowed.append({"exact": exp.count})
    if count not in allowed:
        return f"{label}: count {count} not in {allowed}"
    cert = report.get("certificate", {})
    if cert.get("available") is not exp.exists:
        return f"{label}: certificate available {cert.get('available')}"
    if exp.exists:
        indices = [item["root_index"] for block in cert.get("blocks", []) for item in block]
        if cert.get("block_count") != exp.blocks or sorted(indices) != list(range(exp.r)):
            return f"{label}: certificate blocks do not partition the {exp.r} roots into {exp.blocks}"
    return None


def check_count(out: dict, exp: Expected, method: str) -> str | None:
    label = f"{exp.family}{exp.rank}"
    want = {"count": {"exact": exp.count}, "method": method, "r": exp.r}
    got = {key: out.get(key) for key in want}
    return None if got == want else f"{label}: {got} != {want}"


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    label: str
    args: tuple[str, ...]
    check: object  # callable(parsed stdout) -> mismatch or None


def _analyze_job(family: str, n: int) -> Job:
    exp = expected(family, n)
    return Job(f"analyze {family}{n}", ("analyze", family, str(n), "--json"),
               lambda out: check_report(out, exp))


def _check_table(out) -> str | None:
    ids = REFERENCE["catalogue"]
    if not isinstance(out, list) or len(out) != len(ids):
        return f"table: expected {len(ids)} reports"
    for report, label in zip(out, ids):
        mismatch = check_report(report, expected(label[0], int(label[1:])))
        if mismatch:
            return f"table: {mismatch}"
    return None


def catalogue_jobs(rng: random.Random) -> list[Job]:
    jobs = [_analyze_job(label[0], int(label[1:])) for label in REFERENCE["catalogue"]]
    jobs.append(Job("table", ("table", "--json"), _check_table))
    return jobs


COUNT_JOBS = [
    # (family, rank, method, extra arguments)
    ("A", 6, "brute", ()),
    ("D", 5, "brute", ()),
    ("F", 4, "brute", ()),
    ("A", 7, "brute", ("--max-r", "28")),
    ("D", 6, "brute", ("--max-r", "30")),
    ("A", 8, "mitm", ()),
    ("E", 6, "mitm", ()),
    ("A", 9, "mitm", ()),
    ("C", 7, "mitm", ("--max-r", "49")),
]
METHOD_NAMES = {"brute": "brute_force", "mitm": "meet_in_middle"}


def count_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for family, n, method, extra in COUNT_JOBS:
        exp = expected(family, n)
        jobs.append(Job(
            f"count {family}{n} {method}",
            ("count", family, str(n), "--method", method, *extra, "--json"),
            lambda out, exp=exp, name=METHOD_NAMES[method]: check_count(out, exp, name),
        ))
    return jobs


# Two rank bands per family inside n = 56..72, so r stays between 1.5k and
# 5k and no counting runs.  The seed draws each rank from a pair of close
# ranks on the same existence path (B never has a zero sum, so it takes the
# obstruction-fail path), so a seed changes the inputs but moves the work of
# a job by only a few per cent.
LATTICE_CHOICES = {
    "A": [(56, 58), (70, 72)],
    "B": [(56, 57), (68, 69)],
    "C": [(59, 60), (67, 68)],
    "D": [(56, 57), (68, 69)],
}


def lattice_jobs(rng: random.Random) -> list[Job]:
    return [
        _analyze_job(family, rng.choice(pair))
        for family, pairs in LATTICE_CHOICES.items()
        for pair in pairs
    ]


ORACLE_IDS = [("G", 2), ("B", 3), ("C", 3), ("A", 4), ("D", 4)]


def oracle_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for family, n in ORACLE_IDS:
        want = {"dimension": expected(family, n).count}
        jobs.append(Job(
            f"oracle {family}{n}",
            ("oracle", family, str(n)),
            lambda out, want=want, label=f"{family}{n}": None if out == want else f"{label}: {out} != {want}",
        ))
    return jobs


@dataclass(frozen=True)
class Workload:
    build: object  # callable(random.Random) -> list[Job]
    pass_s: float


# pass_s is the time of one pass with its set-up samples on a busy 2-core
# Xeon, with room for the host to be a third slower.  A run makes
# round(seconds / pass_s) passes, so every run of a workload has the same
# number of samples and its tail is always the same percentile.  At the
# default 30 s that is 4 passes of catalogue and count, 3 of lattice and 5
# of oracle.  On count, 4 passes put the tail inside A9's samples instead
# of on the slowest one; on oracle, 5 passes put it on the slowest B3 or C3
# sample, below the ten D4 and A4 samples.
WORKLOADS = {
    "catalogue": Workload(catalogue_jobs, 7.5),
    "count": Workload(count_jobs, 7.5),
    "lattice": Workload(lattice_jobs, 10.0),
    "oracle": Workload(oracle_jobs, 6.0),
}


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's sources and no rootspin knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROOTSPIN_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    seconds: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    max_rss_kib: int


def run_child(argv: list[str], env: dict[str, str], timeout: float = JOB_TIMEOUT_S) -> Outcome:
    """Run one process to completion; its own peak RSS comes from ``wait4``.

    ``getrusage(RUSAGE_CHILDREN)`` would give the maximum over every child
    so far, so each job is reaped on its own.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + timeout - time.perf_counter()
                ready = sel.select(remaining) if remaining > 0 else []
                if not ready:
                    proc.kill()
                    break
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Outcome(time.perf_counter() - start, proc.returncode,
                   b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                   usage.ru_maxrss)


def cli_argv(job: Job) -> list[str]:
    return [sys.executable, "-m", "rootspin.cli", *job.args]


def traced_argv(job: Job) -> list[str]:
    return [sys.executable, str(HERE / "trace_child.py"), *job.args]


def judge(job: Job, outcome: Outcome) -> str | None:
    """None when the job answered correctly, else why it failed."""
    if outcome.exit_code != 0:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"{job.label}: exit code {outcome.exit_code} {tail}"
    try:
        return job.check(json.loads(outcome.stdout))
    except json.JSONDecodeError:
        return f"{job.label}: stdout is not JSON"
    except (AttributeError, KeyError, TypeError) as exc:
        return f"{job.label}: unexpected output shape ({exc!r})"


def probe_environment(env: dict[str, str]) -> dict:
    """Versions seen by the children, and where they import rootspin from."""
    code = (
        "import json, platform, importlib.metadata as md, rootspin\n"
        "try:\n    import numba\n    numba_ok = True\n"
        "except ImportError:\n    numba_ok = False\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': md.version('numpy'),"
        " 'click': md.version('click'), 'numba_importable': numba_ok,"
        " 'rootspin_file': rootspin.__file__}))\n"
    )
    outcome = run_child([sys.executable, "-c", code], env)
    if outcome.exit_code != 0:
        raise BenchmarkError("cannot import rootspin from src/: "
                             + outcome.stderr.decode(errors="replace").strip()[-300:])
    info = json.loads(outcome.stdout)
    if not Path(info.pop("rootspin_file")).resolve().is_relative_to(SRC):
        raise BenchmarkError("children import rootspin from outside this checkout's src/")
    digest = hashlib.sha256()
    for path in sorted((SRC / "rootspin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    info["source_sha256"] = digest.hexdigest()[:16]
    info["git_sha"] = _git_sha()
    info["nproc"] = len(os.sched_getaffinity(0))
    info["cpu_model"] = _cpu_model()
    return info


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# --------------------------------------------------------------------------
# end-to-end run
# --------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, job: Job, outcome: Outcome) -> None:
        self.attempted += 1
        mismatch = judge(job, outcome)
        if mismatch:
            self.failures.append(mismatch)


def host_probe() -> float:
    """Time of a fixed pure-Python loop in this process: the host's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


@dataclass
class ProbedRunner:
    """Runs children one at a time, timing the host probe before each.

    A shared host's speed can drift by up to a factor of two over minutes,
    and the probe slows with it.  ``scale`` turns a time measured since the
    probes were last cleared into seconds on a host whose probe takes
    PROBE_REFERENCE_S, from the median of those probes.
    """

    env: dict[str, str]
    probes: list[float] = field(default_factory=list)

    def run(self, argv: list[str]) -> Outcome:
        self.probes.append(host_probe())
        return run_child(argv, self.env)

    def setup_time(self) -> float:
        """Time for a fresh interpreter to import ``rootspin.cli`` and exit."""
        outcome = self.run([sys.executable, "-c", "import rootspin.cli"])
        if outcome.exit_code != 0:
            raise BenchmarkError("import rootspin.cli failed")
        return outcome.seconds

    def scale(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.probes)


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_end_to_end(name: str, seed: int, seconds: int, env: dict[str, str],
                   tally: Tally) -> tuple[dict, list[str]]:
    """Timings of whole passes over the workload, each in a new seeded order.

    Every time sample is scaled to the reference host by the probes of its
    own pass (see ProbedRunner), because the host's speed also drifts
    within a run.  A pass's wall time is the sum of its jobs' times, and
    ``wall_s`` is the median pass.  ``job_p50_s`` and ``job_tail_s`` are
    taken over every job sample, as the median and the tail of one
    distribution.  Set-up is timed SETUP_SAMPLES times, in equal shares
    before the passes, and ``setup_s`` is the median.
    """
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    jobs = workload.build(rng)
    passes = max(1, round(seconds / workload.pass_s))
    setups_per_pass = -(-SETUP_SAMPLES // passes)
    deadline = time.perf_counter() + min(1.15 * seconds, RUN_DEADLINE_S)
    runner = ProbedRunner(env)
    runner.setup_time()  # writes the bytecode cache once, as an installed package has it
    setups, pass_walls, job_times, scales, raw_walls, peak_rss_kib = [], [], [], [], [], 0
    longest = 0.0  # longest pass so far, with its set-up samples
    while len(pass_walls) < passes and time.perf_counter() + longest <= deadline:
        pass_start = time.perf_counter()
        runner.probes.clear()
        pass_setups = [runner.setup_time() for _ in range(setups_per_pass)]
        order = list(range(len(jobs)))
        rng.shuffle(order)
        pass_jobs = []
        for index in order:
            outcome = runner.run(cli_argv(jobs[index]))
            tally.record(jobs[index], outcome)
            pass_jobs.append(outcome.seconds)
            peak_rss_kib = max(peak_rss_kib, outcome.max_rss_kib)
        scale = runner.scale()
        scales.append(scale)
        raw_walls.append(sum(pass_jobs))
        setups += [t * scale for t in pass_setups]
        job_times += [t * scale for t in pass_jobs]
        pass_walls.append(sum(pass_jobs) * scale)
        longest = max(longest, time.perf_counter() - pass_start)
    tail_s, tail_pct = tail(job_times)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_walls),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": tail_s,
        "peak_rss_mib": peak_rss_kib / 1024.0,
    }
    beyond = sum(t > tail_s for t in job_times)
    notes = [
        f"{len(pass_walls)} passes of {len(jobs)} jobs; pass walls unscaled "
        + " ".join(f"{w:.3f}" for w in raw_walls) + " s, scaled by "
        + " ".join(f"{x:.4f}" for x in scales),
        f"job_tail_s is p{tail_pct:.1f} of {len(job_times)} jobs, {beyond} beyond it",
    ]
    return metrics, notes


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------


def split_spans(stderr: bytes) -> dict:
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith(SPAN_MARKER):
            return json.loads(line[len(SPAN_MARKER):])
    raise BenchmarkError("traced child printed no spans")


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)
    peak_span: dict = field(default_factory=dict)  # counters of the largest traced_peak_bytes


def aggregate(spans: list[dict], totals: dict[str, LayerTotals]) -> None:
    """Fold one job's spans into per-layer totals; self time excludes child spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    for span, children in zip(spans, child_time):
        layer = totals.setdefault(span["name"], LayerTotals())
        duration = span["end"] - span["start"]
        layer.calls += 1
        layer.total_s += duration
        layer.self_s += duration - children
        for key, value in span["counters"].items():
            layer.counters[key] = layer.counters.get(key, 0) + value
        peak = span["counters"].get("traced_peak_bytes", 0)
        if peak > layer.peak_span.get("traced_peak_bytes", 0):
            layer.peak_span = span["counters"]


def import_costs(env: dict[str, str]) -> dict[str, float]:
    """Median cumulative import times of numpy, click and rootspin's own modules."""
    samples = {"import.numpy_s": [], "import.click_s": [], "import.rootspin_s": []}
    for _ in range(IMPORTTIME_REPEATS):
        outcome = run_child([sys.executable, "-X", "importtime", "-c", "import rootspin.cli"], env)
        cumulative = {}
        for line in outcome.stderr.decode(errors="replace").splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        try:
            numpy_s, click_s = cumulative["numpy"], cumulative["click"]
            # rootspin.cli's line nests the rootspin package, numpy and click.
            own = cumulative["rootspin.cli"] - numpy_s - click_s
        except KeyError as exc:
            raise BenchmarkError(f"-X importtime did not report {exc}") from exc
        samples["import.numpy_s"].append(numpy_s)
        samples["import.click_s"].append(click_s)
        samples["import.rootspin_s"].append(own)
    return {name: statistics.median(values) for name, values in samples.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict[str, LayerTotals], jobs: int) -> dict[str, float]:
    def get(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    roots, hnf, cert = get("rootsys.positive_roots"), get("sigsum.hnf"), get("certs.certificate")
    brute, keys = get("kernels.count_zero_full"), get("kernels.signed_sum_keys")
    mitm, oracle = get("sigsum.count_mitm"), get("spinor.invariant_dimension")
    signs = brute.counters.get("brute_signs", 0)
    built = keys.counters.get("keys_built", 0)
    terms = oracle.counters.get("rotation_terms", 0)
    peak = mitm.peak_span.get("traced_peak_bytes", 0)
    return {
        "cli.build_report.self_s": get("cli.build_report").self_s,
        "rootsys.positive_roots.s": roots.total_s,
        "rootsys.positive_roots.calls_per_job": roots.calls / jobs,
        "sigsum.obstruction_2L.self_s": get("sigsum.obstruction_2L").self_s,
        "sigsum.hnf.s": hnf.total_s,
        "sigsum.hnf.vectors_in": hnf.counters.get("vectors_in", 0),
        "sigsum.hnf.rank_ratio": _ratio(hnf.counters.get("basis_out", 0),
                                        hnf.counters.get("vectors_in", 0)),
        "certs.certificate.self_s": cert.self_s,
        "certs.verify_report.s": get("certs.verify_report").total_s,
        "certs.certificate.calls_per_job": cert.calls / jobs,
        "kernels.count_zero_full.s": brute.total_s,
        "kernels.brute_signs": signs,
        "kernels.brute_ns_per_sign": _ratio(brute.total_s * 1e9, signs),
        "kernels.key_packing.s": get("kernels.key_packing").total_s,
        "kernels.signed_sum_keys.s": keys.total_s,
        "kernels.keys_built": built,
        "kernels.table_bytes_computed": 8 * built,
        "sigsum.count_mitm.self_s": mitm.self_s,
        "sigsum.join.distinct_keys": mitm.counters.get("join_distinct_keys", 0),
        "sigsum.join.match_ratio": _ratio(mitm.counters.get("join_matched_keys", 0),
                                          mitm.counters.get("join_left_keys", 0)),
        "sigsum.count_mitm.traced_peak_mib": peak / 2**20,
        "sigsum.count_mitm.estimate_over_traced": _ratio(
            mitm.peak_span.get("memory_estimate_bytes", 0), peak),
        "spinor.invariant_dimension.s": oracle.total_s,
        "spinor.rotation_terms": terms,
        "spinor.us_per_term": _ratio(oracle.total_s * 1e6, terms),
    }


def run_traced(name: str, seed: int, env: dict[str, str], tally: Tally) -> tuple[dict, list[str]]:
    """One pass, each job run plain and then traced; per-layer sums are per pass."""
    rng = random.Random(seed)
    jobs = WORKLOADS[name].build(rng)
    rng.shuffle(jobs)
    metrics = import_costs(env)
    totals: dict[str, LayerTotals] = {}
    fired: set[str] = set()
    plain_s = traced_s = 0.0
    for job in jobs:
        plain = run_child(cli_argv(job), env)
        traced = run_child(traced_argv(job), env)
        tally.record(job, plain)
        tally.record(job, traced)
        plain_s += plain.seconds
        traced_s += traced.seconds
        trace = split_spans(traced.stderr)
        aggregate(trace["spans"], totals)
        fired.update(span["name"] for span in trace["spans"])
        fired.update(trace["probes"])
    missing = sorted(set(EXPECTED_SPANS[name]) - fired)
    if missing:
        raise BenchmarkError(f"expected spans did not fire on {name}: {', '.join(missing)}")
    metrics.update(layer_metrics(totals, len(jobs)))
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    notes = [f"{'span':<28}{'calls':>7}{'total_s':>11}{'self_s':>11}"]
    for span_name, layer in sorted(totals.items()):
        notes.append(f"{span_name:<28}{layer.calls:>7}{layer.total_s:>11.4f}{layer.self_s:>11.4f}")
    notes.append(f"plain pass {plain_s:.3f} s, traced pass {traced_s:.3f} s over {len(jobs)} jobs")
    return metrics, notes


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "rootspin" / "cli.py").is_file():
        print(f"perfbench: no rootspin sources at {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = LAYER_UNITS if args.trace else E2E_UNITS
    attempted, failures, metrics = 0, [], {}
    try:
        print("env " + json.dumps(probe_environment(env), sort_keys=True))
        for name in names:
            tally = Tally()
            if args.trace:
                values, notes = run_traced(name, args.seed, env, tally)
            else:
                values, notes = run_end_to_end(name, args.seed, args.seconds, env, tally)
            print(f"== {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
            for note in notes:
                print(f"   {note}")
            for metric, unit in units.items():
                print(f"   {metric:<40} {values[metric]:.6g} {unit}")
            failed = len(tally.failures)
            print(f"   {'failed_ratio':<40} {failed / tally.attempted:.6g}"
                  f" ({failed} of {tally.attempted} jobs)")
            for failure in tally.failures[:20]:
                print(f"   FAILED {failure}")
            attempted += tally.attempted
            failures += tally.failures
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + m: {"value": values[m], "unit": u} for m, u in units.items()})
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
