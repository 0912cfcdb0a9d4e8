"""cyclepow benchmark: one closed-loop client driving the CLI.

Usage (from the repository root):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Each request runs in a fresh ``python -m cyclepow.cli`` process, as a CLI
user would run it, and the next request starts only when the previous one has
exited.  The request list of the workload is run again and again for S
seconds; every output is checked.  With ``--trace 0`` the end-to-end metrics
are reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
REQUEST_TIMEOUT_S = 120
# Time metrics are reported in seconds at a nominal machine speed: the
# measured time scaled by REFERENCE_S over the median duration of the
# reference work run within REFERENCE_WINDOW_S of it.  REFERENCE_S is about
# the median duration of reference.py on the 2-core box the benchmark was
# tuned on, so nominal seconds read close to plain seconds there.
REFERENCE_S = 0.33
REFERENCE_WINDOW_S = 10.0


@dataclass
class Sample:
    """One timed process: the perf_counter time of its midpoint, and its
    duration in seconds."""

    midpoint: float
    seconds: float


@dataclass
class Outcome:
    timing: Sample
    rss_mb: float
    problems: list[str]
    bytes_out: int
    spans: dict | None = None
    values: dict | None = None


@dataclass
class Pass:
    """One pass over the request list."""

    traced: bool
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(outcome.timing.seconds for outcome in self.outcomes)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        # numpy's OpenBLAS pool otherwise spins up threads on import.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


class Client:
    """Runs processes one after another inside a scratch directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.serial = 0
        self.references: list[Sample] = []

    def _path(self, suffix: str) -> Path:
        self.serial += 1
        return self.work / f"{self.serial}{suffix}"

    def spawn(self, argv: list[str]):
        """Run argv to completion: (Sample, peak RSS MB, exit code, stdout,
        stderr).  Time runs from just before the process is created until it
        has been reaped."""
        out_path, err_path = self._path(".out"), self._path(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        err_path.unlink()
        timing = Sample(started + elapsed / 2, elapsed)
        return timing, usage.ru_maxrss / 1024, proc.returncode, stdout, stderr

    def _timed(self, argv: list[str]) -> Sample:
        timing, _, code, _, stderr = self.spawn(argv)
        if code != 0:
            raise RuntimeError(f"{argv[1:]} failed: {stderr.strip()[-300:]}")
        return timing

    def setup(self) -> Sample:
        """A fresh interpreter importing the CLI."""
        return self._timed([sys.executable, "-c", "import cyclepow.cli"])

    def reference(self) -> None:
        """The fixed reference work in a fresh interpreter."""
        self.references.append(self._timed([sys.executable, str(HERE / "reference.py")]))

    def request(self, request: workloads.Request, traced: bool) -> Outcome:
        out_file = self._path(".csv") if "{out}" in request.args else None
        args = [str(out_file) if arg == "{out}" else arg for arg in request.args]
        spans_file = self._path(".spans") if traced else None
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file),
                    "--", *args]
        else:
            argv = [sys.executable, "-m", "cyclepow.cli", *args]
        timing, rss, code, stdout, stderr = self.spawn(argv)
        bytes_out = len(stdout.encode())
        problems, values = [], None
        try:
            if code != 0:
                problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
            elif request.command == "hit":
                problems, values = checks.check_hit(request, stdout)
            elif request.command == "trees":
                problems = checks.check_trees(request, stdout)
            elif request.command == "verify":
                problems = checks.check_verify(stdout)
            elif request.command == "sweep":
                text = out_file.read_text(encoding="utf-8")
                bytes_out += len(text.encode())
                problems = checks.check_sweep(request, text)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        spans = None
        if traced and spans_file.exists():
            spans = json.loads(spans_file.read_text(encoding="utf-8"))
        for path in (out_file, spans_file):
            if path is not None and path.exists():
                path.unlink()
        if problems:
            problems.insert(0, " ".join(request.args))
        return Outcome(timing, rss, problems, bytes_out, spans, values)

    def run_pass(self, requests, traced: bool, reference: bool) -> Pass:
        """Run every request once, each followed by a reference sample when
        `reference` is set; then check each pair of analytic routes on the
        same (n, k, ell) against each other."""
        result = Pass(traced)
        pairs: dict[str, list[Outcome]] = defaultdict(list)
        for request in requests:
            outcome = self.request(request, traced)
            if reference:
                self.reference()
            result.outcomes.append(outcome)
            if request.pair is not None and not outcome.problems:
                pairs[request.pair].append(outcome)
        for pair, members in pairs.items():
            if len(members) == 2:
                problems = checks.check_pair(members[0].values, members[1].values)
                if problems:
                    members[1].problems += [f"pair {pair}", *problems]
        return result


def run_passes(client: Client, requests, deadline: float, trace: bool) -> list[Pass]:
    """Passes until the next one would end after `deadline` (a perf_counter
    time); at least one (untraced, traced) round when tracing."""
    kinds = (False, True) if trace else (False,)
    passes: list[Pass] = []
    while True:
        round_started = time.perf_counter()
        for traced in kinds:
            passes.append(client.run_pass(requests, traced, reference=not trace))
        round_s = time.perf_counter() - round_started
        if time.perf_counter() + round_s > deadline:
            return passes


def nominal_seconds(sample: Sample, references: list[Sample]) -> float:
    """sample.seconds at the nominal machine speed (see REFERENCE_S)."""
    near = [r.seconds for r in references
            if abs(r.midpoint - sample.midpoint) <= REFERENCE_WINDOW_S]
    if not near:
        near = [min(references, key=lambda r: abs(r.midpoint - sample.midpoint)).seconds]
    return sample.seconds * REFERENCE_S / statistics.median(near)


def end_to_end(passes: list[Pass], setup: list[Sample],
               references: list[Sample]) -> tuple[dict, dict]:
    """(metrics, plain seconds).

    The speed of the machine drifts while the benchmark runs, so each timed
    process is scaled by the reference work run around it (nominal_seconds).
    """
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.problems)

    # Each request of the list has its own cost, so latencies are pooled per
    # request first: this keeps the p50 from jumping between request kinds
    # when the number of passes changes.
    def per_request(seconds) -> list[float]:
        return [statistics.median(seconds(o.timing) for o in column)
                for column in zip(*(p.outcomes for p in passes))]

    nominal = per_request(lambda timing: nominal_seconds(timing, references))
    plain = per_request(lambda timing: timing.seconds)
    metrics = {
        "wall_s": (sum(nominal), "s"),
        "request_p50_s": (statistics.median(nominal), "s"),
        "setup_s": (statistics.median(nominal_seconds(s, references) for s in setup), "s"),
        "rss_peak_mb": (max(o.rss_mb for o in outcomes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    seconds = {
        "wall_plain_s": (sum(plain), "s"),
        "request_p50_plain_s": (statistics.median(plain), "s"),
        "setup_plain_s": (statistics.median(s.seconds for s in setup), "s"),
        "reference_plain_s": (statistics.median(r.seconds for r in references), "s"),
    }
    return metrics, seconds


def _ratio(hits_misses: list[int]) -> float:
    hits, misses = hits_misses
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(traced: Pass) -> dict:
    """Per-layer metrics of one traced pass (values in seconds or counts)."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, list] = defaultdict(list)
    caches: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    request_s = 0.0
    for outcome in traced.outcomes:
        trace = outcome.spans
        if trace is None:
            continue
        names = trace["names"]
        spans = [[names[s[0]], *s[1:]] for s in trace["spans"]]
        for span, own in zip(spans, tracing.self_times(spans)):
            self_s[span[0]] += own / 1e9
            calls[span[0]] += 1
            if span[4]:
                attrs[span[0]].append(span[4])
        request_s += sum(s[3] - s[2] for s in spans if s[1] < 0) / 1e9
        for label, counts in trace["caches"].items():
            caches[label][0] += counts[0]
            caches[label][1] += counts[1]

    def layer_sum(table, layer):
        return sum(v for name, v in table.items() if name.split(".", 1)[0] == layer)

    metrics = {}
    for layer in (*tracing.LAYERS, "cli"):
        metrics[f"{layer}.self_s"] = (layer_sum(self_s, layer), "s")
    for layer in ("graphs", "polynomials", "fractionfree", "recurrences", "arboreal"):
        metrics[f"{layer}.calls"] = (layer_sum(calls, layer), "count")
    eliminations = attrs["fractionfree.determinant"] + attrs["fractionfree.solve"]
    metrics["fractionfree.max_dim"] = (max((a["dim"] for a in eliminations), default=0), "count")
    metrics["fractionfree.entry_updates"] = (sum(a["updates"] for a in eliminations),
                                             "count_computed")
    bits = [a["bits"] for name in ("spectral.find_roots", "spectral.partial_fractions")
            for a in attrs[name] if "bits" in a]
    metrics["spectral.factorizations"] = (calls["spectral.partial_fractions"], "count")
    metrics["spectral.factorization_cache_hit_ratio"] = (
        _ratio(caches["spectral.factorization_cache"]), "ratio")
    metrics["spectral.precision_bits_max"] = (max(bits, default=0), "bits")
    simulate_s = self_s["hitting.hit_simulate"]
    walk_count = sum(a["walks"] for a in attrs["hitting.hit_simulate"])
    steps = sum(a["steps"] for a in attrs["hitting.hit_simulate"])
    metrics.update({
        "hitting.tables_self_s": (self_s["hitting.cosine_table"]
                                  + self_s["hitting.laplacian_eigenvalues"], "s"),
        "hitting.spectral_sum_self_s": (self_s["hitting.hit_spectral"], "s"),
        "hitting.closed_self_s": (self_s["hitting.hit_closed"]
                                  + self_s["hitting.hit_closed_literal"], "s"),
        "hitting.simulate_self_s": (simulate_s, "s"),
        "hitting.walks": (walk_count, "count"),
        "hitting.walk_steps": (steps, "count"),
        "hitting.simulate_us_per_walk": (simulate_s / walk_count * 1e6 if walk_count else 0.0, "us"),
        "hitting.simulate_ns_per_step": (simulate_s / steps * 1e9 if steps else 0.0, "ns"),
        "hitting.exact_cache_hit_ratio": (_ratio(caches["hitting.exact_cache"]), "ratio"),
        "hitting.cosine_cache_hit_ratio": (_ratio(caches["hitting.cosine_cache"]), "ratio"),
        "verify.checks": (calls["verify.CheckResult.__init__"], "count"),
        "cli.bytes_out": (sum(o.bytes_out for o in traced.outcomes), "bytes"),
        "trace.request_s": (request_s, "s"),
    })
    return metrics


def per_layer(passes: list[Pass]) -> dict:
    """Median over traced passes of each per-layer metric, plus the tracing
    overhead of traced against untraced passes."""
    tables = [layer_metrics(p) for p in passes if p.traced]
    metrics = {
        name: (statistics.median(t[name][0] for t in tables), unit)
        for name, (_, unit) in tables[0].items()
    }
    plain = statistics.median(p.wall_s for p in passes if not p.traced)
    traced = statistics.median(p.wall_s for p in passes if p.traced)
    metrics["trace.overhead_frac"] = ((traced - plain) / plain, "frac")
    return metrics


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cyclepow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    import mpmath.libmp

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cyclepow" / "cli.py").is_file():
        print(f"cyclepow sources not found under {SRC}", file=sys.stderr)
        return 2
    requests = workloads.build(args.workload, args.seed)
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        client = Client(work)
        client.setup()  # untimed: compiles bytecode once, as an install would
        deadline = time.perf_counter() + args.seconds
        seconds = {}
        if args.trace:
            passes = run_passes(client, requests, deadline, trace=True)
            metrics = per_layer(passes)
        else:
            client.reference()
            setup = []
            for _ in range(SETUP_SAMPLES):
                setup.append(client.setup())
                client.reference()
            passes = run_passes(client, requests, deadline, trace=False)
            metrics, seconds = end_to_end(passes, setup, client.references)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is using it

    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if o.problems]
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"# workload={args.workload} passes={len(passes)} "
          f"requests={len(outcomes)} failed={len(failed)} "
          f"failed_frac={len(failed) / len(outcomes)!r}")
    for outcome in failed[:10]:
        print("# FAILED " + "; ".join(outcome.problems)[:500])
    for name, (value, unit) in {**metrics, **seconds}.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
