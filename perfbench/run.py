"""nevkit benchmark: four workloads, one client in a closed loop.

    python3 perfbench/run.py --workload {product,chain,oracle,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics, measured by wrapping nevkit's layer functions from this
process (see ``layers.py``), plus the tracing overhead.  Item times are
calibrated against a reference computation timed between the items (see
``calib.py``).  The last line of standard output is one JSON object; the
lines above it are a readable report.  See ``perfbench/README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up is timed from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import math  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from calib import Calibrator  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens" / "cli.json"

WORKLOADS = ("product", "chain", "oracle", "cli")
SETUP_SAMPLES = 3          # set-ups per run: this process plus two children
CHILD_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60

E2E = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_ms_p50", "ms"),
       ("item_ms_tail", "ms"), ("peak_rss_mb", "MB"))


class SetupError(Exception):
    """The benchmark cannot run here (missing source, failed child)."""


# -- helpers ----------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv: list, what: str) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(argv, cwd=str(ROOT), env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"{what} timed out") from exc
    if proc.returncode != 0:
        raise SetupError(f"{what} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def _self_argv(args, role: str, **extra) -> list:
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    for key, val in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    return argv


def _require_src():
    if not (SRC / "nevkit" / "__init__.py").is_file():
        raise SetupError(f"no nevkit source under {SRC}")


def _load_nevkit():
    """Import nevkit from this checkout's ``src``, never from elsewhere."""
    _require_src()
    sys.path.insert(0, str(SRC))
    import nevkit
    if Path(nevkit.__file__).resolve().parent != (SRC / "nevkit").resolve():
        raise SetupError(f"imported nevkit from {nevkit.__file__}")


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def _quantile(sorted_x: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass of their slot.
    Unlike a single order statistic it does not jump when the items next to
    the quantile swap places, which they do from run to run."""
    n = len(sorted_x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32                  # midpoint rule inside each slot
    num = den = 0.0
    for i, x in enumerate(sorted_x):
        w = sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
                         - log_norm)
                for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
        num += w * x
        den += w
    return num / den


def _time_metrics(ok_ms: list, timed_s: float, pct: int) -> dict:
    """items_per_s, item_ms_p50 and item_ms_tail of sorted item times."""
    return {"items_per_s": len(ok_ms) / timed_s if timed_s else 0.0,
            "item_ms_p50": _quantile(ok_ms, 0.5) if ok_ms else 0.0,
            "item_ms_tail": _quantile(ok_ms, pct / 100) if ok_ms else 0.0}


def _tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten items beyond it."""
    return max(1, (100 * (n - 10)) // n)


def _stamp() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    loc = {}
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "nevkit").glob("*.py")):
        data = path.read_bytes()
        src_hash.update(path.name.encode() + b"\0" + data)
        loc[path.stem] = data.count(b"\n")

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    blas = {k: os.environ.get(k, "unset") for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"commit": commit, "src_sha256": src_hash.hexdigest(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "sympy": version("sympy"),
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas,
            "src_loc": loc, "src_loc_total": sum(loc.values())}


# -- in-process workloads ---------------------------------------------------

def role_gen(args):
    """Child: write the workload's inputs as JSON."""
    _load_nevkit()
    sys.path.insert(0, str(HERE))
    from workloads import IN_PROCESS
    wl = IN_PROCESS[args.workload]
    data = wl.generate(args.seed, args.seconds)
    Path(args.out).write_text(json.dumps(data))


class InProcess:
    """Set-up and measurement of one in-process workload."""

    def __init__(self, args, work: Path, trace: bool):
        self.args = args
        self.work = work
        self.trace = trace
        self.tracer = None
        self.errors = []
        self.rejected = {}      # generator rejections by exception class
        self.rejected_ns = 0
        self.notes = {}         # outcomes a check tallies without failing

    def setup(self):
        _load_nevkit()
        sys.path.insert(0, str(HERE))
        from workloads import IN_PROCESS, CheckFailed
        self.CheckFailed = CheckFailed
        self.wl = IN_PROCESS[self.args.workload]
        if self.trace:
            from layers import Tracer
            self.tracer = Tracer()
            self.tracer.install()
        out = self.work / "inputs.json"
        _run_child(_self_argv(self.args, "gen", out=out), "input generator")
        data = json.loads(out.read_text())
        self.items, self.warmup = data["items"], data["warmup"]
        self.digest = _digest(data)
        warm_n = 0
        for item in self.warmup:
            if warm_n >= self.wl.warmup_items:
                break
            entry = self._time(item, warm=True)
            if entry is not None:
                problem = self._check(entry, warm=True)
                if problem:
                    raise SetupError(f"warm-up item failed: {problem}")
                warm_n += 1

    def _time(self, item, warm=False):
        """Parse and time one item.  Returns (item, args, result, exc, t0,
        ns), or None for a draw the generator would drop."""
        args = self.wl.prepare(item)
        tracer = None if warm else self.tracer
        if tracer is not None:
            tracer.begin()
        result = exc = None
        t0 = time.perf_counter_ns()
        try:
            result = self.wl.call(args)
        except Exception as e:  # noqa: BLE001 - classified below
            exc = e
        ns = time.perf_counter_ns() - t0
        rejectable = getattr(self.wl, "rejectable", None)
        if exc is not None and rejectable is not None:
            name = type(exc).__name__
            if not warm:
                self.rejected[name] = self.rejected.get(name, 0) + 1
            if isinstance(exc, rejectable):
                if tracer is not None:
                    tracer.end(keep=False)
                if not warm:
                    self.rejected_ns += ns
                return None
        if tracer is not None:
            tracer.end()
        return item, args, result, exc, t0, ns

    def _check(self, entry, warm=False):
        """None when the item's output is right, else the problem."""
        item, args, result, exc, _t0, _ns = entry
        if exc is not None:
            return f"{type(exc).__name__}: {exc}"
        try:
            note = self.wl.check(item, args, result)
        except self.CheckFailed as e:
            return str(e)
        if note and not warm:
            self.notes[note] = self.notes.get(note, 0) + 1
        return None

    def measure(self) -> dict:
        # time every item first and check afterwards, so that the checks'
        # own library calls cannot warm anything for the items after them
        cal = Calibrator(self.wl.calibration)
        entries = []
        for item in self.items:
            entries.append(self._time(item))
            cal.tick()
        entries = [e for e in entries if e is not None]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ok_ms, ok_cal_ms, cal_ns = [], [], 0
        for entry in entries:
            t0, ns = entry[-2:]
            cns = cal.calibrated_ns(t0, ns)
            cal_ns += cns
            problem = self._check(entry)
            if problem is None:
                ok_ms.append(ns / 1e6)
                ok_cal_ms.append(cns / 1e6)
            else:
                self.errors.append(problem)
        return {"ok_ms": ok_ms, "ok_cal_ms": ok_cal_ms, "cal_ns": cal_ns,
                "timed_ns": sum(e[-1] for e in entries),
                "attempted": len(entries),
                "failed": len(entries) - len(ok_ms), "peak_rss_mb": rss,
                "rejected": self.rejected,
                "rejected_ms": self.rejected_ns / 1e6, "notes": self.notes,
                "cal": cal}


# -- cli workload -----------------------------------------------------------

class Cli:
    """Fresh ``python -m nevkit.cli`` processes, one at a time: every
    golden case once per ten seconds of --seconds, in an order the seed
    picks."""

    def __init__(self, args, work: Path, trace: bool):
        self.args = args
        self.work = work
        self.trace = trace
        self.errors = []

    def setup(self):
        _require_src()
        sys.path.insert(0, str(HERE))
        from cli_goldens import compare
        self.compare = compare
        cases = json.loads(GOLDENS.read_text())["cases"]
        rng = random.Random(self.args.seed)
        self.plan = []
        for _ in range(max(1, round(self.args.seconds / 10))):
            order = list(cases)
            rng.shuffle(order)
            self.plan += order
        for case in cases:
            d = self.work / case["id"]
            d.mkdir()
            for name, text in case["files"].items():
                (d / name).write_text(text)
        self.digest = _digest([c["id"] for c in self.plan]
                              + [c["files"] for c in self.plan])
        # each invocation is a fresh process, so warming up only loads the
        # interpreter, the libraries and nevkit into the file cache; the same
        # case in every run, so that every set-up does the same work
        warm = next(c for c in cases if c["kind"] == "factor")
        self._invoke(warm, self.work / warm["id"])

    def _invoke(self, case, cwd: Path, trace_out=None):
        """Run one child.  Returns (exit code, or None when it timed out,
        stdout, stderr, ns, its peak RSS in MB).  The child is reaped with
        ``wait4`` for its own peak RSS, which the reference children of the
        calibration must not enter."""
        if trace_out is None:
            argv = [sys.executable, "-m", "nevkit.cli", *case["argv"]]
        else:
            argv = [sys.executable, "-X", "importtime",
                    str(HERE / "cli_child.py"), str(trace_out), *case["argv"]]
        with open(self.work / "stdout", "w+b") as out, \
                open(self.work / "stderr", "w+b") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(argv, cwd=str(cwd), env=_child_env(),
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            killed = []
            timer = threading.Timer(
                CLI_TIMEOUT_S, lambda: (killed.append(1), proc.kill()))
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            ns = time.perf_counter_ns() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            code = None if killed else proc.returncode
            return (code, out.read().decode(), err.read().decode(), ns,
                    usage.ru_maxrss / 1024)

    def measure(self) -> dict:
        ok_ms, all_ns, rss = [], 0, 0.0
        failed = 0
        self.child_traces = []
        cal = Calibrator("imports")
        done = []
        for i, case in enumerate(self.plan):
            trace_out = None
            if self.trace:
                trace_out = self.work / f"trace-{i}.json"
            t0 = time.perf_counter_ns()
            code, stdout, stderr, ns, child_rss = self._invoke(
                case, self.work / case["id"], trace_out)
            all_ns += ns
            rss = max(rss, child_rss)
            if trace_out is not None and code is not None:
                self.child_traces.append((trace_out, _import_times(stderr)))
            problem = ("timed out" if code is None
                       else self.compare(case, code, stdout))
            if problem:
                failed += 1
                self.errors.append(f"{case['id']}: {problem}")
            else:
                ok_ms.append(ns / 1e6)
            done.append((problem is None, t0, ns))
            cal.tick()
        cal_ns = [cal.calibrated_ns(t0, ns) for _ok, t0, ns in done]
        return {"ok_ms": ok_ms, "timed_ns": all_ns,
                "ok_cal_ms": [c / 1e6 for (ok, _t, _n), c in zip(done, cal_ns)
                              if ok],
                "cal_ns": sum(cal_ns),
                "attempted": len(self.plan), "failed": failed,
                "peak_rss_mb": rss, "rejected": {}, "rejected_ms": 0.0,
                "notes": {}, "cal": cal}


# -- roles ------------------------------------------------------------------

def _workload(args, work: Path, trace: bool):
    cls = Cli if args.workload == "cli" else InProcess
    return cls(args, work, trace)


def role_setup(args, work: Path):
    """Child: do the set-up only and report its duration."""
    wl = _workload(args, work, trace=False)
    wl.setup()
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))


def _setup_samples(args, own: float) -> list:
    """Set-up seconds of this run and of its set-up children."""
    samples = [own]
    for _ in range(args.setup_samples - 1):
        proc = _run_child(_self_argv(args, "setup"), "set-up sample")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def _import_times(stderr: str) -> dict:
    """numpy and sympy cumulative import times and the summed self time of
    nevkit's own modules, in ms, from ``python -X importtime`` output."""
    out = {"numpy": 0.0, "sympy": 0.0, "nevkit": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2].strip()
        if name in ("numpy", "sympy") and not out[name]:
            out[name] = cum_us / 1e3
        elif name == "nevkit" or name.startswith("nevkit."):
            out["nevkit"] += self_us / 1e3
    return out


def _cli_layer_metrics(wl) -> dict:
    from layers import Totals
    totals = Totals()
    imports = {"numpy": [], "sympy": [], "nevkit": [], "main": []}
    for path, times in wl.child_traces:
        d = json.loads(path.read_text())
        totals.merge_dict(d["totals"])
        imports["main"].append(d["main_ms"])
        for key, ms in times.items():
            imports[key].append(ms)
    med = {k: (statistics.median(v) if v else 0.0) for k, v in imports.items()}
    return dict(totals.metrics(), **{
        "import.numpy_ms": med["numpy"], "import.sympy_ms": med["sympy"],
        "import.nevkit_ms": med["nevkit"], "cli.main_ms": med["main"]})


def _premises(vals: dict, timed_ms: float, untraced_p50_ms: float) -> list:
    """The facts each workload was chosen for, as read off a traced run."""
    from layers import LAYERS
    selfs = sorted(((vals[f"{layer}.self_ms"], layer) for layer in LAYERS),
                   reverse=True)
    exact = sum(ms for ms, layer in selfs
                if layer.split(".")[0] in ("poly", "ratfun", "nevfun"))
    imports = sum(vals[f"import.{m}_ms"] for m in ("numpy", "sympy", "nevkit"))
    return [
        "top layers by self time: " + ", ".join(
            f"{layer} {ms:.0f} ms" for ms, layer in selfs[:3]),
        f"poly+ratfun+nevfun self time: {exact:.0f} ms of {timed_ms:.0f} ms "
        f"timed ({100 * exact / timed_ms:.1f}%)" if timed_ms else "",
        f"imports (numpy+sympy+nevkit, median per child): {imports:.0f} ms; "
        f"untraced item_ms_p50 {untraced_p50_ms:.0f} ms",
    ]


def role_main(args, work: Path):
    trace = bool(args.trace)
    wl = _workload(args, work, trace)
    wl.setup()
    own_setup = time.perf_counter() - T_START
    res = wl.measure()
    ok_ms = sorted(res["ok_ms"])
    attempted, failed = res["attempted"], res["failed"]
    errors = wl.errors
    for name in res["rejected"]:
        if name != "ExactSplitUnavailable":
            errors.append(f"generator rejection of class {name}")
    timed_s = res["timed_ns"] / 1e9
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "digest": wl.digest, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted if attempted else 1.0,
              "timed_s": timed_s, "rejected": res["rejected"],
              "rejected_ms": res["rejected_ms"], "notes": res["notes"],
              "errors": errors[:20],
              "stamp": _stamp()}
    cal = res["cal"]
    report.update(ref_samples=len(cal.samples_ns), slowdown=cal.slowdown())
    metrics = {}
    if not trace:
        samples = _setup_samples(args, own_setup)
        pct = _tail_percentile(len(ok_ms))
        report["measured"] = _time_metrics(ok_ms, timed_s, pct)
        # item times at the speed of the runs that defined the benchmark
        # (calib.py); set-up as measured
        values = dict(_time_metrics(sorted(res["ok_cal_ms"]),
                                    res["cal_ns"] / 1e9, pct),
                      setup_s=statistics.median(samples),
                      peak_rss_mb=res["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E}
        report.update(setup_samples_s=samples, tail_percentile=pct,
                      tail_items=len(ok_ms))
    else:
        from layers import CLI_METRICS, metric_names
        if args.workload == "cli":
            layer_vals = _cli_layer_metrics(wl)
        else:
            layer_vals = dict(wl.tracer.totals.metrics(),
                              **dict.fromkeys(CLI_METRICS, 0.0))
        layer_vals["corpus.rejected.ExactSplitUnavailable"] = \
            res["rejected"].get("ExactSplitUnavailable", 0)
        # the same items again without tracing, in a fresh process
        untraced = work / "untraced.json"
        _run_child(_self_argv(args, "main", trace=0, setup_samples=1,
                              report=untraced), "untraced run")
        base_report = json.loads(untraced.read_text())
        base = base_report["timed_s"]
        layer_vals["trace.timed_ms"] = timed_s * 1e3
        layer_vals["trace.untraced_ms"] = base * 1e3
        layer_vals["trace.overhead_ms"] = (timed_s - base) * 1e3
        metrics = {name: {"value": layer_vals[name], "unit": unit}
                   for name, unit, _better in metric_names()}
        report["premises"] = _premises(
            layer_vals, timed_s * 1e3,
            base_report["result"]["metrics"]["item_ms_p50"]["value"])
    correct = failed == 0 and not errors and attempted > 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report["result"] = result
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1))
    _print_report(report)
    print(json.dumps(result))
    return 0 if correct else 1


def _print_report(rep: dict):
    out = sys.stdout
    out.write(f"perfbench {rep['workload']} seed={rep['seed']} "
              f"seconds={rep['seconds']} trace={rep['trace']}\n")
    for name, m in rep["result"]["metrics"].items():
        out.write(f"  {name:42s} {m['value']:14.4f} {m['unit']}\n")
    out.write(f"  machine slowdown {rep['slowdown']:.3f} (median of "
              f"{rep['ref_samples']} reference samples)\n")
    for name, val in rep.get("measured", {}).items():
        out.write(f"  {name + ' as measured':42s} {val:14.4f}\n")
    if "tail_percentile" in rep:
        out.write(f"  item_ms_tail is p{rep['tail_percentile']} of "
                  f"{rep['tail_items']} items\n")
        out.write("  set-up samples (s): " + ", ".join(
            f"{s:.3f}" for s in rep["setup_samples_s"]) + "\n")
    out.write(f"  failed_frac {rep['failed_frac']:.4f} "
              f"({rep['failed']}/{rep['attempted']})\n")
    out.write(f"  timed wall {rep['timed_s']:.3f} s; inputs {rep['digest']}\n")
    if rep["rejected"]:
        out.write(f"  generator rejections {rep['rejected']} "
                  f"({rep['rejected_ms']:.0f} ms, untimed)\n")
    for note, n in rep["notes"].items():
        out.write(f"  {note}: {n} (not counted as failed)\n")
    for line in rep.get("premises", []):
        out.write(f"  {line}\n")
    for e in rep["errors"]:
        out.write(f"  ERROR {e}\n")
    s = rep["stamp"]
    out.write(f"  commit {s['commit']} src {s['src_sha256'][:16]} "
              f"python {s['python']} numpy {s['numpy']} sympy {s['sympy']} "
              f"nproc {s['nproc']} blas {s['blas_threads']} "
              f"src_loc {s['src_loc_total']} {s['src_loc']}\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", default=None,
                   help="also write the full report as JSON to this file")
    # internal: child processes of a run
    p.add_argument("--role", choices=("main", "setup", "gen"),
                   default="main", help=argparse.SUPPRESS)
    p.add_argument("--out", default=None, help=argparse.SUPPRESS)
    p.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.role == "gen":
            role_gen(args)
            return 0
        base = ROOT / ".perfbench-work"
        base.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=base))
        try:
            if args.role == "setup":
                role_setup(args, work)
                return 0
            return role_main(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                base.rmdir()
            except OSError:
                pass
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
