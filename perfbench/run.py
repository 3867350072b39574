"""locodec benchmark: four workloads run against the package from outside.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload ladder_train --seed 1 --seconds 15 --trace 0

The set-up (synthetic fleets, session and config files, and for
online_decode the source model) runs several times and reports its median.
The timed phase then runs in whole rounds, each in a fresh interpreter,
until ``--seconds`` have passed. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` rounds alternate untraced and traced, and the object holds the
per-layer metrics derived from the traced rounds' spans plus the tracing
overhead. Every round checks the program's outputs. A run record,
``BENCH_<label>.json``, goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread per process, so worker processes x BLAS threads stay
# within the processor count. Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
# Set-up repeats: at least SETUP_MIN, more while they took under
# SETUP_BUDGET_S in total, at most SETUP_MAX. A set-up of a tenth of a
# second needs more repeats for a steady median than one of seconds.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 15, 3.0
ROUND_TIMEOUT_S = 170
JOBS = 2  # --jobs for transfer_finetune, capped at the processor count

# timings.csv label prefixes behind each protocols.* metric.
TIMINGS_KINDS = {
    "unit": ("single", "band", "offset", "offset_speed", "region"),
    "source_train": ("train",),
    "pair": ("pair",),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_package(root: Path):
    """Import locodec from the checkout's ``src/``, never from elsewhere."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import locodec

    if Path(locodec.__file__).resolve().parent != (src / "locodec").resolve():
        raise ImportError(f"locodec imported from {locodec.__file__}, not {src}")


# ---------------------------------------------------------------------------
# one round, in its own interpreter


def round_main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    import_package(root)
    from workloads import WORKLOADS
    import tracing

    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["traced"]:
        tracer = tracing.Tracer()
        tracer.install()
    out = Path(spec["round_dir"])
    out.mkdir(parents=True)

    t0 = time.perf_counter()
    check = workload.timed(spec["setup"], out, spec["seed"], spec["jobs"])
    wall = time.perf_counter() - t0
    spans = tracer.spans[:] if tracer is not None else []  # the timed phase only
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    res = check()
    result = {
        "wall_s": wall,
        "peak_rss_mb": usage / 1024.0,
        "checks": res.checks,
        "median_r": res.median_r,
        "train_work": res.train_work,
        "latencies_s": res.readout.latencies_s,
        "gc_gen2": res.readout.gc_gen2,
        "timings": {k: timings_total(res.timings, v) for k, v in TIMINGS_KINDS.items()},
    }
    if tracer is not None:
        Path(spec["spans"]).write_text(json.dumps(spans))
        result["spans_path"] = spec["spans"]
        result["span_names"] = sorted({s[0] for s in spans})
        result["layers"] = tracing.layer_metrics(spans, tracer.nodes_per_batch)
        if spec["workload"] == "online_decode":
            result["layers"]["decoders.predict_peak_mb"] = workload.predict_peak_mb(spec["setup"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def timings_total(paths, kinds) -> float:
    """Seconds a run's own timings.csv files give to units of these kinds."""
    total = 0.0
    for path in paths:
        for line in Path(path).read_text().splitlines()[1:]:
            label, secs = line.rsplit(",", 1)
            if label.split(":", 1)[0] in kinds:
                total += float(secs)
    return total


# ---------------------------------------------------------------------------
# the run


class SetUps:
    """Repeated set-ups of one workload: their outputs, their times and,
    when traced, their fleet-synthesis times."""

    def __init__(self, workload, work: Path, seed: int, tracer):
        self.workload, self.work, self.seed, self.tracer = workload, work, seed, tracer
        self.infos, self.times, self.fleet_s = [], [], []

    def wanted(self) -> bool:
        n = len(self.times)
        return n < SETUP_MIN or (n < SETUP_MAX and sum(self.times) < SETUP_BUDGET_S)

    def run(self) -> None:
        import tracing

        d = self.work / f"setup{len(self.times)}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        self.infos.append(self.workload.setup(d, self.seed))
        self.times.append(time.perf_counter() - t0)
        if self.tracer is not None:
            self.fleet_s.append(tracing.self_times(self.tracer.spans).get("synthetic.fleet", 0.0))
            self.tracer.spans.clear()


def run_round(root: Path, work: Path, name: str, seed: int, setup: dict, jobs: int, k: int, traced: bool) -> dict:
    spec = {
        "root": str(root),
        "workload": name,
        "seed": seed,
        "setup": setup,
        "jobs": jobs,
        "traced": traced,
        "round_dir": str(work / f"round{k}"),
        "result": str(work / f"round{k}.json"),
        "spans": str(work / f"round{k}.spans.json"),
    }
    spec_path = work / f"round{k}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--round", str(spec_path)],
        cwd=root, env=env, stdout=sys.stderr, timeout=ROUND_TIMEOUT_S, check=True,
    )
    shutil.rmtree(spec["round_dir"])
    return json.loads(Path(spec["result"]).read_text())


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a sample."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q * len(s))) - 1))]


def end_to_end(rounds: list[dict], setup_times: list[float]) -> dict:
    """Medians over the untraced rounds."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "median_r": (rounds[0]["median_r"], "r"),
    }


def train_rate(rounds: list[dict], setups: list[dict]) -> float:
    """Training windows x epochs per second, median over the untraced
    rounds. A workload that trains only in its set-up gives the rate of its
    set-ups."""
    if rounds[0]["train_work"]:
        return statistics.median(r["train_work"] / r["wall_s"] for r in rounds)
    return statistics.median(s["train_samples_per_s"] for s in setups)


def per_layer(plain: list[dict], traced: list[dict], fleet_s: float) -> dict:
    """Medians over the traced rounds, plus the tracing overhead: traced
    minus untraced median wall time."""
    import tracing

    values = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    values["synthetic.fleet_s"] = [fleet_s]
    values["runtime.gc_gen2_collections"] = [r["gc_gen2"] for r in traced]
    for kind in TIMINGS_KINDS:
        values[f"protocols.{kind}_s"] = [r["timings"][kind] for r in traced]
    values.setdefault("decoders.predict_peak_mb", [0.0])
    out = {name: (statistics.median(v), tracing.unit_of(name)) for name, v in values.items()}
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def blas_version():
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def git_sha(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="run record name: BENCH_<label>.json")
    parser.add_argument("--round", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.round:
        return round_main(args.round)

    root = Path.cwd()
    if not (root / "src" / "locodec" / "__init__.py").is_file():
        print(f"error: {root} holds no locodec source tree (src/locodec); run from a checkout root", file=sys.stderr)
        return 2
    import_package(root)
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy
    import tracing
    from workloads import KNOWN_FAULTS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    jobs = min(JOBS, nproc()) if args.workload == "transfer_finetune" else 1
    label = args.label or f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / OUT_DIR / f"{label}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        setups = SetUps(workload, work, args.seed, tracer)
        setups.run()
        setup = setups.infos[0]

        # Whole rounds only: another round starts while one more of the
        # last round's length still fits in --seconds of round time. The
        # further set-ups run between rounds and after the last one, so that
        # setup_s samples the whole run rather than one moment of it.
        rounds: list[dict] = []
        round_s = 0.0
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            rounds.append(run_round(root, work, args.workload, args.seed, setup, jobs, len(rounds), traced))
            rounds[-1]["traced"] = traced
            last = time.perf_counter() - t0
            round_s += last
            if round_s + last > args.seconds and (not args.trace or len(rounds) >= 2):
                break
            if setups.wanted():
                setups.run()
        while setups.wanted():
            setups.run()

        checks = [c for r in rounds for c in r["checks"]]
        failed = [c for c in checks if not c[1]]
        unexpected = [c for c in failed if c[0] not in KNOWN_FAULTS]
        plain = [r for r in rounds if not r["traced"]]
        traced_rounds = [r for r in rounds if r["traced"]]
        reproducible = len({r["median_r"] for r in rounds}) == 1
        missing = sorted(
            {n for r in traced_rounds for n in workload.spans - set(r["span_names"])}
        )
        for name, _, detail in unexpected:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        if not reproducible:
            print("check failed: rounds of one seed gave different quality figures", file=sys.stderr)
        if missing:
            print(f"check failed: spans never recorded: {', '.join(missing)}", file=sys.stderr)
        correct = not unexpected and reproducible and not missing

        if args.trace:
            metrics = per_layer(plain, traced_rounds, statistics.median(setups.fleet_s))
        else:
            metrics = end_to_end(plain, setups.times)
        record = {
            "label": label,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": git_sha(root),
            "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": blas_version(),
            "blas_threads": BLAS_THREADS,
            "jobs": jobs,
            "setup_s": setups.times,
            "attempted": len(checks),
            "failed": len(failed),
            "failed_checks": sorted({c[0] for c in failed}),
            "correct": correct,
            "rounds": [
                {k: r[k] for k in ("traced", "wall_s", "peak_rss_mb", "median_r", "gc_gen2")} for r in rounds
            ],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        if plain:
            # Recorded, not gated: README.md gives the spreads that kept
            # these out of BENCHMARK.json.
            record["train_samples_per_s"] = train_rate(plain, setups.infos)
        lat_ms = [x * 1000.0 for r in plain for x in r["latencies_s"]]
        if lat_ms:
            record["decode_p50_ms"] = statistics.median(lat_ms)
            record["decode_p99_ms"] = quantile(lat_ms, 0.99)
            record["decode_windows_per_s"] = len(lat_ms) / (sum(lat_ms) / 1000.0)
            record["decode_readouts"] = len(lat_ms)
        if traced_rounds:
            spans = root / OUT_DIR / f"spans_{label}.json"
            shutil.copyfile(traced_rounds[-1]["spans_path"], spans)
            record["spans"] = str(spans.relative_to(root))
        (root / OUT_DIR / f"BENCH_{label}.json").write_text(json.dumps(record, indent=2) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
