"""Release-then-serve benchmark: fit a release, publish it, serve it.

    python3 perfbench/run.py --workload kanon-tight --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One run drives the program through its
public API from outside:

1. repeated ``Anonymizer.fit`` calls on a seeded 20 000-row table (the
   median fit is ``fit_s``), each release checked by ``checks.py``;
2. ``ModelRegistry.publish`` of the fitted model, then the stock
   ``repro serve`` (CLI defaults, one worker) started until it answers —
   repeated, with the median feeding ``setup_s``;
3. rounds of serving: a pipelined stream of 1 000-row ``/v1/transform``
   requests over one keep-alive connection per CPU (``serve_rows_per_s``,
   median over rounds), then requests sent one at a time on one connection
   (``serve_p50_ms``, median over every such request of the run).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import server  # noqa: E402
import tracing  # noqa: E402
import workload as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
#: Untimed repetitions of publish + server start; their median is set-up.
SETUP_ROUNDS = 3
#: Requests per connection in one round's pipelined stream.
STREAM_REQUESTS_PER_CONNECTION = 40
#: Requests sent one at a time in one round.
LATENCY_REQUESTS = 25
#: Requests of the untimed warm-up stream before the first round.
WARMUP_REQUESTS = 16
#: Checked sample: every Nth stream response and every Mth one-at-a-time
#: response, and in each of those every ROW_STRIDE-th row.
CHECK_EVERY_STREAM = 16
CHECK_EVERY_LATENCY = 8
ROW_STRIDE = 20
#: Percentiles considered for the reported tail.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values):
    return float(statistics.median(values))


def calibrate() -> float:
    """Milliseconds for a fixed pure-numpy kernel (median of 5): host speed.

    Nearest-of-2000 squared distances for 500 points, then a 200 000-value
    sort — the same two kinds of work as serving and clustering, with
    nothing from the program under test.
    """
    rng = np.random.default_rng(0)
    points, reps = rng.standard_normal((500, 4)), rng.standard_normal((2000, 4))
    values = rng.standard_normal(200_000)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for block in np.split(points, 10):
            ((block[:, None, :] - reps[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        np.sort(values)
        times.append(time.perf_counter() - start)
    return median(times) * 1e3


def tail(latencies_ms):
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ms)
    best = None
    for p in TAIL_PERCENTILES:
        beyond = len(ordered) - int(len(ordered) * p / 100.0)
        if beyond >= 10:
            index = min(len(ordered) - 1, int(len(ordered) * p / 100.0))
            best = (p, ordered[index], beyond)
    return best


class Run:
    """State and phases of one benchmark run.

    An operation is one fit, one server start or stop, or one request.  One
    that raises or answers with a non-200 status counts as failed and the
    run goes on without it; one whose output breaks a check counts as failed
    and also makes the run incorrect.  Metrics that no operation measured
    are left out of the result.
    """

    def __init__(self, args, root: Path, run_dir: Path, tmp: Path):
        self.args = args
        self.workload = wl.WORKLOADS[args.workload]
        self.root = root
        self.run_dir = run_dir
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.problems: list[str] = []

    def fail(self, count: int, message: str, *, wrong: bool = False) -> None:
        self.failed += count
        self.wrong |= wrong
        self.problems.append(message)

    # -- phases ---------------------------------------------------------------

    def execute(self) -> dict:
        from repro import Anonymizer  # noqa: F401  (imported here, so set-up counts it)
        from repro.serving.registry import ModelRegistry

        import_s = time.perf_counter() - PROCESS_START
        # The native kernel's one-time compile is cached in the run's temp
        # dir; warm it here, outside set-up, so only the first run pays.
        from repro.backend import _native

        _native.load()
        print(f"host calibration: {calibrate():.2f} ms (fixed numpy kernel, median of 5)")

        tracer = None
        if self.args.trace:
            tracer = tracing.Tracer("perfbench run.py")
        phase_start = time.perf_counter()
        model, fits, qi = self.fit_phase(tracer)
        fit_phase_s = time.perf_counter() - phase_start
        untraced = [f for f in fits if not f["traced"]]
        metrics = {}
        if untraced:
            metrics["fit_s"] = (median([f["seconds"] for f in untraced]), "s")
            metrics["release_sse"] = (median([f["sse"] for f in untraced]), "ratio")
            metrics["fit_peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            )
        if model is None:
            return metrics if tracer is None else {}

        # Set-up, repeated: the table and the first request bytes, publishing
        # the fitted model into a fresh registry, and starting the stock
        # server until it answers.  Every repetition builds the same inputs.
        phase_start = time.perf_counter()
        setup_rounds = []
        servers = []
        traced_out = self.run_dir / "serve-trace.json"
        serving = scrape = None
        try:
            for i in range(SETUP_ROUNDS):
                start = time.perf_counter()
                wl.fitted_table(self.args.seed, max(0, len(untraced) - 1))
                source = wl.RequestSource(self.args.seed, self.workload.hot)
                warmup = source.take(WARMUP_REQUESTS)
                first_round = self.take_round(source)
                registry = self.run_dir / f"registry-{i}"
                srv = self.start_server(
                    lambda: ModelRegistry(registry).publish(wl.MODEL_NAME, model),
                    registry,
                    f"serve-{i}.log",
                )
                if srv is None:
                    continue
                setup_rounds.append(time.perf_counter() - start)
                servers.append(srv)
                if len(servers) > 1:
                    self.check_exit(servers.pop(0))
            if setup_rounds:
                metrics["setup_s"] = (import_s + median(setup_rounds), "s")
            if servers and tracer is not None:
                traced = self.start_server(
                    None, registry, "serve-traced.log", (HERE / "serve_launcher.py", traced_out)
                )
                if traced is not None:
                    servers.append(traced)
            setup_phase_s = time.perf_counter() - phase_start
            phase_start = time.perf_counter()
            if servers:
                serving = self.serve_phase(servers, source, warmup, first_round)
                try:
                    metrics["server_peak_rss_mb"] = (servers[0].peak_rss_mb(), "MB")
                    if tracer is not None:
                        self.attempted += 1
                        scrape = server.get(servers[-1].port, "/metrics")[1]
                except (OSError, RuntimeError, ValueError) as exc:
                    self.fail(1, f"reading the server's figures: {exc!r}")
        finally:
            for srv in servers:
                self.check_exit(srv)
        serve_phase_s = time.perf_counter() - phase_start
        print(
            f"phases: fits {fit_phase_s:.1f} s, set-up {setup_phase_s:.1f} s, "
            f"serving {serve_phase_s:.1f} s",
            file=sys.stderr,
        )
        if serving is None:
            return metrics if tracer is None else {}

        self.check_served(qi, model, serving["samples"])

        if tracer is None:
            if serving["rows_per_s"][0]:
                metrics["serve_rows_per_s"] = (median(serving["rows_per_s"][0]), "rows/s")
            latencies_ms = [x * 1e3 for x in serving["latencies"][0]]
            if latencies_ms:
                metrics["serve_p50_ms"] = (median(latencies_ms), "ms")
            found = tail(latencies_ms)
            if found is not None:
                p, value, beyond = found
                print(
                    f"serve tail: p{p:g} = {value:.3f} ms over {len(latencies_ms)} "
                    f"one-at-a-time requests ({beyond} beyond it)"
                )
            order = ("setup_s", "fit_s", "release_sse", "serve_rows_per_s", "serve_p50_ms",
                     "fit_peak_rss_mb", "server_peak_rss_mb")
            return {name: metrics[name] for name in order if name in metrics}
        if scrape is None or len(servers) < 2 or not serving["rows_per_s"][1] or not traced_out.is_file():
            return {}
        server_dump = json.loads(traced_out.read_text())
        return self.layer_metrics(fits, serving, scrape, tracer, server_dump)

    def start_server(self, publish, registry, log_name, launcher=None):
        """One operation: publish (if given) and start a server until it answers."""
        self.attempted += 1
        srv = None
        try:
            if publish is not None:
                publish()
            env = server.child_env(self.root, self.tmp)
            srv = server.ServerProcess(registry, self.root, env, self.run_dir / log_name, launcher)
            srv.wait_ready()
            return srv
        except Exception as exc:  # any fault of the program is a failed start
            self.fail(1, f"starting repro serve ({log_name}): {exc!r}")
            if srv is not None:
                srv.stop()
            return None

    def take_round(self, source):
        connections = len(os.sched_getaffinity(0))
        stream = source.take(STREAM_REQUESTS_PER_CONNECTION * connections)
        return {
            "streams": [stream[i::connections] for i in range(connections)],
            "single": source.take(LATENCY_REQUESTS),
        }

    def fit_phase(self, tracer):
        """A fixed number of fits, each on its own seeded table.

        The count follows from ``--seconds`` alone (``Workload.fit_count``).
        A traced run fits each table twice, untraced then traced.
        Returns the last fitted model (``None`` when every fit failed), the
        fits, and the last fitted table's quasi-identifiers.
        """
        from repro import Anonymizer

        count = self.workload.fit_count(self.args.seconds)
        if tracer is not None:
            count = 2 * max(2, (count + 1) // 2)
        fits, model, model_qi = [], None, None
        for i in range(count):
            traced = tracer is not None and i % 2 == 1
            index = i // 2 if tracer is not None else i
            qi, conf = wl.fitted_table(self.args.seed, index)
            data = wl.to_microdata(qi, conf)
            kwargs = {}
            if self.workload.checkpoint:
                kwargs["checkpoint"] = self.run_dir / f"checkpoint-{i}"
            if traced:
                tracing.install_fit_layers(tracer)
            self.attempted += 1
            start = time.perf_counter()
            try:
                fitted = Anonymizer(f"k={wl.K},t={wl.T}", method=self.workload.method).fit(
                    data, **kwargs
                )
                seconds = time.perf_counter() - start
                release = fitted.release_
                released_qi = np.column_stack([release.values(n) for n in wl.QI_NAMES])
                released_conf = release.values(wl.CONFIDENTIAL)
            except Exception as exc:  # any fault of the program is a failed fit
                self.fail(1, f"fit {i}: {exc!r}")
                continue
            finally:
                if traced:
                    tracer.uninstall()
                if "checkpoint" in kwargs:
                    shutil.rmtree(kwargs["checkpoint"], ignore_errors=True)
            fit = {"index": index, "seconds": seconds, "traced": traced, "report": fitted.report_}
            partner = next((f for f in fits if f["index"] == index), None) if traced else None
            if partner is not None:
                fit["sse"] = partner["sse"]
                if not np.array_equal(released_qi, partner["released"]):
                    self.fail(1, f"fit {i}: traced fit released a different table", wrong=True)
                    continue
            else:
                try:
                    fit["sse"] = checks.check_release(
                        qi, conf, released_qi, released_conf, k=wl.K, t=wl.T
                    )
                except checks.CheckFailed as exc:
                    self.fail(1, f"fit {i}: {exc}", wrong=True)
                    continue
                fit["released"] = released_qi if tracer is not None else None
            fits.append(fit)
            model, model_qi = fitted, qi
        if tracer is not None:
            traced_s = [f["seconds"] for f in fits if f["traced"]]
            plain_s = [f["seconds"] for f in fits if not f["traced"]]
            self.fit_overhead = median(traced_s) / median(plain_s) - 1.0 if traced_s and plain_s else None
        return model, fits, model_qi

    def serve_phase(self, servers, source, warmup, first_round):
        """A fixed number of rounds of pipelined streaming and one-at-a-time requests.

        The count follows from ``--seconds`` alone (``Workload.round_count``);
        a traced run alternates its rounds between the stock and the
        traced server, at least two rounds each.
        """
        rounds = self.workload.round_count(self.args.seconds)
        if len(servers) > 1:
            rounds = len(servers) * max(2, -(-rounds // len(servers)))
        for srv in servers:
            self.requests(lambda: server.one_at_a_time(srv.port, [r.wire for r in warmup]), warmup, "warm-up")
        rows_per_s = [[] for _ in servers]
        latencies = [[] for _ in servers]
        samples = []
        current = first_round
        for n in range(rounds):
            if n:
                current = self.take_round(source)
            target = n % len(servers)
            port = servers[target].port
            streams = current["streams"]
            flat = [r for s in streams for r in s]
            got = self.requests(
                lambda: server.pipelined_stream(port, [[r.wire for r in s] for s in streams]),
                flat,
                f"round {n} stream",
            )
            if got is not None:
                elapsed, statuses, bodies = got
                if all(s == 200 for per in statuses for s in per):
                    rows_per_s[target].append(sum(len(r.confidential) for r in flat) / elapsed)
                for stream, stream_statuses, stream_bodies in zip(streams, statuses, bodies):
                    for i in range(0, len(stream_bodies), CHECK_EVERY_STREAM):
                        if stream_statuses[i] == 200:
                            samples.append((stream[i], stream_bodies[i]))
            got = self.requests(
                lambda: server.one_at_a_time(port, [r.wire for r in current["single"]]),
                current["single"],
                f"round {n} one-at-a-time",
            )
            if got is not None:
                lat, statuses, bodies = got
                latencies[target].extend(t for t, s in zip(lat, statuses) if s == 200)
                for i in range(0, len(bodies), CHECK_EVERY_LATENCY):
                    if statuses[i] == 200:
                        samples.append((current["single"][i], bodies[i]))
        overhead = None
        if len(servers) > 1 and rows_per_s[0] and rows_per_s[1]:
            overhead = median(rows_per_s[0]) / median(rows_per_s[1]) - 1.0
        return {
            "rows_per_s": rows_per_s,
            "latencies": latencies,
            "samples": samples,
            "serve_overhead": overhead,
        }

    def requests(self, send, batch, where: str):
        """Send one batch of requests; count them, and count the failed ones.

        Returns what ``send`` returned, or ``None`` when it raised, in which
        case every request of the batch counts as failed.
        """
        self.attempted += len(batch)
        try:
            got = send()
        except (OSError, ValueError) as exc:  # connection faults, unframeable answers
            self.fail(len(batch), f"{where}: {len(batch)} requests lost: {exc!r}")
            return None
        statuses = got[1]
        if statuses and isinstance(statuses[0], list):
            statuses = [s for per in statuses for s in per]
        bad = sum(1 for s in statuses if s != 200)
        if bad:
            self.fail(bad, f"{where}: {bad} responses with a non-200 status")
        return got

    def check_exit(self, srv) -> None:
        """Stop a server; a drain that does not exit 0 fails the run."""
        self.attempted += 1
        code = srv.stop()
        if code != 0:
            self.fail(1, f"repro serve exited with code {code} after SIGTERM")

    def check_served(self, qi, model, samples) -> None:
        """Brute-force checks on the sampled responses (outside timing)."""
        release = model.release_
        released_qi = np.column_stack([release.values(n) for n in wl.QI_NAMES])
        checker = checks.ServedRowChecker(qi, released_qi)
        all_keys, all_returned = [], []
        for request, body in samples:
            try:
                payload = json.loads(body)
                records = payload["records"]
                returned = np.column_stack([records[n] for n in wl.QI_NAMES])
                returned_conf = np.asarray(records[wl.CONFIDENTIAL], dtype=np.float64)
            except (ValueError, KeyError) as exc:
                self.fail(1, f"unreadable response: {exc}", wrong=True)
                continue
            if payload.get("n_records") != len(request.confidential) or len(returned) != len(
                request.confidential
            ):
                self.fail(1, "response row count differs from the request", wrong=True)
                continue
            rows = slice(0, None, ROW_STRIDE)
            bad = checker.bad_rows(
                request.qi[rows], returned[rows], request.confidential[rows], returned_conf[rows]
            )
            if len(bad):
                self.fail(1, f"{len(bad)} sampled rows not served their nearest class", wrong=True)
            if request.keys is not None:
                all_keys.append(request.keys)
                all_returned.append(returned)
        if all_keys:
            mismatched = checks.inconsistent_duplicates(
                np.concatenate(all_keys), np.concatenate(all_returned)
            )
            if mismatched:
                self.fail(1, f"{mismatched} repeated rows got a different answer", wrong=True)

    # -- traced run -----------------------------------------------------------

    def layer_metrics(self, fits, serving, scrape, tracer, server_dump) -> dict:
        traced = [f for f in fits if f["traced"]]
        n_fits = len(traced)
        if not n_fits:
            return {}

        def fit_mean(get):
            return sum(get(f["report"]) for f in traced) / n_fits

        fit_totals = tracer.layer_totals()
        serve_totals = server_dump["totals"]

        def layer(totals, prefix, field):
            return sum(v[field] for k, v in totals.items() if k.startswith(prefix))

        transform = scrape["requests"].get("transform", {})
        n_req = max(1, int(transform.get("count", 0)))
        batches = scrape["batches"]
        metrics = {
            "core.cluster_s": (fit_mean(lambda r: r.timings["cluster"]), "s/fit"),
            "core.aggregate_s": (fit_mean(lambda r: r.timings["aggregate"]), "s/fit"),
            "core.repair_s": (fit_mean(lambda r: r.timings["repair"]), "s/fit"),
            "core.verify_s": (fit_mean(lambda r: r.timings["verify"]), "s/fit"),
            "core.swaps": (fit_mean(lambda r: r.details.get("n_swaps", 0)), "count/fit"),
            "core.merges": (fit_mean(lambda r: r.details.get("n_merges", 0)), "count/fit"),
            "distance.emd_calls": (layer(fit_totals, "distance:", "calls") / n_fits, "count/fit"),
            "distance.emd_s": (layer(fit_totals, "distance:", "self_s") / n_fits, "s/fit"),
            "microagg.engine_calls": (layer(fit_totals, "microagg:", "calls") / n_fits, "count/fit"),
            "microagg.engine_s": (layer(fit_totals, "microagg:", "self_s") / n_fits, "s/fit"),
            "backend.distance_rows": (
                layer(fit_totals, "backend:ComputeBackend.eval_sq_distances", "rows") / n_fits,
                "rows/fit",
            ),
            "backend.distance_s": (
                layer(fit_totals, "backend:ComputeBackend.eval_sq_distances", "self_s") / n_fits,
                "s/fit",
            ),
            "backend.assign_rows": (
                layer(serve_totals, "backend:ComputeBackend.assign_nearest", "rows") / n_req,
                "rows/req",
            ),
            "backend.assign_s": (
                layer(serve_totals, "backend:ComputeBackend.assign_nearest", "self_s") / n_req,
                "s/req",
            ),
            "runtime.snapshots": (layer(fit_totals, "runtime:", "calls") / n_fits, "count/fit"),
            "runtime.snapshot_bytes": (layer(fit_totals, "runtime:", "rows") / n_fits, "bytes/fit"),
            "runtime.snapshot_s": (layer(fit_totals, "runtime:", "self_s") / n_fits, "s/fit"),
            "serving.parse_s": (
                layer(serve_totals, "serving:repro.serving.http.read_request", "self_s") / n_req,
                "s/req",
            ),
            "serving.decode_s": (layer(serve_totals, "serving:Request.json", "self_s") / n_req, "s/req"),
            "serving.encode_s": (
                layer(serve_totals, "serving:TransformModel.encode_batch", "self_s") / n_req,
                "s/req",
            ),
            "serving.batch_wait_s": (
                tracing.batch_wait_s(server_dump["intervals"]) / n_req,
                "s/req",
            ),
            "serving.apply_s": (
                layer(serve_totals, "serving:TransformModel.apply_assignment", "self_s") / n_req,
                "s/req",
            ),
            "serving.render_s": (
                layer(serve_totals, "serving:repro.serving.http.render_response", "self_s") / n_req,
                "s/req",
            ),
            "serving.batches": (batches["count"] / n_req, "count/req"),
            "serving.rows_per_batch": (batches["rows_mean"], "rows"),
            "serving.cache_hit_ratio": (scrape["cache"]["hit_rate"], "ratio"),
        }
        name = f"{self.args.workload}-seed{self.args.seed}"
        work = self.run_dir.parent
        trace_path = work / f"trace-{name}.json"
        trace_path.write_text(
            json.dumps(
                {
                    "traceEvents": tracer.trace_events() + server_dump["events"],
                    "displayTimeUnit": "ms",
                }
            )
        )
        layers_path = work / f"layers-{name}.json"
        layers_path.write_text(
            json.dumps(
                {"fit": fit_totals, "serve": serve_totals, "traced_fits": n_fits, "requests": n_req},
                indent=1,
                sort_keys=True,
            )
        )
        print(f"trace written to {trace_path.relative_to(self.root)}")
        print(f"per-layer totals written to {layers_path.relative_to(self.root)}")
        def share(x):
            return "n/a" if x is None else f"{x * 100:+.1f}%"

        print(
            f"tracing overhead: fit_s {share(self.fit_overhead)} "
            f"(median of {n_fits} traced vs {len(fits) - n_fits} untraced fits), "
            f"serve_rows_per_s {share(serving['serve_overhead'])} "
            f"(stock vs traced server, {len(serving['rows_per_s'][1])} rounds each)"
        )
        return metrics


def _terminate(signum, frame):
    # Unwind normally, so every server this run started is stopped.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro sources under {src}; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Everything the program writes, the native kernel's build cache
    # included, stays inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    sys.path.insert(0, str(src))
    run_dir = work / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        run = Run(args, root, run_dir, tmp)
        raw = run.execute()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in run.problems:
        print(f"FAILED: {problem}")
    correct = not run.wrong
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
