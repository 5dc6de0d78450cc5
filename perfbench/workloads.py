"""The three workloads: set-up, the timed loop, and the traced run.

Each workload is a class with ``setup()``, ``run(seconds)``,
``trace(seconds, out_dir)`` and ``close()``.  ``run`` attempts whole
rounds only (a corpus pass, a window of requests, a cluster stream) and
returns its counts, peak RSS and timed windows (:class:`Windows`), from
which ``perfbench/run.py`` computes the end-to-end figures; ``trace``
returns the per-layer metrics.
Every operation's output is checked against the answer the generator
gives (see :mod:`perfbench.inputs`); a wrong answer counts as failed.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from perfbench import inputs
from perfbench.calibrate import calibrate, factor
from perfbench.stats import percentile
from perfbench.tracing import LAYERS, TimedStore, Tracer

_clock = time.perf_counter

#: The tail percentile each workload reports.
TAIL = {"corpus-cold": 90.0, "serve-zipf": 99.0, "cluster-flood": 99.0}


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` (default: self)."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise RuntimeError(f"cannot read the peak RSS of process {pid}")


def store_bytes(path: str) -> int:
    """Bytes on disk of a SQLite store and its WAL/shared-memory files."""
    return sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal", "-shm")
        if os.path.exists(path + suffix)
    )


def hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


class Windows:
    """A timed segment's latencies, window by window, with the scale of
    each window.

    The calibration loop runs before the first window and after every
    window; a window's scale is ``REFERENCE_S`` over the mean of the two
    calibrations around it (see :mod:`perfbench.calibrate`).  ``hold``
    is a context manager factory that every calibration runs inside; it
    keeps other processes of the workload off the CPU meanwhile.  The
    windows go back to ``perfbench/run.py`` as they are, which pools the
    windows of all segments of a run (:func:`perfbench.stats.summarize`).
    A window may label each operation with its class.
    """

    def __init__(self, hold=contextlib.nullcontext) -> None:
        self.hold = hold
        self.calibrations = [self._calibrate()]
        self.latencies: List[List[float]] = []
        self.busy: List[float] = []
        self.scales: List[float] = []
        self.classes: List[List[str]] = []

    def _calibrate(self) -> float:
        with self.hold():
            return calibrate()

    def window(self, latencies: List[float], busy: float,
               classes: Optional[List[str]] = None) -> None:
        after = self._calibrate()
        self.scales.append(factor(self.calibrations[-1], after))
        self.calibrations.append(after)
        self.latencies.append(list(latencies))
        self.busy.append(busy)
        if classes is not None:
            self.classes.append(list(classes))

    def export(self) -> Dict[str, Any]:
        exported = {
            "latencies": self.latencies,
            "busy": self.busy,
            "scales": self.scales,
            "calibrations": self.calibrations,
        }
        if self.classes:
            exported["classes"] = self.classes
        return exported


class CacheCounters:
    """Accumulated memo-LRU hits and misses across cache clears."""

    NAMES = ("normalize", "canonize", "tdp-match")

    def __init__(self) -> None:
        self.hits = defaultdict(int)
        self.misses = defaultdict(int)
        self._base = self._read()

    @staticmethod
    def _read() -> Dict[str, Tuple[int, int]]:
        from repro import cache_stats

        stats = cache_stats()
        return {
            name: (stats[name]["hits"], stats[name]["misses"])
            for name in CacheCounters.NAMES
        }

    def take(self) -> None:
        """Add what the caches counted since the last take (or clear)."""
        now = self._read()
        for name in self.NAMES:
            hits, misses = now[name]
            base_hits, base_misses = self._base[name]
            if hits < base_hits or misses < base_misses:  # cleared since
                base_hits = base_misses = 0
            self.hits[name] += hits - base_hits
            self.misses[name] += misses - base_misses
        self._base = now

    def cleared(self) -> None:
        """The caches were just cleared: count from zero."""
        self._base = {name: (0, 0) for name in self.NAMES}

    def mark(self) -> None:
        """Count from now on, dropping what happened since the last take."""
        self._base = self._read()

    def metrics(self) -> Dict[str, float]:
        return {
            f"hashcons.{name.replace('-', '_')}_hit_ratio": hit_ratio(
                self.hits[name], self.misses[name]
            )
            for name in self.NAMES
        }

    def detail(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {
                "hits": self.hits[name],
                "attempts": self.hits[name] + self.misses[name],
            }
            for name in self.NAMES
        }


#: Every per-layer metric, with its unit; a workload that does not
#: exercise a layer reports 0 for it.
PER_LAYER = {
    "sql.parse_ms": "ms",
    "sql.resolve_ms": "ms",
    "usr.compile_ms": "ms",
    "usr.normalize_ms": "ms",
    "usr.spnf_terms": "count",
    "udp.canonize_ms": "ms",
    "udp.match_ms": "ms",
    "checker.model_check_ms": "ms",
    "session.verify_ms": "ms",
    "session.tactic_invocations": "count",
    "session.text_hits": "count",
    "session.denot_hits": "count",
    "session.verdict_misses": "count",
    "hashcons.normalize_hit_ratio": "ratio",
    "hashcons.canonize_hit_ratio": "ratio",
    "hashcons.tdp_match_hit_ratio": "ratio",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
    "store.verdict_get_ms": "ms",
    "store.verdict_put_ms": "ms",
    "store.group_lookup_ms": "ms",
    "store.group_insert_ms": "ms",
    "store.group_attach_ms": "ms",
    "store.size_mb": "MB",
    "server.overhead_ms": "ms",
    **{f"server.{klass}_p50_ms": "ms" for klass, _ in inputs.CLASS_COUNTS},
    "clustering.digest_ms": "ms",
    "clustering.decisions": "count",
    "clustering.bucket_hits": "count",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
    **{f"self.{layer}_ms": "ms" for layer in LAYERS},
}


def layer_metrics(
    tracer: Tracer, ops: int, root: str, extra: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics from one traced segment of ``ops`` operations.

    Times and counts are per operation (pair, request or query);
    ``trace.coverage`` is the share of ``root`` span time that its direct
    child spans account for.
    """
    analysis = tracer.analyse(root)
    total = analysis["total_ns"]

    def per_op_ms(*names: str) -> float:
        return sum(total.get(name, 0) for name in names) / 1e6 / ops

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(
        {
            "sql.parse_ms": per_op_ms("sql.parse"),
            "sql.resolve_ms": per_op_ms("sql.resolve", "sql.desugar"),
            "usr.compile_ms": per_op_ms("usr.compile"),
            "usr.normalize_ms": per_op_ms("usr.normalize"),
            "usr.spnf_terms": tracer.spnf_terms / ops,
            "udp.canonize_ms": per_op_ms("udp.canonize"),
            "udp.match_ms": analysis["match_ns"] / 1e6 / ops,
            "checker.model_check_ms": per_op_ms("checker.model_check"),
            "session.verify_ms": per_op_ms("session.verify"),
            "store.get_ms": per_op_ms("store.get"),
            "store.put_ms": per_op_ms("store.put"),
            "store.verdict_get_ms": per_op_ms("store.verdict_get"),
            "store.verdict_put_ms": per_op_ms("store.verdict_put"),
            "store.group_lookup_ms": per_op_ms("store.group_lookup"),
            "store.group_insert_ms": per_op_ms("store.group_insert"),
            "store.group_attach_ms": per_op_ms("store.group_attach"),
            "clustering.digest_ms": per_op_ms("clustering.digest"),
            "trace.coverage": analysis["coverage"],
        }
    )
    for layer, ns in analysis["self_ns"].items():
        metrics[f"self.{layer}_ms"] = ns / 1e6 / ops
    metrics.update(extra)
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return metrics


class Side:
    """Operations, failures and busy seconds of one side of a traced run."""

    def __init__(self) -> None:
        self.ops = self.failed = 0
        self.busy = 0.0

    def add(self, ops: int, failed: int, busy: float) -> None:
        self.ops += ops
        self.failed += failed
        self.busy += busy


def alternate(seconds: float, one_round) -> Tuple[Tracer, Side, Side]:
    """Rounds alternately untraced and traced, an even number of them,
    until ``seconds`` have passed.

    ``one_round(tracer_or_None)`` runs one whole round and returns its
    ``(ops, failed, busy_seconds)``.  Interleaving gives both sides the
    same conditions, so their difference is the tracing overhead.
    """
    tracer = Tracer()
    plain, traced = Side(), Side()
    started = _clock()
    rounds = 0
    while rounds < 2 or rounds % 2 or _clock() - started < seconds:
        if rounds % 2:
            tracer.install()
            try:
                traced.add(*one_round(tracer))
            finally:
                tracer.uninstall()
        else:
            plain.add(*one_round(None))
        rounds += 1
    return tracer, plain, traced


def trace_result(
    workload, tracer: Tracer, plain: Side, traced: Side, root: str,
    extra: Dict[str, float], out_dir: str, detail: Dict[str, Any],
) -> Dict[str, Any]:
    """The traced run's result: per-layer metrics, spans written out.

    ``trace.overhead_pct`` compares busy time per operation of the two
    sides, unless ``extra`` already gives it.
    """
    extra = dict(extra)
    extra.setdefault(
        "trace.overhead_pct",
        (traced.busy / traced.ops) / (plain.busy / plain.ops) * 100.0 - 100.0,
    )
    metrics = layer_metrics(tracer, traced.ops, root, extra)
    detail = dict(detail)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}-seed{workload.seed}.json")
    tracer.dump(path, {"metrics": metrics, **detail})
    detail["spans"] = path
    return {
        "attempted": plain.ops + traced.ops,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# corpus-cold
# ---------------------------------------------------------------------------


class CorpusCold:
    """The 91 corpus rules through ``Session.verify``, cold every pass."""

    name = "corpus-cold"

    def __init__(self, seed: int, segment: int, work_dir: str) -> None:
        self.seed = seed  # the corpus is fixed; the seed changes nothing

    def setup(self) -> None:
        from repro import Session, VerifyRequest, clear_caches
        from repro.session import tactic_invocations

        self._session_cls = Session
        self._clear = clear_caches
        self._invocations = tactic_invocations
        self.requests = [
            (VerifyRequest(left=p.left, right=p.right, program=p.program), p.expected)
            for p in inputs.corpus_pairs()
        ]

    def _passes(self, seconds: float, tracer: Optional[Tracer] = None,
                counters: Optional[CacheCounters] = None,
                windows: Optional[Windows] = None):
        """Whole passes until ``seconds`` have passed (one when 0):
        ``(attempted, failed, busy seconds)``."""
        failed = attempted = 0
        busy = 0.0
        started = _clock()
        while True:
            self._clear()
            if counters is not None:
                counters.cleared()
            session = self._session_cls()
            pass_started = _clock()
            this_pass = []
            for request, expected in self.requests:
                if tracer is not None:
                    tracer.request += 1
                t0 = _clock()
                result = session.verify(request)
                this_pass.append(_clock() - t0)
                if result.verdict.value != expected:
                    failed += 1
            busy += _clock() - pass_started
            if counters is not None:
                counters.take()
            if windows is not None:
                windows.window(this_pass, sum(this_pass))
            attempted += len(self.requests)
            if _clock() - started >= seconds:
                return attempted, failed, busy

    def run(self, seconds: float) -> Dict[str, Any]:
        windows = Windows()
        attempted, failed, _ = self._passes(seconds, windows=windows)
        return {
            "attempted": attempted,
            "failed": failed,
            "peak_rss_mb": vm_hwm_mb(),
            "windows": windows.export(),
            "detail": {"passes": attempted // len(self.requests)},
        }

    def trace(self, seconds: float, out_dir: str) -> Dict[str, Any]:
        counters = CacheCounters()
        invocations = 0

        def one_pass(tracer):
            nonlocal invocations
            if tracer is None:
                return self._passes(0)
            before = self._invocations()
            done = self._passes(0, tracer, counters)
            invocations += self._invocations() - before
            return done

        tracer, plain, traced = alternate(seconds, one_pass)
        extra = {
            "session.tactic_invocations": invocations / traced.ops,
            **counters.metrics(),
        }
        return trace_result(
            self, tracer, plain, traced, "session.verify", extra, out_dir,
            {"caches": counters.detail()},
        )

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve-zipf
# ---------------------------------------------------------------------------


class _Server:
    """``udp-prove serve --frontdoor`` as a child process."""

    def __init__(self, store_path: str) -> None:
        src = os.path.join(inputs.ROOT, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.frontend.cli", "serve",
                "--frontdoor", "--port", "0", "--pool-size", "1",
                "--pool-mode", "thread", "--store", store_path, "--quiet",
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            cwd=inputs.ROOT,
        )
        self.log: List[str] = []
        self._stopped = False
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._listening.wait(60) or self.proc.poll() is not None:
            self.stop()
            raise RuntimeError("server did not start: " + "".join(self.log[-5:]))
        self.wait_healthy()

    def _drain(self) -> None:
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", "replace")
            self.log.append(line)
            del self.log[:-50]
            if "listening on http://" in line:
                address = line.split("listening on http://", 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                self.host, self.port = host, int(port)
                self._listening.set()

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = _clock() + timeout
        while _clock() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz")

    def pause(self) -> None:
        """Stop the server (SIGSTOP) and wait until all its threads are
        stopped, so that nothing it runs in the background shares the CPU."""
        if self._stopped or self.proc.poll() is not None:
            return
        os.kill(self.proc.pid, signal.SIGSTOP)
        _, status = os.waitpid(self.proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            raise RuntimeError(f"server exited while being paused ({status})")
        self._stopped = True

    def resume(self) -> None:
        if self._stopped:
            os.kill(self.proc.pid, signal.SIGCONT)
            self._stopped = False

    @contextlib.contextmanager
    def paused(self):
        self.pause()
        try:
            yield
        finally:
            self.resume()

    def stop(self) -> None:
        """Drain with SIGTERM; kill if it does not exit in time."""
        self.resume()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(10)


class _Client:
    """A keep-alive JSON client for ``POST /verify``."""

    HEADERS = {"Content-Type": "application/json"}

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def verify(self, body: bytes) -> Tuple[int, Optional[str]]:
        try:
            self.conn.request("POST", "/verify", body, self.HEADERS)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
            return 0, None
        try:
            verdict = json.loads(data).get("verdict")
        except ValueError:
            verdict = None
        return response.status, verdict

    def close(self) -> None:
        self.conn.close()


class ServeZipf:
    """A skewed closed-loop replay through the front door.

    One client, one keep-alive connection, one request at a time: with
    the run pinned to one CPU (see ``perfbench/run.py``) no request waits
    for a wake-up on another CPU, which on a shared virtual machine swung
    one seed's p50 between 0.75 and 1.77 ms from run to run.

    The server shares that CPU, so it is paused while the calibration
    loop runs (:meth:`_Server.paused`): work it does in the background
    then runs while requests are timed, where it shows, and never slows
    the calibration, where it would be divided out as host speed.  It is
    also left paused at the end of set-up, for the calibration that
    closes the set-up's timing.
    """

    name = "serve-zipf"
    WARM_BLOCKS = 2
    #: Requests per window: the unit of calibration, rate and p50.  One
    #: block (about 0.1 s), so that calibrations follow short spells of
    #: host slowness.
    WINDOW = inputs.BLOCK
    #: ``peak_rss_mb`` is read once this many timed requests were sent.
    #: The server's memory grows with every new request text, so a peak
    #: read at the end of a timed run would scale with its throughput.
    RSS_AFTER = 16 * inputs.BLOCK

    def __init__(self, seed: int, segment: int, work_dir: str) -> None:
        self.seed = seed
        self.stream_seed = f"{seed}.{segment}"
        self.work_dir = work_dir
        self.server: Optional[_Server] = None

    def _fresh_stream(self):
        stream = inputs.serve_stream(self.stream_seed)
        warm = inputs.warmup_pairs() + inputs.take(
            stream, self.WARM_BLOCKS * inputs.BLOCK
        )
        return stream, warm

    def setup(self) -> None:
        self.store_path = os.path.join(self.work_dir, "serve.db")
        self.stream, warm = self._fresh_stream()
        self.server = _Server(self.store_path)
        client = _Client(self.server.host, self.server.port)
        try:
            self.warm_wrong = sum(
                client.verify(json.dumps(p.request()).encode()) != (200, p.expected)
                for p in warm
            )
        finally:
            client.close()
        self.server.pause()

    def _closed_loop(self, seconds: float, windows: Optional[Windows] = None):
        """One client sends the stream over one keep-alive connection, a
        request at a time, window by window (``WINDOW`` requests); the
        run ends at a window boundary once ``seconds`` have passed.
        A window's request bodies are built before its clock starts, so
        its busy time is sending and receiving only.  Between windows
        ``windows`` calibrates, and the server's peak RSS is read once
        ``RSS_AFTER`` requests were answered.

        Returns the latencies by request class, the request count, the
        failures, and that peak RSS.
        """
        by_class: Dict[str, List[float]] = defaultdict(list)
        failed = sent = 0
        rss = None
        self.server.resume()
        client = _Client(self.server.host, self.server.port)
        started = _clock()
        try:
            while True:
                batch = [
                    (pair, json.dumps(pair.request()).encode())
                    for pair in inputs.take(self.stream, self.WINDOW)
                ]
                this_window = []
                window_started = _clock()
                for pair, body in batch:
                    t0 = _clock()
                    answer = client.verify(body)
                    latency = _clock() - t0
                    this_window.append(latency)
                    by_class[pair.klass].append(latency)
                    if answer != (200, pair.expected):
                        failed += 1
                busy = _clock() - window_started
                sent += self.WINDOW
                if windows is not None:
                    windows.window(this_window, busy, [p.klass for p, _ in batch])
                if rss is None and sent >= self.RSS_AFTER:
                    rss = vm_hwm_mb(self.server.proc.pid)
                if _clock() - started >= seconds:
                    return by_class, sent, failed, rss
        finally:
            client.close()

    def _stop_server(self) -> Dict[str, float]:
        """Read the server's peak RSS, drain it, and size its store."""
        peak = vm_hwm_mb(self.server.proc.pid)
        self.server.stop()
        self.server = None
        return {"peak_rss_mb": peak, "store_mb": store_bytes(self.store_path) / 1e6}

    def run(self, seconds: float) -> Dict[str, Any]:
        windows = Windows(self.server.paused)
        by_class, attempted, failed, rss = self._closed_loop(seconds, windows)
        after = self._stop_server()
        if rss is None:
            raise RuntimeError(f"run too short: fewer than {self.RSS_AFTER} requests")
        return {
            "attempted": attempted,
            "failed": failed,
            "correct": self.warm_wrong == 0,
            "peak_rss_mb": rss,
            "windows": windows.export(),
            "detail": {
                "peak_rss_mb_at_end": after["peak_rss_mb"],
                "store_mb": after["store_mb"],
                "class_counts": {k: len(v) for k, v in sorted(by_class.items())},
            },
        }

    def _replay_block(self, session, stream, by_class, tracer=None):
        """One block of the stream through ``session.verify`` in-process."""
        from repro import VerifyRequest

        failed = 0
        busy = 0.0
        for _ in range(inputs.BLOCK):
            pair = next(stream)
            request = VerifyRequest(left=pair.left, right=pair.right, program=pair.program)
            if tracer is not None:
                tracer.request += 1
            t0 = _clock()
            result = session.verify(request)
            elapsed = _clock() - t0
            busy += elapsed
            by_class[pair.klass].append(elapsed)
            if result.verdict.value != pair.expected:
                failed += 1
        return inputs.BLOCK, failed, busy

    def trace(self, seconds: float, out_dir: str) -> Dict[str, Any]:
        """A third of the time through the server; then the same stream
        replayed in-process, over a fresh store behind a
        :class:`TimedStore`, in blocks alternately untraced and traced.

        ``server.overhead_ms`` weighs each request class's server p50
        less its in-process (untraced) p50 by the class's share.
        """
        from repro import Session, VerifyRequest, install_shared_store
        from repro.session import tactic_invocations
        from repro.store import open_store

        served, served_ops, served_failed, _ = self._closed_loop(seconds / 3)
        after = self._stop_server()

        store = TimedStore(open_store(os.path.join(self.work_dir, "replay.db")), None)
        previous = install_shared_store(store)
        plain_by_class: Dict[str, List[float]] = defaultdict(list)
        traced_by_class: Dict[str, List[float]] = defaultdict(list)
        counters = CacheCounters()
        counts = defaultdict(int)
        try:
            session = Session()
            stream, warm = self._fresh_stream()
            warm_wrong = sum(
                session.verify(
                    VerifyRequest(left=p.left, right=p.right, program=p.program)
                ).verdict.value != p.expected
                for p in warm
            )

            def one_block(tracer):
                if tracer is None:
                    return self._replay_block(session, stream, plain_by_class)
                store.__dict__["_tracer"] = tracer
                hits = dict(store.tier_hits)
                invocations = tactic_invocations()
                misses = session.stats.verdict_cache_misses
                counters.mark()
                try:
                    return self._replay_block(session, stream, traced_by_class, tracer)
                finally:
                    store.__dict__["_tracer"] = None
                    counters.take()
                    counts["invocations"] += tactic_invocations() - invocations
                    counts["misses"] += session.stats.verdict_cache_misses - misses
                    for tier in ("text", "denot"):
                        counts[tier] += store.tier_hits[tier] - hits.get(tier, 0)

            tracer, plain, traced = alternate(seconds / 3, one_block)
        finally:
            install_shared_store(previous)
            store.close()

        # Blocks differ in the rules they draw, so both comparisons are
        # made per class and weighed by the class's share of requests.
        overhead = tracing_pct = 0.0
        for klass, samples in served.items():
            if klass in plain_by_class and klass in traced_by_class:
                share = len(samples) / served_ops
                plain_p50 = percentile(plain_by_class[klass], 50)
                overhead += share * 1000.0 * (percentile(samples, 50) - plain_p50)
                tracing_pct += share * 100.0 * (
                    percentile(traced_by_class[klass], 50) / plain_p50 - 1.0
                )
        ops = traced.ops
        extra = {
            "session.tactic_invocations": counts["invocations"] / ops,
            "session.text_hits": counts["text"] / ops,
            "session.denot_hits": counts["denot"] / ops,
            "session.verdict_misses": counts["misses"] / ops,
            "store.size_mb": after["store_mb"],
            "server.overhead_ms": overhead,
            **{
                f"server.{klass}_p50_ms": percentile(samples, 50) * 1000.0
                for klass, samples in served.items()
            },
            "trace.overhead_pct": tracing_pct,
            **counters.metrics(),
        }
        classes = {
            klass: {
                "server_p50_ms": percentile(served[klass], 50) * 1000.0,
                "inprocess_p50_ms": percentile(plain_by_class[klass], 50) * 1000.0,
            }
            for klass in sorted(served)
            if klass in plain_by_class
        }
        result = trace_result(
            self, tracer, plain, traced, "session.verify", extra, out_dir,
            {"classes": classes, "caches": counters.detail()},
        )
        result["attempted"] += served_ops
        result["failed"] += served_failed
        result["correct"] = self.warm_wrong == 0 and warm_wrong == 0
        return result

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


# ---------------------------------------------------------------------------
# cluster-flood
# ---------------------------------------------------------------------------


def misplaced(groups, labels: Dict[str, str]) -> int:
    """Queries whose group is not their shape's one group.

    A group belongs to the label of its first member; a later group for
    an already-claimed label, and every member whose label differs from
    its group's, count as misplaced.
    """
    claimed = set()
    wrong = 0
    for group in groups:
        label = labels[group.members[0]]
        if label in claimed:
            wrong += len(group.members)
            continue
        claimed.add(label)
        wrong += sum(1 for member in group.members if labels[member] != label)
    return wrong


class ClusterFlood:
    """Shuffled equivalent spellings placed by ``ClusterEngine``."""

    name = "cluster-flood"
    #: Placements per window: the unit of calibration, rate and p50.
    #: It divides the stream, so windows never straddle two rounds.
    WINDOW = 256

    def __init__(self, seed: int, segment: int, work_dir: str) -> None:
        self.seed = seed
        self.stream_seed = f"{seed}.{segment}"
        self.work_dir = work_dir
        self._round = 0

    def setup(self) -> None:
        from repro import clear_caches
        from repro.service.clustering import ClusterEngine, ClusterStats
        from repro.session import Session
        from repro.store import open_store

        self._clear = clear_caches
        self._engine_cls = ClusterEngine
        self._stats_cls = ClusterStats
        self._session_cls = Session
        self._open_store = open_store
        self.stream = inputs.cluster_stream(self.stream_seed)
        self.labels = dict(self.stream)
        self._next_store = self._fresh_store()

    def _fresh_store(self):
        self._round += 1
        path = os.path.join(self.work_dir, f"groups-{self._round}.db")
        return path, self._open_store(path)

    def _rounds(self, seconds: float, tracer: Optional[Tracer] = None,
                counters: Optional[CacheCounters] = None,
                windows: Optional[Windows] = None):
        """Whole rounds until ``seconds`` have passed (one when 0):
        ``(attempted, failed, busy seconds, stats, rounds, store MB)``."""
        failed = attempted = rounds = 0
        busy = 0.0
        stats = self._stats_cls()
        store_mb = 0.0
        started = _clock()
        while True:
            path, store = self._next_store
            self._clear()
            if counters is not None:
                counters.cleared()
            session = self._session_cls.from_program_text(inputs.SHAPE_PROGRAM)
            timed_store = TimedStore(store, tracer) if tracer is not None else store
            engine = self._engine_cls(session, store=timed_store, stats=stats)
            round_started = _clock()
            this_window = []
            for query, _ in self.stream:
                if tracer is not None:
                    tracer.request += 1
                t0 = _clock()
                engine.place(query)
                this_window.append(_clock() - t0)
                if len(this_window) == self.WINDOW:
                    if windows is not None:
                        windows.window(this_window, sum(this_window))
                    this_window = []
            busy += _clock() - round_started
            if counters is not None:
                counters.take()
            failed += misplaced(engine.groups(), self.labels)
            attempted += len(self.stream)
            rounds += 1
            store.close()
            store_mb = store_bytes(path) / 1e6
            for suffix in ("", "-wal", "-shm"):
                if os.path.exists(path + suffix):
                    os.unlink(path + suffix)
            self._next_store = self._fresh_store()
            if _clock() - started >= seconds:
                return attempted, failed, busy, stats, rounds, store_mb

    def run(self, seconds: float) -> Dict[str, Any]:
        windows = Windows()
        attempted, failed, _, stats, rounds, store_mb = self._rounds(
            seconds, windows=windows
        )
        return {
            "attempted": attempted,
            "failed": failed,
            "peak_rss_mb": vm_hwm_mb(),
            "windows": windows.export(),
            "detail": {
                "rounds": rounds,
                "store_mb": store_mb,
                "cluster": stats.as_dict(),
            },
        }

    def trace(self, seconds: float, out_dir: str) -> Dict[str, Any]:
        counters = CacheCounters()
        totals = defaultdict(float)

        def one_round(tracer):
            if tracer is None:
                return self._rounds(0)[:3]
            ops, failed, busy, stats, _, store_mb = self._rounds(0, tracer, counters)
            totals["rounds"] += 1
            totals["decisions"] += stats.comparisons
            totals["bucket_hits"] += stats.bucket_hits + stats.digest_hits
            totals["store_mb"] = store_mb
            return ops, failed, busy

        tracer, plain, traced = alternate(seconds, one_round)
        extra = {
            "store.size_mb": totals["store_mb"],
            "clustering.decisions": totals["decisions"] / totals["rounds"],
            "clustering.bucket_hits": totals["bucket_hits"] / totals["rounds"],
            **counters.metrics(),
        }
        return trace_result(
            self, tracer, plain, traced, "clustering.place", extra, out_dir,
            {"caches": counters.detail()},
        )

    def close(self) -> None:
        path, store = self._next_store
        store.close()


WORKLOADS = {w.name: w for w in (CorpusCold, ServeZipf, ClusterFlood)}


def make_work_dir(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return tempfile.mkdtemp(prefix="work-", dir=out_dir)


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
