#!/usr/bin/env python3
"""LotusX end-to-end benchmark.

    python3 perfbench/run.py --workload dblp-search --seed 1 --seconds 10 --trace 0

Builds lotusx_server and perfbench_tool from this checkout (CMake, into
.bench_build/), checks the oracle on its hand-written document, draws the
workload's command streams from its corpus and --seed and checks every
distinct response in-process against the oracle (perfbench_tool prepare),
starts the real lotusx_server on the corpus, drives it over TCP for
--seconds with a closed-loop client (perfbench_tool drive), and stops it
with SIGTERM. With --trace 1 it then replays the same streams in-process
through each layer's public calls (perfbench_tool replay) and reports the
per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A wrong answer, a stray process or a failed step exits non-zero.
"""

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CORPORA = ROOT / ".bench_build" / "corpora"
RUNS = ROOT / ".bench_build" / "runs"

# One user on one connection against one pool worker: the event loop, the
# worker and the busy-polling client leave a core of four free, so a
# stray process on the machine does not land in the measured round trips.
SERVER_WORKERS = 1

CORPUS_FILES = {
    "dblp-search": "dblp-600k.xml",
    "treebank-typing": "treebank-300k.xml",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_p50_ms": "ms",
    "run_p99_ms": "ms",
    "complete_p50_ms": "ms",
    "edit_p50_ms": "ms",
    "server_peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError("the LotusX sources (src/, CMakeLists.txt) are not next to perfbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            step = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT)
            if step.returncode != 0:
                raise BenchError("cmake configure failed; see %s" % build_log)
        step = subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", "perfbench_tool", "lotusx_server",
             "-j", str(os.cpu_count() or 1)],
            stdout=out, stderr=subprocess.STDOUT)
        if step.returncode != 0:
            raise BenchError("build failed; see %s" % build_log)
    return BUILD / "perfbench_tool", BUILD / "lotusx" / "examples" / "lotusx_server"


def run_tool(tool, args, timeout):
    step = subprocess.run([str(tool)] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if step.stderr:
        log(step.stderr.rstrip())
    return step


class Server:
    """lotusx_server on one corpus; setup_s runs from launch to its
    "listening" line (XML parse + index build)."""

    def __init__(self, binary, corpus, run_dir):
        self.stderr = open(run_dir / "server.stderr", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(binary), str(corpus), "--port", "0", "--workers", str(SERVER_WORKERS)],
            stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        line = self._read_line(deadline=start + 120)
        self.setup_s = time.perf_counter() - start
        if "listening on" not in line:
            self.stop()
            raise BenchError("server did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def _read_line(self, deadline):
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                return self.proc.stdout.readline()
            if self.proc.poll() is not None:
                return ""
        return ""

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        """SIGTERM, then wait for the drain; a server that outlives it is
        killed and the run fails."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("server did not drain after SIGTERM")
        finally:
            self.proc.stdout.close()
            self.stderr.close()
        if self.proc.returncode != 0:
            raise BenchError("server exited with %d" % self.proc.returncode)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CORPUS_FILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tool, server_binary = build()
    step = run_tool(tool, ["selftest"], timeout=60)
    if step.returncode != 0:
        raise BenchError("the oracle self-test failed")

    CORPORA.mkdir(parents=True, exist_ok=True)
    corpus = CORPORA / CORPUS_FILES[args.workload]
    run_dir = RUNS / ("%s-%d" % (args.workload, args.seed))
    run_dir.mkdir(parents=True, exist_ok=True)
    step = run_tool(tool, ["prepare", "--workload", args.workload, "--seed", str(args.seed),
                           "--corpus", str(corpus), "--out", str(run_dir)], timeout=300)
    if step.returncode != 0:
        raise BenchError("prepare failed: the program gave a wrong answer or a step broke")
    quality = json.loads((run_dir / "quality.json").read_text())

    server = Server(server_binary, corpus, run_dir)
    try:
        step = run_tool(tool, ["drive", "--out", str(run_dir), "--port", str(server.port),
                               "--server-pid", str(server.proc.pid),
                               "--seconds", str(args.seconds)],
                        timeout=args.seconds + 120)
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    if not step.stdout.strip():
        raise BenchError("drive failed")
    tcp = json.loads(step.stdout.strip().splitlines()[-1])
    (run_dir / "tcp.json").write_text(json.dumps(tcp, indent=1) + "\n")
    # Every checked answer was OK, so a failed (ERR) command is wrong too.
    correct = step.returncode == 0 and tcp["mismatches"] == 0 and tcp["failed"] == 0
    classes = tcp["classes"]

    if args.trace == 0:
        metrics = {
            "setup_s": server.setup_s,
            "run_p50_ms": classes["run"]["p50_ms"],
            "run_p99_ms": classes["run"]["p99_ms"],
            "complete_p50_ms": classes["complete"]["p50_ms"],
            "edit_p50_ms": classes["edit"]["p50_ms"],
            "server_peak_rss_mb": rss_mb,
        }
        out = {name: metric(value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    else:
        step = run_tool(tool, ["replay", "--out", str(run_dir), "--seconds", str(args.seconds)],
                        timeout=300)
        if step.returncode != 0:
            raise BenchError("replay failed")
        layers = json.loads(step.stdout.strip().splitlines()[-1])
        (run_dir / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
        out = per_layer_metrics(layers, quality)

    print(json.dumps({"correct": correct, "attempted": tcp["attempted"],
                      "failed": tcp["failed"], "metrics": out}))
    return 0 if correct else 1


def per_layer_metrics(layers, quality):
    out = {}
    units = load_units()
    for name, unit in units.items():
        if name in layers:
            out[name] = metric(layers[name], unit)
    terms = quality["value_terms"]
    out["autocomplete.value_precision"] = metric(
        quality["value_terms_at_box"] / terms if terms else 0.0, "share")
    accepts = quality["accepts"]
    out["autocomplete.target_rank"] = metric(
        quality["accept_rank_sum"] / accepts if accepts else 0.0, "rank")
    missing = sorted(set(units) - set(out))
    if missing:
        raise BenchError("per-layer metrics not produced: %s" % ", ".join(missing))
    return {name: out[name] for name in units}


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        sys.exit(1)
