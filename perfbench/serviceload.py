"""The ``service_mixed`` round: an open loop against ``python -m repro serve``.

One round starts a fresh service (pool backend, empty result cache and
trace store) in its own session, drives it with two threads, and stops
it with SIGTERM:

* the sender POSTs each campaign at its scheduled time, whether or not
  earlier ones have finished (an open loop, so a stall delays later
  campaigns instead of slowing the sender);
* the follower reads each campaign's SSE stream in submission order
  through ``ServiceClient``, as ``campaign --remote`` does.

Turnaround runs from a campaign's scheduled send time to the timestamp
the service puts on its ``campaign_finished`` event; client and service
share the host clock.  A stream that has not ended
:data:`STREAM_DEADLINE` seconds after its last event counts as failed.
"""

from __future__ import annotations

import json
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import plan
import procs

#: Seconds a stream may stay silent before the campaign counts as failed.
STREAM_DEADLINE = 2.0
#: Seconds the service gets to come up, and to exit after SIGTERM.
START_DEADLINE = 60.0
STOP_DEADLINE = 10.0
#: Fresh campaigns per round whose merged results are re-run locally.
GATE_CAMPAIGNS = 3

_HERE = Path(__file__).resolve().parent


def _wait_ready(process: subprocess.Popen, log: Path) -> str:
    from repro.service import ServiceClient

    deadline = time.monotonic() + START_DEADLINE
    url = None
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"service exited early: {log.read_text()[-2000:]}")
        if url is None:
            found = re.search(r"listening on (http://\S+)", log.read_text())
            url = found.group(1) if found else None
        if url is not None:
            try:
                ServiceClient(url, timeout=1.0).health()
                return url
            except OSError:
                pass
        time.sleep(0.005)
    raise RuntimeError("service did not answer /healthz in time")


def _follow(client, record: dict) -> None:
    record.update(sources=[], references=0, cell_failures=0)
    try:
        for event in client.events(record["id"]):
            name = event["event"]
            if name == "campaign_queued":
                record["queued"] = event["time"]
            elif name == "campaign_started":
                record["started"] = event["time"]
            elif name == "cell_finished":
                record["sources"].append(event["source"])
                if event["source"] == "run":
                    record["references"] += event["references"]
            elif name == "cell_failed":
                record["cell_failures"] += 1
            elif name == "campaign_finished":
                record["finished"] = event["time"]
                record["status"] = event.get("status")
                record["seen_finished"] = time.time()
        record["stream_close_s"] = time.time() - record.get("seen_finished", time.time())
    except OSError:
        record["failure"] = "stream_unclosed" if "finished" in record else "stream_stalled"
    if "failure" not in record and (record.get("status") != "done" or record["cell_failures"]):
        record["failure"] = f"campaign_{record.get('status')}"


def _drive(url: str, arrivals: list[plan.Arrival]) -> tuple[list[dict], float]:
    from repro.service import ServiceClient, ServiceError

    handoff: queue.Queue = queue.Queue()
    records: list[dict] = []
    origin = time.time() + 0.05

    def sender() -> None:
        client = ServiceClient(url, user="bench", timeout=30.0)
        try:
            for index, arrival in enumerate(arrivals):
                due = origin + arrival.at
                delay = due - time.time()
                if delay > 0:
                    time.sleep(delay)
                record = {"index": index, "due": due, "late": time.time() - due,
                          "repeat_of": arrival.repeat_of}
                try:
                    record["id"] = client.submit_cells(list(arrival.cells))
                except (OSError, ServiceError) as exc:
                    record["failure"] = f"submit: {exc}"
                handoff.put(record)
        finally:
            handoff.put(None)

    def follower() -> None:
        client = ServiceClient(url, user="bench", timeout=STREAM_DEADLINE)
        while (record := handoff.get()) is not None:
            if "id" in record:
                _follow(client, record)
            records.append(record)

    threads = [threading.Thread(target=sender), threading.Thread(target=follower)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, origin


def _gate(url: str, seed: int, arrivals: list[plan.Arrival], records: list[dict]) -> list[str]:
    """Merged service results must equal a local ``run_campaign`` of the same cells."""
    import random

    from repro.campaign import run_campaign
    from repro.service import ServiceClient
    from repro.service.spec import summarize_value

    client = ServiceClient(url, timeout=30.0)
    merged = {
        r["index"]: [o["value"] for o in client.status(r["id"])["results"]]
        for r in records if "failure" not in r
    }
    mismatches = []
    for record in records:
        source = record["repeat_of"]
        if source is not None and record["index"] in merged and source in merged:
            if merged[record["index"]] != merged[source]:
                mismatches.append(f"campaign {record['index']} differs from the one it repeats")
    fresh = [i for i in merged if arrivals[i].repeat_of is None]
    for index in random.Random(f"service_mixed/{seed}/gate").sample(fresh, min(GATE_CAMPAIGNS, len(fresh))):
        local = run_campaign(list(arrivals[index].cells), workers=1, cache=False, events=None)
        expected = [json.loads(json.dumps(summarize_value(v))) for v in local.values()]
        if expected != merged[index]:
            mismatches.append(f"campaign {index} differs from a local run_campaign")
    return mismatches


def run_round(seed: int, scale: plan.Scale, workdir: Path, env: dict,
              spans: Path | None, gate: bool) -> dict:
    """Start a service, drive one open loop through it, stop it; returns the raw figures."""
    workdir.mkdir(parents=True)
    arrivals = plan.service_arrivals(seed, scale)
    prefix = [sys.executable, "-m", "repro"]
    if spans is not None:
        prefix = [sys.executable, str(_HERE / "traced_serve.py"), str(spans)]
    command = prefix + [
        "serve", "--backend", "pool", "--workers", str(plan.WORKERS["service_mixed"]),
        "--host", "127.0.0.1", "--port", "0",
        "--cache-dir", str(workdir / "cache"), "--trace-store", str(workdir / "store"),
    ]
    log = workdir / "serve.log"
    spawned = time.monotonic()
    with open(log, "wb") as stderr:
        process = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True
        )
    rss = procs.PeakRss(process.pid)
    orphans = 0
    try:
        url = _wait_ready(process, log)
        ready = time.monotonic()
        records, origin = _drive(url, arrivals)
        rss.sample()
        mismatches = _gate(url, seed, arrivals, records) if gate else []
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=STOP_DEADLINE)
        except subprocess.TimeoutExpired:
            pass
        orphans = len(procs.session_members(process.pid))
    finally:
        procs.kill_session(process.pid)
        process.wait()
        peak = sum(rss.stop().values()) / 1024
    return {
        "setup_s": ready - spawned,
        "origin": origin,
        "records": records,
        "peak_rss_mb": peak,
        "orphaned_workers": orphans,
        "mismatches": mismatches,
    }
