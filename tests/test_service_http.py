"""Tests for the HTTP front end and client, including the two-client
dedup guarantee: two processes requesting the same shard run exactly
one simulation between them."""

import json
import multiprocessing
import urllib.error
import urllib.request

import pytest

from repro.service.dispatcher import (
    SHARD_DELAY_ENV,
    CampaignService,
)
from repro.service.errors import (
    AdmissionError,
    SpecError,
    UnknownCampaign,
)
from repro.service.client import ServiceClient
from repro.service.http import ServiceServer
from repro.telemetry.core import TELEMETRY
from repro.telemetry.sinks import InMemoryAggregator


@pytest.fixture(autouse=True)
def sink():
    aggregator = InMemoryAggregator()
    TELEMETRY.enable(aggregator)
    yield aggregator
    TELEMETRY.disable()
    TELEMETRY.reset()


PAYLOAD = {
    "kind": "probe",
    "probes": [{"family": "chain", "m": 4, "stride": 1, "laps": 6},
               {"family": "ladder", "k": 3, "periods": 4}],
    "schemes": [{"scheme": "SBTB", "entries": 32},
                {"scheme": "AlwaysTaken"}],
}


@pytest.fixture()
def served(tmp_path):
    service = CampaignService(str(tmp_path), mode="inline")
    server = ServiceServer(service, port=0).start()
    try:
        yield server, ServiceClient(server.address, timeout=10.0)
    finally:
        server.stop()


def test_submit_wait_tables_over_http(served):
    server, client = served
    assert client.healthz()["ok"] is True
    status = client.submit(PAYLOAD)
    assert status["total"] == 4
    assert client.wait(status["id"], timeout=30.0) == "done"
    tables = client.tables(status["id"])
    assert tables["degraded"] is False
    assert len(tables["rows"]) == 2
    payload = client.results(status["id"])
    assert payload["next"] == 4
    assert {event["status"] for event in payload["events"]} == {"done"}
    stats = client.stats()
    assert stats["counters"]["service.shard.executed"] == 4


def test_invalid_spec_is_400(served):
    _, client = served
    with pytest.raises(SpecError, match="schemes"):
        client.submit({"kind": "probe", "probes": [
            {"family": "chain", "m": 2, "stride": 1, "laps": 2}]})


def test_removed_engine_is_400(served):
    server, _ = served
    payload = dict(PAYLOAD, engine="chunk" + "ed")   # engine removed
    request = urllib.request.Request(
        server.address + "/campaigns", data=json.dumps(payload).encode(),
        method="POST", headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5.0)
    assert excinfo.value.code == 400
    assert "'engine'" in json.loads(excinfo.value.read())["error"]


def test_unknown_campaign_is_404(served):
    _, client = served
    with pytest.raises(UnknownCampaign):
        client.status("doesnotexist")


def test_bad_route_and_empty_body(served):
    server, _ = served
    request = urllib.request.Request(server.address + "/nope")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5.0)
    assert excinfo.value.code == 404
    request = urllib.request.Request(
        server.address + "/campaigns", data=b"", method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5.0)
    assert excinfo.value.code == 400


def test_metrics_exposition(served):
    server, client = served
    status = client.submit(PAYLOAD)
    client.wait(status["id"], timeout=30.0)
    with urllib.request.urlopen(server.address + "/metrics",
                                timeout=5.0) as response:
        text = response.read().decode()
    assert "repro_service_shard_executed_total 4" in text
    assert "repro_service_shard_seconds" in text


def test_admission_rejection_is_429_with_retry_after(tmp_path):
    service = CampaignService(str(tmp_path), mode="inline",
                              queue_capacity=2)
    server = ServiceServer(service, port=0).start()
    try:
        client = ServiceClient(server.address, timeout=10.0,
                               admission_retries=0)
        with pytest.raises(AdmissionError) as excinfo:
            client.submit(PAYLOAD)      # 4 shards > capacity 2
        assert excinfo.value.retry_after_s > 0
        # The raw response carries a Retry-After header.
        request = urllib.request.Request(
            server.address + "/campaigns",
            data=json.dumps(PAYLOAD).encode(),
            headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1
    finally:
        server.stop()


def test_client_submit_backs_off_on_429(tmp_path):
    service = CampaignService(str(tmp_path), mode="inline",
                              queue_capacity=2)
    server = ServiceServer(service, port=0).start()
    naps = []
    try:
        client = ServiceClient(server.address, timeout=10.0,
                               admission_retries=2, sleep=naps.append)
        with pytest.raises(AdmissionError):
            client.submit(PAYLOAD)
        # Two backoff sleeps, each honouring the server's estimate.
        assert len(naps) == 2
        assert all(nap > 0 for nap in naps)
    finally:
        server.stop()


def _submit_and_wait(address, payload, results):
    """Child-process client: submit, wait, report (id, status)."""
    client = ServiceClient(address, timeout=30.0)
    status = client.submit(payload)
    final = client.wait(status["id"], timeout=60.0)
    results.put((status["id"], final))


def test_two_process_clients_share_one_execution(tmp_path,
                                                 monkeypatch):
    """Satellite guarantee: two OS processes request the same shards
    simultaneously; exactly one simulation per shard runs, proven by
    the telemetry counters and the executions log."""
    # Slow each shard down so the second submission lands while the
    # first campaign is still in flight.
    monkeypatch.setenv(SHARD_DELAY_ENV, "0.3")
    service = CampaignService(str(tmp_path), mode="process",
                              workers=2)
    server = ServiceServer(service, port=0).start()
    context = multiprocessing.get_context("fork")
    results = context.SimpleQueue()
    clients = [
        context.Process(target=_submit_and_wait,
                        args=(server.address, PAYLOAD, results))
        for _ in range(2)
    ]
    try:
        for process in clients:
            process.start()
        finished = [results.get() for _ in clients]
    finally:
        for process in clients:
            process.join(timeout=60.0)
        server.stop()

    assert [status for _, status in finished] == ["done", "done"]
    ids = {campaign_id for campaign_id, _ in finished}
    assert len(ids) == 2                 # two distinct campaigns...
    executed = TELEMETRY.counter_value("service.shard.executed")
    assert executed == 4                 # ...four shards, run once each
    dedup = (TELEMETRY.counter_value("service.dedup.inflight")
             + TELEMETRY.counter_value("service.dedup.cached"))
    assert dedup >= 4                    # the second campaign's cells
    entries = service.journal.executions()
    keys = [entry["key"] for entry in entries]
    assert len(keys) == 4
    assert len(set(keys)) == 4           # no key executed twice
    for campaign_id in ids:
        tables = service.tables(campaign_id)
        assert tables["degraded"] is False
