#!/usr/bin/env python
"""Data-update notifications, push and pull (future-work §7).

A data store receives new rows while a client is subscribed to its
Execution service.  The push model delivers each update to the client's
NotificationSink through a real SOAP call; the pull model queues updates
in a sink the client polls.  Either way the Execution invalidates its PR
cache, so the client's re-query sees fresh data.

Run: ``python examples/notifications_streaming.py``
"""

from repro.core import PPerfGridClient, PPerfGridSite, SiteConfig
from repro.datastores import generate_hpl
from repro.mapping import HplRdbmsWrapper
from repro.ogsi import GridEnvironment, NotificationSinkBase, PullNotificationSink


def main() -> None:
    env = GridEnvironment()
    hpl = generate_hpl(num_executions=10)
    database = hpl.to_database()
    site = PPerfGridSite(
        env, SiteConfig("siteA:8080", "HPL"), HplRdbmsWrapper(database)
    )
    client = PPerfGridClient(env)
    app = client.bind(site.factory_url, "HPL")
    execution = app.all_executions()[0]

    # ---------------- push model ------------------------------------------
    received: list[tuple[str, str]] = []
    push_sink = NotificationSinkBase(callback=lambda t, m: received.append((t, m)))
    client_container = env.create_container("client.example.org:7070")
    push_gsh = client_container.deploy("services/push-sink", push_sink)
    sub_id = execution.subscribe("data-update", push_gsh.url())
    print(f"Push subscription created: {sub_id}")

    # ---------------- pull model ------------------------------------------
    pull_sink = PullNotificationSink()
    pull_gsh = client_container.deploy("services/pull-sink", pull_sink)
    execution.subscribe("data-update", pull_gsh.url())

    # Initial query (populates the PR cache).
    before = execution.get_pr("gflops", ["/Run"])
    print(f"gflops before update: {before[0].value}")

    # ------------- the data store is updated (a streaming tool writes) ----
    exec_id = execution.info()["runid"]
    database.execute(
        "UPDATE hpl_runs SET gflops = gflops * 1.5 WHERE runid = ?", [int(exec_id)]
    )
    # The publisher-side Execution service announces the change: cache is
    # invalidated, SDEs refreshed, subscribers notified over SOAP.
    exec_container = env.container_for("siteA:8080")
    for path in exec_container.service_paths():
        service = exec_container.service_at(path)
        if getattr(service, "exec_id", None) == exec_id:
            delivered = service.data_updated("gflops recalibrated")
            print(f"data_updated delivered {delivered} push notification(s)")

    print(f"Push sink received: {received}")
    print(f"Pull sink poll:     {pull_sink.poll()}")

    after = execution.get_pr("gflops", ["/Run"])
    print(f"gflops after update:  {after[0].value} (cache was invalidated)")
    assert after[0].value != before[0].value


if __name__ == "__main__":
    main()
