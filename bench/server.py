"""The system under test as one child process, for the socket workloads.

``python -m bench.server <json>`` builds the world the JSON names,
starts a :class:`NetServer` in front of it and prints one line,
``{"port": ...}``, when it is ready to accept.  It serves until its
stdin closes, then prints ``{"peak_rss_mb": ...}`` and exits.  It
generates nothing and times nothing: inputs arrive over TCP
from the generator, whose GIL is therefore not the server's.
"""

from __future__ import annotations

import json
import sys

from repro.net.server import NetServer

from bench import spec
from bench.world import build_world, peak_rss_mb


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    world = build_world(
        spec.SHAPES[request["shape"]],
        request["directory"],
        replicated=request["replicated"],
        async_cdc=request["async_cdc"],
    )
    if world.coordinator is not None:
        world.start_heartbeat()
    server = NetServer(world.front_end)
    _host, port = server.start()
    print(json.dumps({"port": port}), flush=True)
    try:
        sys.stdin.read()  # the parent closes our stdin to stop us
    finally:
        world.close()
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    # No NetServer.stop(): its join on the accept thread waits out a
    # 5 s timeout (closing a listening socket does not wake accept() on
    # Linux).  Every server thread is a daemon; the generator has closed
    # its connections, and process exit closes the rest.
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
