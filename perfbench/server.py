"""Run the repro HTTP service with a bounded in-memory result tier.

``python -m repro.service`` keeps the default result LRU (4096 entries),
larger than any warm key set; the warm workload needs a memory tier
smaller than its keys so that a steady share of hits come from disk.
This launcher builds the same server from
``ServiceState(result_maxsize=gen.WARM_RESULT_MAXSIZE)`` and the stock
``ReproRequestHandler``, and prints the same startup line.

    python perfbench/server.py --store DIR
"""

from __future__ import annotations

import argparse
from http.server import ThreadingHTTPServer

from gen import WARM_RESULT_MAXSIZE
from repro.service.http import ReproRequestHandler, ServiceState


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    args = parser.parse_args()

    server = ThreadingHTTPServer(("127.0.0.1", 0), ReproRequestHandler)
    server.state = ServiceState(store=args.store, result_maxsize=WARM_RESULT_MAXSIZE)
    server.verbose = False
    server.daemon_threads = True
    host, port = server.server_address[:2]
    print(f"repro.service on http://{host}:{port} (store: {args.store})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.state.jobs.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
