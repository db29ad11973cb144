"""``repro serve`` with the span wrappers of :mod:`tracing` installed.

    python3 perfbench/traced_server.py --port 0

Installs the service, query and engine wrappers, then enters the normal
``repro serve`` path with the given arguments.  When the server stops
(SIGTERM), the per-request span records kept in memory are printed as one
line, ``SPANS <json>``, on standard output.
"""

from __future__ import annotations

import json
import sys

import repro.cli
import repro.service.server  # noqa: F401 - bind the names the wrappers patch
from tracing import Recorder, install_query_and_engine, install_service


def main() -> int:
    recorder = Recorder()
    install_query_and_engine(recorder)
    install_service(recorder)
    status = repro.cli.main(["serve", *sys.argv[1:]])
    print("SPANS " + json.dumps([record.as_dict() for record in recorder.ops]))
    return status


if __name__ == "__main__":
    sys.exit(main())
