"""A kbench server child whose service spoils one reply: the planted
bug the oracle has to catch.  ``KBENCH_FAULT=flip:N`` flips a bit of
the N-th reply the service produces, ``drop:N`` withholds it."""

from __future__ import annotations

import os

from benchmarks.kbench import server


def faulty(build, kind: str, at: int):
    def wrapped(workload):
        service, datapath = build(workload)
        inner, seen = service.ingress, 0

        def ingress(payload, cpu=0):
            nonlocal seen
            reply, path = inner(payload, cpu)
            seen += 1
            if seen == at:
                reply = (None if kind == "drop"
                         else reply[:-1] + bytes([reply[-1] ^ 1]))
            return reply, path

        service.ingress = ingress
        return service, datapath

    return wrapped


if __name__ == "__main__":
    kind, at = os.environ["KBENCH_FAULT"].split(":")
    server.build = faulty(server.build, kind, int(at))
    raise SystemExit(server.main())
