"""One traced storage-node server for the TCP workload.

    python3 perfbench/serve.py --topology T.json --node NODE --summary OUT.json --spans OUT.bin

Installs the layer wrappers of :mod:`tracing`, then runs the program's
own ``serve_node``.  The driver brackets the traced window with two
``@ctrl ping`` frames carrying ``"mark": "start"`` and ``"mark": "end"``
(the server answers them like any ping): at the start mark the spans and
counts restart, at the end mark they are summed together with the
process's CPU time since the start mark.  The event-loop lag sampler
runs while the transport is open.  On exit the process writes the
summary to ``--summary`` and the window's spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--topology", required=True)
    parser.add_argument("--node", required=True)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)

    from common import peak_rss_mb
    from repro.transport import codec, runner, tcp
    from tracing import LagSampler, Recorder

    recorder = Recorder()
    sampler = LagSampler(recorder.lag_ms)
    window = {"cpu_started": 0.0, "summary": None, "spans": 0, "cpu_s": 0.0}
    start, close = tcp.AsyncioTcpTransport.start, tcp.AsyncioTcpTransport.close

    async def start_with_sampler(transport) -> None:
        await start(transport)
        sampler.start()

    async def close_with_sampler(transport) -> None:
        await sampler.stop()
        await close(transport)

    recorder.install()
    traced_decode = codec.decode_frame_payload

    def decode_watching_marks(payload):
        # Outside the recorder's span, so a reset never cuts one open.
        envelope = traced_decode(payload)
        message = envelope.get("msg")
        mark = message.get("mark") if isinstance(message, dict) else None
        if mark == "start":
            recorder.reset()
            window["cpu_started"] = time.process_time()
        elif mark == "end":
            window["cpu_s"] = time.process_time() - window["cpu_started"]
            window["summary"] = recorder.summary()
            window["spans"] = len(recorder.span_start)
        return envelope

    codec.decode_frame_payload = decode_watching_marks
    tcp.AsyncioTcpTransport.start = start_with_sampler
    tcp.AsyncioTcpTransport.close = close_with_sampler
    try:
        code = runner.serve_node(args.topology, args.node)
    finally:
        tcp.AsyncioTcpTransport.start, tcp.AsyncioTcpTransport.close = start, close
        codec.decode_frame_payload = traced_decode
        recorder.unwrap()
    if window["summary"] is None:
        print(f"perfbench serve: {args.node} saw no end mark", file=sys.stderr)
        return 1
    recorder.dump(args.spans, window["spans"])
    with open(args.summary, "w", encoding="utf-8") as handle:
        json.dump(
            {"trace": window["summary"], "cpu_s": window["cpu_s"], "peak_rss_mb": peak_rss_mb()},
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
