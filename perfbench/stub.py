"""Single-threaded asyncio chat endpoint on 127.0.0.1 for the live workload.

It speaks the program's wire contract (POST JSON with ``messages``, reply
``{"content": str}``), sleeps a fixed latency per request and answers from
the benchmark's Answerer. One event loop on one thread serves every
connection, so concurrent requests overlap only in their sleeps; the number
of calls in flight is whatever the program's own client sends.
"""

from __future__ import annotations

import asyncio
import json
import threading


class ChatStub:
    def __init__(self, answerer, latency_s: float):
        self.answerer = answerer
        self.latency_s = latency_s
        self.calls = 0
        self.errors = 0
        self.port = 0
        self._loop = asyncio.new_event_loop()
        self._server = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1/chat"

    def start(self) -> "ChatStub":
        self._server = self._loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0, backlog=64)
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._thread = threading.Thread(target=self._loop.run_forever, name="chat-stub", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        async def shutdown():
            self._server.close()
            await self._server.wait_closed()

        if self._thread is not None:
            asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result(timeout=10)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            if self._thread.is_alive():
                raise RuntimeError("chat stub thread did not stop")
            self._thread = None
        self._loop.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.decode("latin-1").split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            body = json.loads(await reader.readexactly(length))
            reply = self.answerer.answer(body["messages"][-1]["content"])
            self.calls += 1
            await asyncio.sleep(self.latency_s)
            payload = json.dumps({"content": reply}).encode("utf-8")
            status = b"200 OK"
        except (ValueError, KeyError, asyncio.IncompleteReadError) as exc:
            self.errors += 1
            payload = json.dumps({"error": str(exc)}).encode("utf-8")
            status = b"400 Bad Request"
        writer.write(
            b"HTTP/1.1 " + status + b"\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(payload)).encode() + b"\r\nConnection: close\r\n\r\n"
            + payload
        )
        try:
            await writer.drain()
        finally:
            writer.close()
