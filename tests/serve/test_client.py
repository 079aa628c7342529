"""Load-generator tests: :func:`repro.serve.client.run_load` over real TCP."""

from __future__ import annotations

import asyncio

from repro.serve import protocol
from repro.serve.client import run_load

from .conftest import running_server


class TestRunLoad:
    def test_large_responses_are_read(self):
        """A 20,000-key sort response is ~350 KB, far past asyncio's default
        64 KiB line limit; every request must still come back ok."""

        async def main():
            async with running_server() as server:
                return await run_load(
                    server.host, server.port, tenant="precise",
                    requests=2, concurrency=1, n=20_000,
                )

        report = asyncio.run(main())
        assert (report.ok, report.errors, report.rejected) == (2, 0, 0)

    def test_response_limit_covers_the_largest_sort(self):
        """The reader's limit fits a maximum-size sort response: every key
        as 10 digits and every id as 6, each with its separator."""
        keys = [(1 << 32) - 1] * protocol.MAX_KEYS_PER_REQUEST
        ids = [protocol.MAX_KEYS_PER_REQUEST - 1] * len(keys)
        frame = protocol.encode_frame({"ok": True, "keys": keys, "ids": ids})
        assert len(frame) > protocol.MAX_FRAME_BYTES
        assert len(frame) < protocol.MAX_RESPONSE_BYTES - 4096
