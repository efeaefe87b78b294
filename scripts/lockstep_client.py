#!/usr/bin/env python3
"""Drive a line-protocol server in lock step.

Usage: lockstep_client.py SERVER_CMD [ARG...] < requests.jsonl > responses.jsonl

Starts SERVER_CMD with pipes on stdin and stdout, sends the request lines
read from our stdin one at a time, and waits for each response line before
sending the next, so a request never overtakes the one before it on the
server's worker pool. Responses are copied to our stdout in order. Exits
with the server's exit status, or 1 if the server closes its output before
answering every request.
"""

import subprocess
import sys


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__.strip())
    requests = [line for line in sys.stdin.read().splitlines() if line.strip()]
    server = subprocess.Popen(
        sys.argv[1:], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        for i, line in enumerate(requests):
            server.stdin.write(line + "\n")
            server.stdin.flush()
            response = server.stdout.readline()
            if not response:
                print(
                    f"lockstep_client: server closed its output after "
                    f"{i} of {len(requests)} responses",
                    file=sys.stderr,
                )
                server.kill()
                server.wait()
                return 1
            sys.stdout.write(response)
            sys.stdout.flush()
        server.stdin.close()
        return server.wait()
    except BaseException:
        server.kill()
        server.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
