#!/usr/bin/env python3
"""Hostile-peer check for a running syn_daemon or syn_coordinator.

usage: hostile_peer.py SOCKET PID

Sends one line of 200,000 nested '[' (the server must answer a parse
error, not crash) and one 2 MiB line with no newline (the server must
answer an error or hang up that connection only), then runs 1,000
connect/PING/close cycles. Exits 1 unless the server process is still
alive and its VmSize grew by less than 64 MB over the cycles.
"""
import json
import os
import socket
import sys

CYCLES = 1000
MAX_GROWTH_MB = 64.0


def connect(path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(path)
    return sock


def request(sock, line):
    """Sends one line; returns the parsed reply, or None on EOF."""
    sock.sendall(line + b"\n")
    reply = b""
    while not reply.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            return None
        reply += chunk
    return json.loads(reply)


def ping(sock):
    reply = request(sock, b'{"cmd":"ping"}')
    if not reply or not reply.get("ok"):
        sys.exit(f"ping failed: {reply}")


def vm_size_mb(pid):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) / 1024
    sys.exit(f"no VmSize for pid {pid}")


def main():
    path, pid = sys.argv[1], int(sys.argv[2])

    with connect(path) as sock:
        reply = request(sock, b"[" * 200_000)
        if reply is None or reply.get("ok") is not False:
            sys.exit(f"deep nesting: expected an error reply, got {reply}")
        ping(sock)  # the connection survives a malformed line
    print("deep nesting: error reply, connection kept")

    with connect(path) as sock:
        try:
            sock.sendall(b"x" * (2 << 20))  # no newline
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server hung up mid-line
        try:
            data = sock.recv(65536)
        except ConnectionResetError:
            data = b""
        if data and json.loads(data.split(b"\n")[0]).get("ok") is not False:
            sys.exit(f"2 MiB line: expected an error or EOF, got {data[:200]}")
    print("2 MiB line: " + ("error reply" if data else "connection closed"))

    # Warm-up: the allocator reserves address space for the peak number of
    # live threads (a 64 MB malloc arena per concurrently allocating
    # thread, cached stacks), not per connection. Reach a peak the
    # sequential cycles never exceed before taking the baseline.
    burst = [connect(path) for _ in range(8)]
    for sock in burst:
        ping(sock)
    for sock in burst:
        sock.close()

    before = vm_size_mb(pid)
    for _ in range(CYCLES):
        with connect(path) as sock:
            ping(sock)
    os.kill(pid, 0)  # raises if the server died
    growth = vm_size_mb(pid) - before
    print(f"{CYCLES} connect/PING cycles: VmSize {before:.0f} MB, "
          f"grew {growth:+.1f} MB")
    if growth >= MAX_GROWTH_MB:
        sys.exit(f"VmSize grew {growth:.1f} MB (limit {MAX_GROWTH_MB:.0f})")


if __name__ == "__main__":
    main()
