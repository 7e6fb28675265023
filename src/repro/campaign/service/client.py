"""Client side of the campaign service: ``ServiceClient`` + subcommands.

:class:`ServiceClient` wraps the socket protocol in one method per
operation; the module-level :func:`service_main` implements the CLI
subcommands (``python -m repro.campaign serve|submit|status|watch|
cancel|drain|shutdown``) that :mod:`repro.campaign.cli` dispatches to
when its first argument is a known subcommand — the original flag-only
one-shot invocation is untouched.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from typing import Iterator, List, Optional

from repro.campaign.service import protocol

#: First-argument tokens that route ``python -m repro.campaign`` into the
#: service CLI instead of the one-shot campaign runner.
SERVICE_COMMANDS = ("serve", "submit", "status", "watch", "cancel",
                    "drain", "shutdown")

#: Default unix-socket path of a locally run service.
DEFAULT_SOCKET = "/tmp/repro-campaign.sock"


class ServiceError(RuntimeError):
    """The service refused a request (its ``error`` response text)."""


class ServiceClient:
    """A blocking client for one campaign service socket.

    Every method opens its own connection, so a client object is cheap
    and stateless; ``watch`` keeps its connection open for the duration
    of the stream.
    """

    def __init__(self, socket_path: str = DEFAULT_SOCKET) -> None:
        """Point the client at a service socket.

        Args:
            socket_path: The unix socket the daemon listens on.
        """
        self.socket_path = socket_path

    def _connect(self) -> socket.socket:
        """Open one connection to the service."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(self.socket_path)
        return sock

    def _roundtrip(self, message: dict) -> dict:
        """Send one request and return its (successful) response.

        Args:
            message: The request frame.

        Returns:
            The response dict (``ok`` is true).

        Raises:
            ServiceError: If the service responds with an error.
            protocol.ProtocolError: If the connection dies mid-response.
        """
        with self._connect() as sock:
            protocol.send_frame(sock, message)
            response = protocol.recv_frame(sock)
        return _checked(response)

    def submit(self, spec, master_seed: int = 0, *,
               priority: int = 0) -> dict:
        """Submit a campaign; returns ``{"job": fingerprint, ...}``.

        Args:
            spec: The :class:`~repro.campaign.spec.CampaignSpec` to run.
            master_seed: The campaign master seed.
            priority: Queue priority (higher runs earlier).

        Returns:
            The service's response (job id, state, queue position).
        """
        return self._roundtrip(protocol.request(
            "submit", spec=protocol.encode_spec(spec),
            master_seed=int(master_seed), priority=int(priority)))

    def status(self, job: Optional[str] = None) -> dict:
        """Fetch one job's status (by id or prefix), or the service's.

        Args:
            job: Job fingerprint or unambiguous prefix (``None`` = the
                whole service).

        Returns:
            The status response.
        """
        fields = {} if job is None else {"job": job}
        return self._roundtrip(protocol.request("status", **fields))

    def cancel(self, job: str) -> dict:
        """Cancel a job (immediate when queued, cooperative when running).

        Args:
            job: Job fingerprint or unambiguous prefix.

        Returns:
            The cancel response (the job's resulting state).
        """
        return self._roundtrip(protocol.request("cancel", job=job))

    def drain(self) -> dict:
        """Block until every accepted job reaches a terminal state.

        Returns:
            The drain response mapping job ids to terminal states.
        """
        return self._roundtrip(protocol.request("drain"))

    def shutdown(self) -> dict:
        """Ask the daemon to shut down gracefully.

        Returns:
            The acknowledgement response.
        """
        return self._roundtrip(protocol.request("shutdown"))

    def watch(self, job: str) -> Iterator[dict]:
        """Stream a job's events until its terminal ``done`` event.

        Args:
            job: Job fingerprint or unambiguous prefix.

        Yields:
            Event dicts (``snapshot``, ``trial``, ``checkpoint``,
            ``recovery``, ``state``, then ``done``).

        Raises:
            ServiceError: If the service rejects the watch request.
        """
        with self._connect() as sock:
            protocol.send_frame(sock, protocol.request("watch", job=job))
            _checked(protocol.recv_frame(sock))
            while True:
                event = protocol.recv_frame(sock)
                if event is None:
                    return
                yield event
                if event.get("event") == "done":
                    return


def _checked(response: Optional[dict]) -> dict:
    """Validate a response frame, raising on errors and dead connections.

    Args:
        response: The decoded response, or ``None`` on EOF.

    Returns:
        The response, when it reports success.

    Raises:
        protocol.ProtocolError: On EOF before a response.
        ServiceError: On an ``ok: false`` response.
    """
    if response is None:
        raise protocol.ProtocolError(
            "service closed the connection without responding")
    if not response.get("ok", False):
        raise ServiceError(str(response.get("error", "request failed")))
    return response


# --------------------------------------------------------------------------
# CLI subcommands
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    """Build the service subcommand parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Campaign service commands (run a daemon, talk to one).")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run a campaign service daemon in the foreground")
    serve.add_argument("--socket", default=DEFAULT_SOCKET,
                       help="unix socket path to listen on")
    serve.add_argument("--stores-dir", required=True,
                       help="directory of the service's job database")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes in the shared warm pool")

    # Imported here: the one-shot CLI imports this module.
    from repro.campaign.cli import add_preset_flags
    from repro.campaign.presets import PRESETS

    submit = commands.add_parser(
        "submit", help="queue a preset campaign on a running service")
    submit.add_argument("--socket", default=DEFAULT_SOCKET)
    submit.add_argument("--experiment", "--preset", dest="experiment",
                        required=True, choices=sorted(PRESETS),
                        help="campaign preset to submit")
    add_preset_flags(submit, sweeps=False)
    submit.add_argument("--priority", type=int, default=0,
                        help="queue priority (higher runs earlier)")

    for name, needs_job in (("status", False), ("watch", True),
                            ("cancel", True)):
        sub = commands.add_parser(name)
        sub.add_argument("--socket", default=DEFAULT_SOCKET)
        if needs_job:
            sub.add_argument("job", help="job fingerprint (or prefix)")
        else:
            sub.add_argument("job", nargs="?", default=None,
                             help="job fingerprint (or prefix); omit for "
                                  "the whole service")
    for name in ("drain", "shutdown"):
        sub = commands.add_parser(name)
        sub.add_argument("--socket", default=DEFAULT_SOCKET)
    return parser


def _print_event(event: dict) -> None:
    """Render one watch event as a progress line."""
    kind = event.get("event")
    if kind == "snapshot":
        print(f"[watch] {event['done']}/{event['total']} trials done "
              f"({len(event['cells'])} cell(s) started)")
    elif kind == "trial":
        cell = event["cell"]
        print(f"[watch] {event['done']}/{event['total']} "
              f"{cell['label']}: {cell['trials']} trial(s), "
              f"{cell['failures']} failure(s)")
    elif kind == "recovery":
        print(f"[watch] recovery: {event['kind']} {event['detail']}")
    elif kind == "checkpoint":
        print(f"[watch] checkpoint: {event['rows']} row(s) committed")
    elif kind == "state":
        print(f"[watch] job is {event['state']}")
    elif kind == "done":
        suffix = f": {event['error']}" if "error" in event else ""
        print(f"[watch] job finished: {event['state']}{suffix}")


def service_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the service subcommands.

    Args:
        argv: Argument list (``None`` = ``sys.argv[1:]``).

    Returns:
        Process exit status: 0 on success, 1 when a watched or awaited
        job ends in a non-complete state, 2 on usage/connection errors.
    """
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        from repro.campaign.service.server import serve_main
        return serve_main(args.socket, args.stores_dir,
                          max_workers=args.workers)
    client = ServiceClient(args.socket)
    try:
        if args.command == "submit":
            from repro.campaign.presets import PRESETS
            try:
                spec = PRESETS[args.experiment].from_flags(vars(args))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            response = client.submit(spec, args.seed, priority=args.priority)
            print(json.dumps(response, sort_keys=True))
            return 0
        if args.command == "status":
            print(json.dumps(client.status(args.job), sort_keys=True,
                             indent=2))
            return 0
        if args.command == "watch":
            final = "failed"
            for event in client.watch(args.job):
                _print_event(event)
                if event.get("event") == "done":
                    final = str(event.get("state"))
            return 0 if final == "complete" else 1
        if args.command == "cancel":
            print(json.dumps(client.cancel(args.job), sort_keys=True))
            return 0
        if args.command == "drain":
            response = client.drain()
            print(json.dumps(response, sort_keys=True))
            states = set(response.get("jobs", {}).values())
            return 0 if states <= {"complete", "cancelled"} else 1
        if args.command == "shutdown":
            print(json.dumps(client.shutdown(), sort_keys=True))
            return 0
    except (ServiceError, protocol.ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionRefusedError, FileNotFoundError):
        print(f"error: no campaign service at {args.socket}",
              file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")
