"""Cooperative termination-signal handling for campaigns and services.

A campaign killed by ``kill <pid>`` (SIGTERM — the polite kill, what
init systems, container runtimes and CI send first) should behave like
Ctrl-C: unwind through the supervisor's cleanup so held queue leases are
released and the partial checkpoint stays a clean, well-formed prefix —
not die mid-write and leave its leases to TTL-expire. The default
SIGTERM disposition is immediate death; :func:`interrupt_on_signal`
converts it into a ``KeyboardInterrupt`` raised at the next bytecode
boundary, which every long-running engine here already handles.

That boundary can fall anywhere, including between acquiring a resource
and recording that it is held. :func:`deferred_interrupts` closes such
windows: a claim and its bookkeeping run inside it, and a signal that
arrives meanwhile is raised only once the bookkeeping is done.
"""

from __future__ import annotations

import contextlib
import signal
import threading

__all__ = ["deferred_interrupts", "interrupt_on_signal"]


@contextlib.contextmanager
def interrupt_on_signal(signums=(signal.SIGTERM,)):
    """Raise ``KeyboardInterrupt`` in the main thread on *signums*.

    A no-op off the main thread (signal handlers can only be installed
    there); previous handlers are restored on exit, so nesting and
    library use are safe.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):  # noqa: ARG001 - signal handler signature
        raise KeyboardInterrupt(f"signal {signal.Signals(signum).name}")

    previous = {}
    try:
        for signum in signums:
            previous[signum] = signal.signal(signum, _raise)
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


@contextlib.contextmanager
def deferred_interrupts(signums=(signal.SIGTERM, signal.SIGINT)):
    """Hold *signums* that arrive inside the block until it exits.

    For short critical sections that acquire something and record that
    they hold it (claim a queue lease, then append the job to the list a
    cleanup guard releases). Each signal whose handler is a Python
    callable is recorded instead of handled; on exit the previous
    handlers are restored and every recorded signal is passed to its
    handler, so a ``KeyboardInterrupt`` surfaces after the bookkeeping.
    A no-op off the main thread, like :func:`interrupt_on_signal`.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    held: list[int] = []

    def _hold(signum, frame):  # noqa: ARG001 - signal handler signature
        held.append(signum)

    previous = {}
    try:
        for signum in signums:
            handler = signal.getsignal(signum)
            if callable(handler):
                previous[signum] = handler
                signal.signal(signum, _hold)
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        for signum in held:
            previous[signum](signum, None)
