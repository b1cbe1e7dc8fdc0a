"""Run a callable in a forked child and hand back its result.

The child inherits the imported numpy and conelab and the caller's objects,
so nothing is imported or pickled on the way in; its result comes back
pickled through a pipe.  An error in the child comes back as a marker, never
as a pickled exception: a ConfigError or NumericsError as its class and
message, which ``result`` raises again in the caller, and any other error as
a RuntimeError naming it.  The child ends with ``os._exit``, so it never
flushes the stdio buffers it inherited.
"""

import os
import pickle
import signal

from .errors import ConfigError, NumericsError


def usable_cores():
    """Cores this process may run children on: its affinity mask where the
    platform has one, and 1 where it cannot fork, so that callers run inline."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Child:
    """``fn(*args)`` running in a forked child until ``result`` collects it."""

    def __init__(self, fn, *args):
        read, write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(read)
                try:
                    payload = (True, fn(*args))
                except (ConfigError, NumericsError) as exc:
                    payload = (False, (type(exc), str(exc)))
                except Exception as exc:
                    payload = (False, (None, f"{type(exc).__name__}: {exc}"))
                data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                with os.fdopen(write, "wb") as fh:
                    fh.write(data)
            finally:
                os._exit(0)
        os.close(write)
        self._read = read

    def result(self):
        """Wait for the child; its return value, or its error raised here."""
        with os.fdopen(self._read, "rb") as fh:
            self._read = None
            data = fh.read()
        os.waitpid(self.pid, 0)
        self.pid = None
        if not data:
            raise RuntimeError("forked child ended without a result")
        ok, value = pickle.loads(data)
        if ok:
            return value
        cls, message = value
        if cls is None:
            raise RuntimeError(f"forked child raised {message}")
        raise cls(message)

    def close(self):
        """Kill and reap the child unless ``result`` has collected it."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self._read is not None:
            os.close(self._read)
            self._read = None


def run_each(fn, items):
    """``[fn(item) for item in items]``, each call in its own forked child.

    The caller only waits.  If it raises or is interrupted meanwhile, every
    child still running is killed and reaped before the error propagates.
    """
    children = []
    try:
        for item in items:
            children.append(Child(fn, item))
        return [child.result() for child in children]
    finally:
        for child in children:
            child.close()
