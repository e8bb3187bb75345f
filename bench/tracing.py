"""Spans and counters for the traced run, kept outside the package.

``Tracer.wrap`` replaces a public callable with a counting, timing
wrapper.  A module-level function is replaced in every module of the
package that imported it by name, so calls through ``from .x import f``
are seen too.  ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, List, Optional, Tuple

PACKAGE = "contact_pair_lab"


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.ms: Counter = Counter()
        self.spans: Counter = Counter()
        self._saved: List[Tuple[object, str, object]] = []
        self._depth: Counter = Counter()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, name: str, count: Optional[str] = None,
             timer: Optional[str] = None,
             after: Optional[Callable] = None) -> None:
        """Count calls of ``owner.name`` under ``count`` and add their time
        to ``timer``; nested calls under one timer are timed once.
        ``after(args, result)`` runs after each call."""
        original = owner.__dict__[name]

        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            if timer is None or self._depth[timer]:
                result = original(*args, **kwargs)
            else:
                self._depth[timer] += 1
                t0 = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.ms[timer] += (time.perf_counter() - t0) * 1e3
                    self._depth[timer] -= 1
            if after is not None:
                after(args, result)
            return result

        targets = [owner]
        if not isinstance(owner, type):
            targets += [mod for key, mod in list(sys.modules.items())
                        if key.startswith(PACKAGE) and mod is not owner
                        and getattr(mod, name, None) is original]
        for target in targets:
            self._saved.append((target, name, original))
            setattr(target, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Add the time of the block, in ms, to ``spans[name]``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] += (time.perf_counter() - t0) * 1e3
