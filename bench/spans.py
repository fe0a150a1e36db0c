"""Span tracer for the benchmark, installed from outside the package.

A span is one call across a layer boundary: name, start, end, parent
and a few attributes taken from the call's arguments or return value.
Boundaries are module attributes through which one convlin module calls
into another (``convlin.harness.train`` is ``convlin.models.train`` as
seen by the harness).  Installing the tracer swaps each such attribute
for a recording wrapper and restores it afterwards; nothing inside the
package changes.

Before swapping, every boundary is verified.  A boundary whose consumer
attribute is missing, no longer is the defining module's function, or
whose function is also bound under a second name in the consumer (so
that calls through the alias would escape the wrapper) raises
`BoundaryError`.  A refactor therefore breaks the traced run loudly
instead of making a layer report zero calls.

Spans are recorded only inside a root span opened with `Tracer.root`,
so calls the benchmark makes for its own output checks are not traced.
They are kept in memory and written out when the run ends.
"""

import contextlib
import dataclasses
import functools
import importlib
import json
import time
import types


class BoundaryError(RuntimeError):
    """A traced boundary no longer matches the package."""


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One layer crossing: ``consumer.path`` is ``defining.func``.

    ``path`` is an attribute name, or ``module_attr.name`` when the
    consumer calls through a module object (``models.classification_error``
    in the harness).  ``tag`` maps ``(args, kwargs, result)`` to a dict of
    span attributes.
    """

    consumer: str
    path: str
    defining: str
    func: str
    tag: object = None

    @property
    def span_name(self):
        return f"{self.defining.rsplit('.', 1)[-1]}.{self.func}"


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class _ModuleView(types.ModuleType):
    """A module seen by one consumer, with some functions overridden."""

    def __init__(self, base, overrides):
        super().__init__(base.__name__, base.__doc__)
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


def _resolve(boundary):
    """Return ``(consumer, holder_attr, function)`` after verifying."""
    try:
        consumer = importlib.import_module(boundary.consumer)
        defining = importlib.import_module(boundary.defining)
    except ImportError as exc:
        raise BoundaryError(f"{boundary}: {exc}") from None
    fn = getattr(defining, boundary.func, None)
    if not callable(fn):
        raise BoundaryError(
            f"{boundary.defining}.{boundary.func} is missing; the traced "
            "boundary no longer exists")
    holder, _, name = boundary.path.rpartition(".")
    scope = consumer
    if holder:
        scope = getattr(consumer, holder, None)
        if scope is not defining:
            raise BoundaryError(
                f"{boundary.consumer}.{holder} is not {boundary.defining}")
    seen = getattr(scope, name, None)
    if seen is not fn:
        raise BoundaryError(
            f"{boundary.consumer}.{boundary.path} is not "
            f"{boundary.defining}.{boundary.func}; it was renamed or "
            "re-imported, so the boundary would go untraced")
    # Through a module object the function should not be bound in the
    # consumer at all; bound directly, only under its own name.
    aliases = sorted(k for k, v in vars(consumer).items()
                     if v is fn and (holder or k != name))
    if aliases:
        raise BoundaryError(
            f"{boundary.defining}.{boundary.func} is also bound as "
            f"{boundary.consumer}.{', '.join(aliases)}; calls through that "
            "name would go untraced")
    return consumer, holder, fn


def verify(boundaries):
    """Check every boundary without installing anything."""
    for b in boundaries:
        _resolve(b)


class Tracer:
    """Records spans for calls across the given boundaries."""

    def __init__(self, boundaries):
        self.boundaries = tuple(boundaries)
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, tag):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            span = Span(len(tracer.spans), name, time.perf_counter(), 0.0, stack[-1])
            tracer.spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if tag is not None:
                span.attrs.update(tag(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        """Verify every boundary, then swap in the recording wrappers."""
        resolved = [(b, *_resolve(b)) for b in self.boundaries]
        views = {}
        for b, consumer, holder, fn in resolved:
            wrapper = self._wrap(fn, b.span_name, b.tag)
            name = b.path.rpartition(".")[2]
            if holder:
                key = (b.consumer, holder)
                if key not in views:
                    views[key] = (consumer, holder, getattr(consumer, holder), {})
                views[key][3][name] = wrapper
            else:
                self._restore.append((consumer, name, fn))
                setattr(consumer, name, wrapper)
        for consumer, holder, base, overrides in views.values():
            self._restore.append((consumer, holder, base))
            setattr(consumer, holder, _ModuleView(base, overrides))

    def uninstall(self):
        while self._restore:
            consumer, name, original = self._restore.pop()
            setattr(consumer, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @contextlib.contextmanager
    def root(self, name, **attrs):
        """A top-level span; wrappers record only inside one."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, -1, attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def nesting_violations(spans):
    """Spans that end before they start or stick out of their parent."""
    by_id = {s.id: s for s in spans}
    bad = []
    for s in spans:
        if s.end < s.start:
            bad.append(s)
            continue
        if s.parent >= 0:
            p = by_id.get(s.parent)
            if p is None or s.start < p.start or s.end > p.end:
                bad.append(s)
    return bad
