"""Context-local active observer.

Planner objects are owned by resource vertices, not by the simulator, so
threading an observer handle down to every ``Planner.avail_time_first``
call would contaminate a dozen signatures.  Instead the simulator
activates its observer here for the duration of a cycle, and
planner-layer instrumentation reads ``ACTIVE.get()`` — one C-level
:class:`contextvars.ContextVar` lookup on the hot path, and the default
:data:`~repro.obs.NULL_OBSERVER` makes every downstream call a no-op.

:data:`ACTIVE` is a :class:`~contextvars.ContextVar`, so each thread (and
each asyncio task) sees its own activation: two simulators running
concurrently on separate threads never observe each other's metrics
(``tests/test_obs.py::test_activation_is_thread_local`` holds that).

Nesting is strict LIFO per context: :func:`activate` returns a token and
:func:`deactivate` restores the previous observer, raising
:class:`ObserverStateError` on a misnested or unmatched ``deactivate``
instead of silently popping the wrong observer.
"""

from __future__ import annotations

import os
from contextvars import ContextVar, Token
from typing import Optional, Tuple

from ..errors import FluxionError
from .metrics import NULL_REGISTRY, NullRegistry, MetricsRegistry  # noqa: F401
from .trace import NULL_TRACER, NullTracer, Tracer  # noqa: F401
from .why import NULL_WHY, DecisionRecorder, NullDecisionRecorder  # noqa: F401

__all__ = ["Observer", "ObserverStateError", "NULL_OBSERVER", "ACTIVE",
           "activate", "deactivate", "active", "env_enabled", "resolve"]


class ObserverStateError(FluxionError):
    """Raised on a misnested or unmatched observer ``deactivate()``."""


class Observer:
    """Metrics registry + tracer + decision recorder, one ``enabled`` switch.

    ``why`` follows the same null-twin contract as the other two legs:
    pass ``why=False`` to run an otherwise-enabled observer without
    decision provenance (the overhead benchmark compares exactly this),
    or a :class:`~repro.obs.why.DecisionRecorder` to share/configure one.
    """

    __slots__ = ("enabled", "metrics", "tracer", "why")

    def __init__(
        self,
        enabled: bool = True,
        metrics: "MetricsRegistry | NullRegistry | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
        why: "DecisionRecorder | NullDecisionRecorder | bool | None" = None,
    ) -> None:
        self.enabled = enabled
        if enabled:
            self.metrics = metrics if metrics is not None else MetricsRegistry()
            self.tracer = tracer if tracer is not None else Tracer()
            if why is None or why is True:
                self.why = DecisionRecorder()
            elif why is False:
                self.why = NULL_WHY
            else:
                self.why = why
        else:
            self.metrics = NULL_REGISTRY
            self.tracer = NULL_TRACER
            self.why = NULL_WHY


NULL_OBSERVER = Observer(enabled=False)

#: The active observer for the current thread/task; hot paths call
#: ``ACTIVE.get()``.
ACTIVE: "ContextVar[Observer]" = ContextVar(
    "fluxobs_active", default=NULL_OBSERVER
)

#: Per-context stack of activation tokens, used to enforce strict LIFO
#: nesting.  A tuple (not a list) so each context owns an immutable value —
#: mutation happens by setting a new tuple, never by aliasing shared state.
_TOKENS: "ContextVar[Tuple[Token, ...]]" = ContextVar(
    "fluxobs_tokens", default=()
)


def activate(observer: Observer) -> "Token[Observer]":
    """Make ``observer`` active for the current context; returns a token.

    Pass the token back to :func:`deactivate` to assert the expected
    nesting; calling ``deactivate()`` with no token restores the most
    recent activation in this context.
    """
    token = ACTIVE.set(observer)
    _TOKENS.set(_TOKENS.get() + (token,))
    return token


def deactivate(token: "Optional[Token[Observer]]" = None) -> None:
    """Restore the observer active before the matching :func:`activate`.

    Raises :class:`ObserverStateError` when there is no activation to undo
    in this context, or when ``token`` is not the most recent activation
    (strict LIFO — a silently mispopped observer would cross-contaminate
    whoever activated in between).
    """
    tokens = _TOKENS.get()
    if not tokens:
        raise ObserverStateError(
            "deactivate() without a matching activate() in this context"
        )
    if token is None:
        token = tokens[-1]
    elif token is not tokens[-1]:
        raise ObserverStateError(
            "misnested deactivate(): the supplied token is not the most "
            "recent activation in this context; deactivate inner "
            "activations first"
        )
    try:
        ACTIVE.reset(token)
    except ValueError as exc:
        # reset in a different context, or a token used twice
        raise ObserverStateError(
            f"observer activation cannot be undone here: {exc}"
        ) from exc
    _TOKENS.set(tokens[:-1])


def active() -> Observer:
    """The currently active observer (NULL_OBSERVER when none)."""
    return ACTIVE.get()


def env_enabled() -> bool:
    """Whether ``FLUXOBS`` requests observability (same idiom as FLUXSAN)."""
    return os.environ.get("FLUXOBS", "") not in ("", "0")


def resolve(observe: "Observer | bool | None") -> Observer:
    """Normalize a user-facing ``observe=`` argument to an Observer.

    ``None`` defers to the ``FLUXOBS`` environment variable; ``True``
    builds a fresh enabled observer; ``False`` gives the null one; an
    :class:`Observer` instance passes through (shared registries allowed).
    """
    if isinstance(observe, Observer):
        return observe
    if observe is None:
        observe = env_enabled()
    return Observer(enabled=True) if observe else NULL_OBSERVER
