"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so that callers can
catch everything raised intentionally by this package with a single handler
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ModelError(ReproError):
    """An MRF or CSP instance is malformed or inconsistent.

    Examples: an edge activity matrix of the wrong shape, a negative activity,
    a vertex activity vector that is identically zero, or an instance defined
    on a graph whose vertices are not ``0..n-1``.
    """


class UnknownModelError(ModelError):
    """A request named its model by fingerprint, and the receiver has no such model.

    Raised by :meth:`repro.spec.JobSpec.from_wire` for a well-formed
    fingerprint reference missing from the model registry it was given.
    The sampling service answers HTTP 409, and the client falls back to
    sending the full model.
    """


class InfeasibleStateError(ReproError):
    """An operation required a feasible configuration but none exists.

    Raised for example when a conditional marginal distribution (paper
    eq. (2)) is requested in a context where its normalising constant is
    zero, i.e. the Glauber well-definedness assumption is violated.
    """


class ProtocolError(ReproError):
    """A LOCAL-model protocol misused the runtime.

    Examples: sending a message to a non-neighbour, reading messages before
    the first round has run, or producing an output of the wrong shape.
    """


class ConvergenceError(ReproError):
    """An iterative procedure failed to reach the requested tolerance.

    Raised by mixing-time estimators when the chain has not come within the
    requested total-variation distance after the permitted number of steps.
    """


class StateSpaceTooLargeError(ReproError):
    """An exact (enumerative) computation was requested on too large a model.

    Exact partition functions, exact Gibbs distributions and exact transition
    matrices enumerate ``q**n`` configurations; this error protects callers
    from accidentally requesting astronomically large enumerations.
    """


class ExecError(ReproError):
    """The multiprocess execution subsystem (:mod:`repro.exec`) failed.

    Examples: a worker process died or raised (the original traceback is
    embedded in the message), an operation was issued on a closed pool, or a
    sampling job submitted to :class:`repro.exec.JobRunner` errored.
    """


class ServeError(ReproError):
    """The sampling service (:mod:`repro.serve`) failed a request.

    Examples: a malformed request payload, an unknown route, a job that
    errored server-side (the worker's message is embedded), or a client
    operation on a server that has shut down.
    """


class ServerOverloadedError(ServeError):
    """The sampling service refused a request due to admission control.

    The daemon bounds its in-flight queue (``max_pending``); submissions
    beyond the bound are rejected immediately with HTTP 429 instead of
    queueing without bound.  Clients should back off and retry.
    """


class FallbackEngineWarning(RuntimeWarning):
    """Formerly: a model/method pair had no batched replica-ensemble kernel.

    Nothing raises it any more: :func:`repro.api.make_ensemble` returns a
    batched engine for every valid model/method pair.  The class stays
    importable so that warning filters naming it (the ``perfbench``
    workloads install some) keep working.
    """
