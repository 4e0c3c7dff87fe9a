"""Chaos injection for the sweep engine: break workers on purpose.

The resilience layer in :mod:`repro.jobs.scheduler` (crash recovery,
watchdog timeouts, retry backoff, quarantine) is only trustworthy if it
is exercised against *real* failures — a worker that actually dies with
SIGKILL, actually hangs past its deadline, actually corrupts a cache
entry.  A :class:`ChaosPlan` is a picklable set of rules that travels to
the workers inside the job payload and fires on chosen (job, attempt)
pairs:

* ``raise`` — raise :class:`ChaosError` (a transient failure: retried);
* ``hang``  — sleep for ``value`` seconds (default far past any
  deadline), so the parent's watchdog must kill the worker;
* ``kill``  — ``SIGKILL`` the worker process itself (the classic
  OOM-killer signature; breaks the whole pool);
* ``exit``  — ``os._exit(value)`` (default 137), a hard exit without
  cleanup — also breaks the pool;
* ``corrupt`` — parent-side: after the job completes, its result-cache
  entry is truncated, which a later lookup must count as a corrupt miss,
  not an error.

Rules match on the job's human label (``mixA/S-NUCA`` — see
:meth:`repro.jobs.spec.JobSpec.label`) with shell-style globs, and on
the zero-based attempt number, so a test can make exactly the first
attempt of one cell die and assert the retry heals it.

The CLI accepts the same rules as a compact spec string
(``--chaos 'mixA/*@0=kill;mixB/S-NUCA@*=raise'``), which is how the CI
chaos-smoke job drives a real sweep through crash, hang and poison
paths.  Everything here is deterministic: no randomness, no clocks in
the match logic — reruns inject exactly the same faults.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.common.errors import ReproError

#: Recognised rule actions.
ACTIONS = ("raise", "hang", "kill", "exit", "corrupt")

#: Default hang duration: far past any sane watchdog deadline.
DEFAULT_HANG_S = 3600.0

#: Default ``exit`` status: 128+SIGKILL, the OOM-kill convention.
DEFAULT_EXIT_CODE = 137


class ChaosError(RuntimeError):
    """The injected failure for ``raise`` rules.

    Deliberately *not* a :class:`~repro.common.errors.ReproError`: the
    scheduler treats it as transient and retries it, exactly like a
    real flaky infrastructure error.
    """


@dataclass(frozen=True)
class ChaosRule:
    """One injection: which cells, which attempts, what goes wrong."""

    #: Shell-style glob matched against the job label (``mixA/S-NUCA``).
    pattern: str
    #: Action from :data:`ACTIONS`.
    action: str
    #: Zero-based attempt numbers to fire on; ``None`` fires on all.
    attempts: tuple[int, ...] | None = None
    #: Action argument: hang seconds, or exit status.
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ReproError(
                f"unknown chaos action {self.action!r} "
                f"(expected one of {ACTIONS})"
            )

    def matches(self, label: str, attempt: int) -> bool:
        """True when this rule fires for (job label, attempt number)."""
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return fnmatchcase(label, self.pattern)


@dataclass(frozen=True)
class ChaosPlan:
    """An ordered rule set; the first matching rule wins."""

    rules: tuple[ChaosRule, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.rules)

    def rule_for(self, label: str, attempt: int) -> ChaosRule | None:
        """The first rule firing for this (label, attempt), if any."""
        for rule in self.rules:
            if rule.matches(label, attempt):
                return rule
        return None

    def apply(self, label: str, attempt: int) -> None:
        """Worker-side hook: execute the matching failure, if any.

        Called by the execution path just before the simulation runs.
        ``corrupt`` is a no-op here — it sabotages the *parent's* cache
        write after the job completes (see the scheduler).
        """
        rule = self.rule_for(label, attempt)
        if rule is None:
            return
        if rule.action == "raise":
            raise ChaosError(
                f"chaos: injected failure for {label} attempt {attempt}"
            )
        if rule.action == "hang":
            time.sleep(rule.value or DEFAULT_HANG_S)
            # A watchdog should have killed us long ago; if the parent
            # runs without one, surface the injection as a failure
            # rather than silently succeeding after the nap.
            raise ChaosError(
                f"chaos: hang elapsed for {label} attempt {attempt}"
            )
        if rule.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if rule.action == "exit":
            os._exit(int(rule.value or DEFAULT_EXIT_CODE))

    # -- spec strings --------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ChaosPlan":
        """Build a plan from a compact spec string.

        Grammar: rules separated by ``;``, each
        ``PATTERN@ATTEMPTS=ACTION[:VALUE]`` where ``ATTEMPTS`` is ``*``
        or a comma-separated list of zero-based attempt numbers::

            mixA/S-NUCA@0=kill              SIGKILL the first attempt
            mix*/Re-NUCA@0,1=raise          fail the first two attempts
            mixB/S-NUCA@*=hang:30           hang every attempt for 30 s
            mixC/S-NUCA@*=raise;mixA/*@0=corrupt

        Raises:
            ReproError: for a malformed rule.
        """
        rules = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            rules.append(_parse_rule(part))
        if not rules:
            raise ReproError(f"chaos spec {text!r} contains no rules")
        return cls(rules=tuple(rules))


def _parse_rule(part: str) -> ChaosRule:
    head, sep, action_part = part.partition("=")
    if not sep:
        raise ReproError(
            f"bad chaos rule {part!r} (want PATTERN@ATTEMPTS=ACTION[:VALUE])"
        )
    pattern, sep, attempts_part = head.partition("@")
    if not sep or not pattern:
        raise ReproError(
            f"bad chaos rule {part!r} (want PATTERN@ATTEMPTS=ACTION[:VALUE])"
        )
    attempts: tuple[int, ...] | None
    attempts_part = attempts_part.strip()
    if attempts_part == "*":
        attempts = None
    else:
        try:
            attempts = tuple(
                int(a) for a in attempts_part.split(",") if a.strip() != ""
            )
        except ValueError as exc:
            raise ReproError(
                f"bad chaos rule {part!r}: attempts must be '*' or "
                f"comma-separated integers"
            ) from exc
        if not attempts or any(a < 0 for a in attempts):
            raise ReproError(
                f"bad chaos rule {part!r}: attempts must be '*' or "
                f"non-negative integers"
            )
    action, _, value_part = action_part.partition(":")
    action = action.strip()
    value = 0.0
    if value_part:
        try:
            value = float(value_part)
        except ValueError as exc:
            raise ReproError(
                f"bad chaos rule {part!r}: value {value_part!r} "
                "is not a number"
            ) from exc
    try:
        return ChaosRule(
            pattern=pattern.strip(), action=action,
            attempts=attempts, value=value,
        )
    except ReproError as exc:
        raise ReproError(f"bad chaos rule {part!r}: {exc}") from exc


def as_chaos(plan: "ChaosPlan | str | None") -> ChaosPlan | None:
    """Coerce a plan-or-spec-string argument (the scheduler contract)."""
    if plan is None or isinstance(plan, ChaosPlan):
        return plan
    return ChaosPlan.parse(plan)
