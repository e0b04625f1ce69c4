"""Invariant-aware static analysis and runtime sanitizers.

The concurrent subsystems of this reproduction (the executor thread pool,
the single-flight plan cache, the serving gateway's runner thread) rely on
a small set of invariants that the type system cannot express:

* plans are frozen and content-addressed — no mutation after publication;
* lock-guarded state is only touched under its lock, in its owning class;
* hot paths are deterministic — clocks and rngs are injected, never global;
* no ``concurrent.futures`` result is silently dropped.

This package encodes those invariants once and checks them mechanically:

* :mod:`repro.analysis.lint` — ``repro_lint``, an AST-based checker run as
  ``python -m repro.analysis.lint src/`` (wired into CI).  Rules live in
  :mod:`repro.analysis.checkers`; the repo-specific registry of guarded
  attributes and plan-artifact types in :mod:`repro.analysis.guarded`.
* :mod:`repro.analysis.sanitizer` — a runtime concurrency sanitizer
  (enabled with ``REPRO_SANITIZE=1``): lock-order-inversion detection
  across the pools plus a plan-mutation canary that checksums plan
  artifacts around every executor dispatch.
"""

__all__ = ["lint", "sanitizer"]
