"""Shared test configuration.

The ``ci`` hypothesis profile (``pytest --hypothesis-profile=ci``) prints a
reproduction blob for every failing property, so a failure seen in CI can
be replayed locally with ``@reproduce_failure``; it lifts the per-example
deadline, which timing noise on shared runners would otherwise trip.  Each
property keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
