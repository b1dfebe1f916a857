"""cProfile hooks: ``--profile out.prof`` and flamegraph export.

Wraps a verification run in the stdlib deterministic profiler and
writes two artifacts, both atomically:

* ``out.prof`` — the binary :mod:`pstats` dump, loadable with
  ``python -m pstats`` or snakeviz;
* ``out.prof.folded`` — collapsed stacks (``frame;frame;frame count``)
  ready for ``flamegraph.pl`` / speedscope, produced by
  :func:`repro.obs.export.collapsed_stack_text`.

The per-phase wall times to read a flamegraph against are in the
metrics document's ``stats`` section and the ``--stats`` footer.

Profiling is strictly opt-in (the disabled path never imports
cProfile at run time) and composes with every other obs facility: the
CLI enables the profiler around the same ``verify_proof`` call the
metrics and depgraph observe.

Caveat: cProfile only sees the *parent* process — with ``--jobs N``
the worker BCP time appears as pool-wait frames.  Profile sequential
runs when chasing engine hot spots.
"""

from __future__ import annotations

import cProfile
import os
import tempfile
from contextlib import contextmanager


@contextmanager
def profile_session():
    """Context manager yielding an enabled :class:`cProfile.Profile`.

    The profiler is disabled on exit even when the body raises
    (KeyboardInterrupt included), so a partial profile survives an
    interrupted run.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()


def write_profile(path, profiler: cProfile.Profile) -> list[str]:
    """Write the profile artifact set; returns the paths written.

    The binary dump lands via a temp file + ``os.replace`` (pstats'
    own writer is not atomic); the folded sidecar goes through
    :func:`~repro.obs.export.atomic_write_text`.
    """
    from repro.obs.export import atomic_write_text, collapsed_stack_text

    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path),
                               suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        profiler.dump_stats(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    folded = path + ".folded"
    atomic_write_text(folded, collapsed_stack_text(profiler))
    return [path, folded]
