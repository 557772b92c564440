"""One engine for independent jobs, run on every CPU this process may use.

The jobs are dealt out in turn to one process per CPU, at most one per job:
this process runs share 0, and a forked worker each other share.  So a job
may be any callable; only its result crosses a pipe, pickled.
"""

import os
import pickle
import signal
import warnings


def _worker_count(n_jobs):
    """Processes that run ``n_jobs`` jobs: one per CPU this process may run on, at most one
    per job, and 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, n_jobs)


def _run_share(job, jobs, share, workers):
    """{i: (result, warnings, exception)} of the share's jobs, up to the first that failed."""
    outcomes = {}
    for i in range(share, len(jobs), workers):
        result = error = None
        with warnings.catch_warnings(record=True) as raised:
            try:
                result = job(jobs[i])
            except Exception as exc:  # raised where the results are yielded
                error = exc
        outcomes[i] = (result, [(w.message, w.category, w.filename, w.lineno) for w in raised],
                       error)
        if error is not None:
            break  # no later result is yielded
    return outcomes


def in_processes(job, jobs, name, doing):
    """Yield ``job(jobs[i])`` in job order; each process runs its share up to its first failure.

    Every worker has been reaped before the first result is yielded; on a
    raise, those still running are killed first.  Before each result, the
    warnings its job raised are re-issued here as raised, one registry per
    file, so a repeated warning shows once, as in one process.  The first
    failure in job order is raised then, of its class, with ``name(job)``
    before its text.  A worker that ended without its result raises
    ``RuntimeError``, naming ``doing(the jobs it held)``.
    """
    workers = _worker_count(len(jobs))
    shares = [None] * workers  # a share whose worker sent nothing stays None
    children = {}  # pid: (share, read end of its pipe)
    try:
        for share in range(1, workers):
            read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():
                # Python >= 3.12 warns that forking a process with threads, such as
                # numpy's BLAS pool, may deadlock; a worker takes none of their locks.
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the worker: it leaves through os._exit whatever happens, 0 once sent
                code = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(_run_share(job, jobs, share, workers)))
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = (share, open(read_fd, "rb"))
            os.close(write_fd)
        shares[0] = _run_share(job, jobs, 0, workers)
        for pid, (share, pipe) in list(children.items()):
            with pipe:
                sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if os.waitstatus_to_exitcode(status) == 0:
                shares[share] = pickle.loads(sent)
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    registries = {}
    for i in range(len(jobs)):
        share = shares[i % workers]
        if share is None:
            raise RuntimeError(f"the worker {doing(jobs[i % workers::workers])} ended without "
                               "a result")
        result, raised, error = share[i]
        for message, category, filename, lineno in raised:
            warnings.warn_explicit(message, category, filename, lineno,
                                   registry=registries.setdefault(filename, {}))
        if error is not None:
            error.args = (f"{name(jobs[i])}: {error}",)
            raise error
        yield result
