"""The stateless round worker, and the two transports that reach it.

A PVR round is a pure function of (keys, spec, routes, round number,
nonce seed), and :meth:`~repro.audit.monitor.Monitor.plan_epoch` fixes
all of them before any round runs — so *who* executes a round cannot
matter, and nothing but keys needs to live in a worker.  A worker
holds a :class:`~repro.crypto.keystore.KeyStore` (inherited at fork, or
shared in-process) and the nonce seed, takes batches of
:class:`ShardTask`, and streams one ``(position, report, stats)`` frame
per finished round: a result frame *is* the liveness signal, so there
is no heartbeat, no plan header and no summary — a worker is done when
every position it was sent has a frame.

Two transports run the one loop, :func:`run_tasks`:

* :class:`_ProcessWorker` — a forked process behind a multiprocessing
  pipe (:func:`worker_main`), the transport that can see a death as
  EOF and a hang as silence;
* :class:`_InlineWorker` — the same loop in-process, deterministic and
  pickle-free; an injected death unwinds as :class:`WorkerDied`.

:class:`~repro.cluster.spec.ChaosSpec` failures are injected here, at
the Nth result of the chosen (worker, epoch).
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.audit.wire import RoundStats, run_offwire_round
from repro.crypto.keystore import KeyStore
from repro.pvr.session import PromiseSpec, SessionReport

__all__ = ["Batch", "ShardTask", "WorkerDied", "worker_main"]


@dataclass(frozen=True)
class ShardTask:
    """One picklable fresh verification: the plan entry's wire-free core.

    ``position`` is the entry's index in the epoch plan — the key that
    puts out-of-order results back into canonical order; ``chooser`` is
    a :mod:`repro.audit.choosers` registry name; ``neighbors`` is
    the prover's neighbor count, the commit-broadcast fan-out the
    replayed wire cost model prices.
    """

    position: int
    spec: PromiseSpec
    routes: Tuple[Tuple[str, object], ...]
    round: int
    chooser: Optional[str] = None
    neighbors: int = 0


#: what a worker is sent: the epoch (for chaos) and its tasks
Batch = Tuple[int, Sequence[ShardTask]]


class WorkerDied(RuntimeError):
    """An inline worker's injected death: unwinds out of the round loop
    so the inline transport can mark the worker dead, mirroring a
    process worker's SIGKILL."""


def run_tasks(
    keystore: KeyStore,
    rng_seed: object,
    index: int,
    chaos,
    batch: Batch,
    *,
    hard_kill: bool,
) -> Iterator[Tuple[int, SessionReport, RoundStats]]:
    """Run one batch serially on the nonce streams ``rng_seed`` promised
    the planner, yielding each round as it finishes.  An armed chaos
    spec fails the worker once exactly ``chaos.after`` results are out
    (deterministic on both transports)."""
    epoch, tasks = batch
    armed = (
        chaos is not None and chaos.worker == index and chaos.epoch == epoch
    )

    def fail_if_due(done: int) -> None:
        if not armed or done != chaos.after:
            return
        if chaos.mode == "hang":
            # reaped by the coordinator's deadline long before this ends
            time.sleep(chaos.hang_seconds)
        elif hard_kill:
            os.kill(os.getpid(), signal.SIGKILL)
        else:
            raise WorkerDied(
                f"chaos kill: worker {index} at epoch {epoch} "
                f"after {done} results"
            )

    for done, task in enumerate(tasks):
        fail_if_due(done)
        yield (
            task.position,
            *run_offwire_round(
                keystore,
                task.spec,
                dict(task.routes),
                round=task.round,
                rng_seed=rng_seed,
                chooser=task.chooser,
                neighbor_count=task.neighbors,
            ),
        )
    fail_if_due(len(tasks))


def worker_main(keystore, rng_seed, index, chaos, conn, inherited) -> None:
    """The process-transport entry point: run batches until told to
    stop (``None``) or the coordinator's end of the pipe closes.  A
    round that raises is reported as an ``("error", traceback)`` frame —
    an exception must never leave the coordinator waiting on silence.

    ``inherited`` are the coordinator's pipe ends the fork copied into
    this process (its own and its older siblings'): closed first, so
    that a coordinator's death reaches every worker as EOF instead of
    leaving orphans holding each other's pipes open."""
    for end in inherited:
        end.close()
    try:
        while True:
            batch = conn.recv()
            if batch is None:
                break
            try:
                for frame in run_tasks(
                    keystore, rng_seed, index, chaos, batch, hard_kill=True
                ):
                    conn.send(frame)
            except Exception:
                conn.send(("error", traceback.format_exc()))
    except (EOFError, OSError):
        pass  # the coordinator went away
    finally:
        conn.close()


class _InlineWorker:
    """The round loop in-process: a posted batch runs synchronously and
    its frames wait in ``frames``; ``died`` carries the reason once an
    injected death unwound it."""

    def __init__(self, keystore, rng_seed, index, chaos) -> None:
        self._args = (keystore, rng_seed, index, chaos)
        self.frames: List[tuple] = []
        self.died: Optional[str] = None

    def post(self, batch: Batch) -> None:
        self.frames = []
        try:
            for frame in run_tasks(*self._args, batch, hard_kill=False):
                self.frames.append(frame)
        except WorkerDied as exc:
            self.died = str(exc)
        except Exception as exc:
            self.frames.append(("error", f"{type(exc).__name__}: {exc}"))

    def kill(self) -> None:
        pass

    def shutdown(self) -> None:
        pass


class _ProcessWorker:
    """One forked worker process plus the coordinator's pipe end.  The
    keystore reaches the child through the fork, never through a
    pickle."""

    def __init__(
        self, context, keystore, rng_seed, index, chaos, siblings
    ) -> None:
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=worker_main,
            args=(
                keystore, rng_seed, index, chaos, child,
                (self.conn, *(worker.conn for worker in siblings)),
            ),
            daemon=True,
        )
        self.process.start()
        child.close()

    def post(self, batch: Batch) -> None:
        self.conn.send(batch)

    def kill(self) -> None:
        """Hard-stop a worker declared dead."""
        self.process.kill()
        self.process.join(timeout=10)
        self.conn.close()

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except OSError:
            pass  # it died since its last batch
        self.conn.close()
        self.process.join(timeout=10)
        if self.process.is_alive():  # pragma: no cover - safety net
            self.process.terminate()
